"""Unit tests for the parallel sweep execution engine.

The engine's contract is strict: for a fixed seed, every worker count must
produce *identical* measurement sets (same values, same order), because the
figure-level results of the paper reproduction may never depend on how the
sweep was scheduled across processes.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import re
from dataclasses import dataclass

import pytest

from repro.cluster.scenarios import ElectionScenario
from repro.common.errors import SweepError
from repro.common.rng import SeedSequence, derive_run_seed, paired_seeds
from repro.experiments import registry, run_experiment, runner
from repro.experiments.runner import (
    SweepItem,
    build_work_items,
    resolve_workers,
    run_sweep,
)

from helpers import registrations
from oracle import CLASSIC

SCENARIOS = {
    "escape-small": ElectionScenario(protocol="escape", cluster_size=3),
    "raft-small": ElectionScenario(protocol="raft", cluster_size=3),
}


@dataclass(frozen=True)
class _ExplodingScenario:
    """Stand-in scenario whose run always raises (module-level: picklable)."""

    def run(self, seed: int):
        raise ValueError(f"boom for seed {seed}")


class TestSeedDerivation:
    def test_paired_seeds_delegate_to_derive_run_seed(self):
        assert paired_seeds(4, seed=7, label="x") == [
            derive_run_seed(7, "x", index) for index in range(4)
        ]

    def test_derived_seeds_are_pinned(self):
        """Golden values: a drift here silently unpairs every A/B comparison.

        The constants were produced by the original inline derivation
        ``SeedSequence(seed).stream("experiment", label, index)`` and are
        platform-stable (SHA-256 based, not ``hash()``).
        """
        assert paired_seeds(3, seed=0, label="a") == [
            1569524556,
            3306680920,
            3135187838,
        ]
        assert paired_seeds(2, seed=42, label="raft@8") == [1347041454, 509708467]
        # The scheme matches the named-stream tree exactly.
        assert derive_run_seed(0, "a", 0) == SeedSequence(0).stream(
            "experiment", "a", 0
        ).getrandbits(32)
        assert len({derive_run_seed(0, "a", i) for i in range(100)}) == 100

    def test_work_items_carry_the_paired_seeds(self):
        items = build_work_items(SCENARIOS, runs=3, seed=5)
        assert len(items) == 6
        by_label: dict[str, list[SweepItem]] = {}
        for item in items:
            by_label.setdefault(item.label, []).append(item)
        for label, label_items in by_label.items():
            assert [item.seed for item in label_items] == paired_seeds(3, 5, label)
            assert [item.index for item in label_items] == [0, 1, 2]

    def test_measurements_record_the_derived_seed(self):
        results = run_sweep(SCENARIOS, runs=2, seed=9)
        for label, measurement_set in results.items():
            assert [m.seed for m in measurement_set] == paired_seeds(2, 9, label)


class TestLeanWorkItems:
    """The task queue carries ``(label, index, seed)`` an episode; the
    scenario table reaches each worker once, through the pool initializer."""

    @pytest.mark.parametrize("name", registry.names())
    def test_every_work_item_pickles_to_at_most_128_bytes(self, name):
        experiment = registry.get(name)
        scenarios = experiment.build_scenarios()
        items = build_work_items(scenarios, runs=experiment.default_runs, seed=0)
        assert max(len(pickle.dumps(item)) for item in items) <= 128
        # Not blind: the heaviest label with its scenario embedded is over it.
        label = max(scenarios, key=len)
        assert len(pickle.dumps((label, scenarios[label], 0, items[-1].seed))) > 128


class TestDeterminism:
    def test_parallel_equals_sequential(self):
        sequential = run_sweep(SCENARIOS, runs=3, seed=1, workers=1)
        parallel = run_sweep(SCENARIOS, runs=3, seed=1, workers=4)
        assert set(sequential) == set(parallel)
        for label in sequential:
            assert sequential[label].measurements == parallel[label].measurements

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_sweep_is_invariant(self, workers):
        baseline = run_sweep(SCENARIOS, runs=2, seed=3, workers=1)
        results = run_sweep(SCENARIOS, runs=2, seed=3, workers=workers)
        for label in baseline:
            assert results[label].measurements == baseline[label].measurements

    def test_label_order_matches_input_order(self):
        results = run_sweep(SCENARIOS, runs=1, seed=0, workers=2)
        assert list(results) == list(SCENARIOS)


class TestProgress:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_delivered_once_per_label_per_merged_chunk(self, workers):
        calls: list[tuple[str, int, int]] = []
        run_sweep(
            SCENARIOS,
            runs=16,
            seed=0,
            progress=lambda label, done, total: calls.append((label, done, total)),
            workers=workers,
        )
        # 32 interleaved items in chunks of 1: one run of one label a chunk.
        for label in SCENARIOS:
            label_calls = [call for call in calls if call[0] == label]
            assert label_calls == [(label, done, 16) for done in range(1, 17)]

    def test_progress_steps_by_the_chunk_size(self):
        calls: list[tuple[str, int, int]] = []
        run_sweep(
            {"only": ElectionScenario(protocol="escape", cluster_size=3)},
            runs=256,
            seed=0,
            progress=lambda label, done, total: calls.append((label, done, total)),
        )
        assert calls == [("only", done, 256) for done in range(2, 257, 2)]


class TestErrorPropagation:
    @pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "pool"])
    def test_failure_names_label_index_and_seed(self, workers):
        scenarios = {"bad": _ExplodingScenario()}
        with pytest.raises(SweepError) as raised:
            run_sweep(scenarios, runs=2, seed=0, workers=workers)
        message = str(raised.value)
        # Under a pool either episode may be the first failure to arrive.
        index = int(re.search(r"run (\d+)", message).group(1))
        seed = paired_seeds(2, 0, "bad")[index]
        assert f"'bad' run {index} (seed {seed}) failed: ValueError: boom" in message
        if workers == 1:
            # In-process the original exception stays chained for its traceback.
            assert isinstance(raised.value.__cause__, ValueError)

    def test_failure_in_one_label_of_a_mixed_sweep(self):
        scenarios = {
            "good": ElectionScenario(protocol="escape", cluster_size=3),
            "bad": _ExplodingScenario(),
        }
        with pytest.raises(SweepError, match="bad"):
            run_sweep(scenarios, runs=1, seed=0, workers=2)


class TestWorkerResolution:
    def test_workers_none_means_cpu_count(self):
        assert resolve_workers(None) >= 1

    def test_explicit_worker_counts_pass_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(SweepError):
            resolve_workers(0)
        with pytest.raises(SweepError):
            resolve_workers(-2)

    def test_more_workers_than_items_is_fine(self):
        results = run_sweep(
            {"only": ElectionScenario(protocol="raft", cluster_size=3)},
            runs=2,
            seed=0,
            workers=16,
        )
        assert len(results["only"]) == 2


@dataclass(frozen=True)
class _EngineProbe(ElectionScenario):
    """An election scenario that reports where, and on which scheduler, it ran."""

    def _episode(self, seed, metrics):
        measurement, cluster = super()._episode(seed, metrics)
        measurement.extra["ran_on"] = (
            type(cluster.world.scheduler).__name__,
            os.getpid(),
        )
        return measurement, cluster


def _probe_scenario(timeout_range, cluster_size: int = 5) -> _EngineProbe:
    return _EngineProbe("raft", cluster_size, raft_timeout_range=timeout_range)


class TestEngineReachesTheWorkers:
    """The engine is a field of the scenarios a worker receives: nothing else
    has to be handed to the pool, on either start method."""

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_workers_build_the_engine_the_run_selected(self, method, monkeypatch):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        monkeypatch.setattr(
            runner, "_pool_context", lambda: multiprocessing.get_context(method)
        )
        probe = dataclasses.replace(
            registry.get("fig3"), name="fig3-engine-probe", scenario=_probe_scenario
        )
        with registrations(registry):
            registry.register(probe)
            classic = run_experiment(
                probe.name, engine=CLASSIC, workers=2, runs=2, seed=5, quick=True
            )
        ran_on = [
            measurement.extra.pop("ran_on")
            for cell in classic.result.by_label.values()
            for measurement in cell
        ]
        assert {scheduler for scheduler, _ in ran_on} == {"EventScheduler"}
        assert os.getpid() not in {pid for _, pid in ran_on}
        flat = run_experiment("fig3", engine="flat", runs=2, seed=5, quick=True)
        assert classic.report == flat.report
        for label, cell in flat.result.by_label.items():
            assert classic.result.by_label[label].measurements == cell.measurements
