"""Unit tests for the sweep's chunked data plane and its checkpoint/resume.

Three contracts are pinned here on real (small) scenarios:

* **container contract** -- for each of the six result containers, folding
  a measurement list in one pass equals merging any chunk split of it in
  order, and a sweep returns that same container at any worker count (for
  the collecting ones: the episodes of the sequential reference loop);
* **schedule invariance** -- an aggregate sweep's serialised state is
  byte-identical across worker counts, because the chunk partition is
  worker-independent and partials merge in chunk-index order;
* **resume invariance** -- a sweep killed after any prefix of chunks (here:
  a checkpoint file truncated to a prefix, including a torn trailing line)
  resumes to the byte-identical final state, even under a different worker
  count, while an incompatible checkpoint is discarded rather than mixed in.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.adapters.redis_cluster import (
    FailoverSet,
    RedisClusterParameters,
    RedisFailoverModel,
)
from repro.chaos.plans import build_plan
from repro.chaos.scenario import ChaosScenario
from repro.cluster.scenarios import ElectionScenario
from repro.common.errors import SweepError
from repro.common.rng import paired_seeds
from repro.experiments.checkpoint import SweepCheckpoint, checkpoint_fingerprint
from repro.experiments.runner import (
    MAX_CHUNK_ITEMS,
    build_chunks,
    build_work_items,
    run_sweep,
    streaming_chunk_size,
)
from repro.metrics.records import AvailabilitySet, MeasurementSet
from repro.metrics.streaming import ElectionAggregate
from repro.workload.aggregate import WorkloadAggregate
from repro.workload.scenario import ThroughputScenario

SCENARIOS = {
    "escape-small": ElectionScenario(protocol="escape", cluster_size=3),
    "raft-small": ElectionScenario(protocol="raft", cluster_size=3),
}


_PLAN = build_plan("repeated-leader-kill", 10_000.0, 0)
_CHAOS = ChaosScenario(protocol="escape", cluster_size=3, plan=_PLAN)
_SERVING = ThroughputScenario(protocol="raft", cluster_size=3, plan=_PLAN)

#: Episodes per container-contract sweep: 40 items make chunks of two.
RUNS = 40

#: container -> a scenario producing the measurement type it holds.
CONTAINERS = {
    MeasurementSet: SCENARIOS["raft-small"],
    ElectionAggregate: SCENARIOS["raft-small"],
    AvailabilitySet: _CHAOS,
    WorkloadAggregate: _SERVING,
    FailoverSet: RedisFailoverModel(RedisClusterParameters(rank_confusion=0.6)),
}


def _contents(container):
    """What a container holds: its episode tuple, or the aggregate itself."""
    return getattr(container, "measurements", container)


def _state_bytes(results: dict[str, ElectionAggregate]) -> str:
    """Canonical byte-level serialisation of an aggregate sweep's results."""
    return json.dumps(
        {label: results[label].to_state() for label in sorted(results)},
        sort_keys=True,
    )


class TestWorkPartition:
    def test_items_are_interleaved_across_labels(self):
        items = build_work_items(SCENARIOS, runs=3, seed=0)
        # Run 0 of every label first, then run 1, ... -- so a size-mixed
        # sweep chunks into balanced-cost chunks instead of label-major runs.
        assert [(item.label, item.index) for item in items] == [
            ("escape-small", 0),
            ("raft-small", 0),
            ("escape-small", 1),
            ("raft-small", 1),
            ("escape-small", 2),
            ("raft-small", 2),
        ]

    def test_chunks_partition_the_item_list(self):
        items = build_work_items(SCENARIOS, runs=5, seed=0)
        chunks = build_chunks(items, chunk_size=3)
        assert [chunk.chunk_id for chunk in chunks] == [0, 1, 2, 3]
        reassembled = [item for chunk in chunks for item in chunk.items]
        assert reassembled == items
        with pytest.raises(SweepError):
            build_chunks(items, chunk_size=0)

    def test_streaming_chunk_size_is_worker_free_and_capped(self):
        # The signature itself is part of the contract: no worker count in
        # sight, so the partition (and the merge tree) can never depend on it.
        assert streaming_chunk_size(10) == 1
        assert streaming_chunk_size(2560) == 20
        assert streaming_chunk_size(10**6) == MAX_CHUNK_ITEMS


@pytest.mark.parametrize("container", CONTAINERS, ids=lambda c: c.__name__)
class TestContainerContract:
    @staticmethod
    @functools.cache
    def _reference(container):
        scenario = CONTAINERS[container]
        return [scenario.run(s) for s in paired_seeds(RUNS, 7, "cell")]

    def _folded(self, container, measurements):
        folded = container(label="cell")
        for measurement in measurements:
            folded.add(measurement)
        return folded

    @pytest.mark.parametrize("chunk", [1, 3, RUNS])
    def test_one_pass_equals_merging_any_chunk_split(self, container, chunk):
        reference = self._reference(container)
        merged = container(label="cell")
        for start in range(0, len(reference), chunk):
            merged.merge(self._folded(container, reference[start : start + chunk]))
        assert len(merged) == RUNS
        assert _contents(merged) == _contents(self._folded(container, reference))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sweep_returns_the_folded_reference(self, container, workers):
        reference = self._reference(container)
        swept = run_sweep(
            {"cell": CONTAINERS[container]},
            runs=RUNS,
            seed=7,
            workers=workers,
            container=container,
        )["cell"]
        assert _contents(swept) == _contents(self._folded(container, reference))
        if hasattr(swept, "measurements"):
            assert swept.measurements == tuple(reference)


class TestAggregateSweep:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_state_is_byte_identical_across_worker_counts(self, workers):
        baseline = run_sweep(
            SCENARIOS, runs=4, seed=3, workers=1, container=ElectionAggregate
        )
        fanned = run_sweep(
            SCENARIOS, runs=4, seed=3, workers=workers, container=ElectionAggregate
        )
        assert _state_bytes(fanned) == _state_bytes(baseline)

    def test_checkpoint_needs_a_serialisable_container(self, tmp_path):
        with pytest.raises(SweepError, match="from_state"):
            run_sweep(SCENARIOS, runs=2, seed=0, workers=1, checkpoint=tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestCheckpointFile:
    def test_fingerprint_covers_every_identity_component(self):
        base = checkpoint_fingerprint(SCENARIOS, 4, 0, ElectionAggregate)
        assert base == checkpoint_fingerprint(SCENARIOS, 4, 0, ElectionAggregate)
        assert base != checkpoint_fingerprint(SCENARIOS, 5, 0, ElectionAggregate)
        assert base != checkpoint_fingerprint(SCENARIOS, 4, 1, ElectionAggregate)
        assert base != checkpoint_fingerprint(
            dict(list(SCENARIOS.items())[:1]), 4, 0, ElectionAggregate
        )
        assert base != checkpoint_fingerprint(SCENARIOS, 4, 0, MeasurementSet)

    def _open(self, directory, *, fingerprint="f" * 64, chunk_size=2):
        return SweepCheckpoint.open(
            directory,
            fingerprint=fingerprint,
            labels=list(SCENARIOS),
            runs=4,
            seed=0,
            chunk_size=chunk_size,
            loader=ElectionAggregate.from_state,
        )

    def test_resume_restores_recorded_chunks_and_chunk_size(self, tmp_path):
        with self._open(tmp_path) as checkpoint:
            assert checkpoint.completed == {}
            partial = ElectionAggregate("escape-small")
            checkpoint.record(0, {"escape-small": partial})
        # A different requested chunk size loses to the recorded one, so a
        # resume under another --workers count cannot shift the partition.
        with self._open(tmp_path, chunk_size=9) as resumed:
            assert resumed.chunk_size == 2
            assert set(resumed.completed) == {0}
            assert resumed.completed[0]["escape-small"] == partial

    def test_torn_trailing_line_is_trimmed(self, tmp_path):
        with self._open(tmp_path) as checkpoint:
            checkpoint.record(0, {"escape-small": ElectionAggregate("escape-small")})
            path = checkpoint.path
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"chunk": 1, "partials": {"esc')  # kill mid-append
        with self._open(tmp_path) as resumed:
            assert set(resumed.completed) == {0}
        assert path.read_text().endswith("\n")  # clean line boundary again

    def test_mismatched_checkpoint_is_discarded(self, tmp_path):
        with self._open(tmp_path, fingerprint="a" * 64) as checkpoint:
            checkpoint.record(0, {"escape-small": ElectionAggregate("escape-small")})
        # Same directory, same file name prefix length -- different sweep.
        with SweepCheckpoint.open(
            tmp_path,
            fingerprint="a" * 64,
            labels=["other-label"],
            runs=4,
            seed=0,
            chunk_size=2,
            loader=ElectionAggregate.from_state,
        ) as fresh:
            assert fresh.completed == {}

    def test_aggregates_without_to_state_are_rejected(self, tmp_path):
        with self._open(tmp_path) as checkpoint:
            with pytest.raises(SweepError, match="to_state"):
                checkpoint.record(0, {"escape-small": object()})


class TestKillAndResume:
    def _checkpoint_file(self, directory):
        files = list(directory.glob("sweep-*.jsonl"))
        assert len(files) == 1
        return files[0]

    @pytest.mark.parametrize("keep_chunks", [0, 1, 3])
    @pytest.mark.parametrize("resume_workers", [1, 2])
    def test_resume_after_kill_is_byte_identical(
        self, tmp_path, keep_chunks, resume_workers
    ):
        baseline = run_sweep(
            SCENARIOS, runs=8, seed=5, workers=1, container=ElectionAggregate
        )

        first_dir = tmp_path / "first"
        run_sweep(
            SCENARIOS, runs=8, seed=5, workers=1, container=ElectionAggregate,
            checkpoint=first_dir,
        )
        path = self._checkpoint_file(first_dir)
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) > keep_chunks + 1  # header + enough chunks recorded

        # Simulate a kill: keep the header + a prefix of chunk lines, plus a
        # torn half-line from the append that was in flight.
        killed = lines[: 1 + keep_chunks] + ['{"chunk": 99, "par']
        path.write_text("".join(killed))

        resumed = run_sweep(
            SCENARIOS, runs=8, seed=5, workers=resume_workers,
            container=ElectionAggregate,
            checkpoint=first_dir,
        )
        assert _state_bytes(resumed) == _state_bytes(baseline)

    def test_completed_checkpoint_resumes_without_rerunning_any_chunk(
        self, tmp_path, monkeypatch
    ):
        run_sweep(
            SCENARIOS, runs=8, seed=5, workers=1, container=ElectionAggregate,
            checkpoint=tmp_path,
        )
        baseline = self._checkpoint_file(tmp_path).read_text()

        # Every chunk is already on disk, so no scenario may run again.
        def _refuse(self, seed):
            raise AssertionError("resume re-ran an already-checkpointed episode")

        monkeypatch.setattr(ElectionScenario, "run", _refuse)
        resumed = run_sweep(
            SCENARIOS, runs=8, seed=5, workers=1, container=ElectionAggregate,
            checkpoint=tmp_path,
        )
        assert set(resumed) == set(SCENARIOS)
        assert self._checkpoint_file(tmp_path).read_text() == baseline
