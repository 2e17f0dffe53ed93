"""Differential testing of the simulation engines.

The engine contract (:mod:`repro.sim.engines`) says ``flat`` and the
``classic`` oracle (``tests/oracle/``) are *bit-identical*: for the same
``(scenario, seed)`` they must produce the same measurements, the same
:class:`NetworkStats`, the same trace stream, the same availability timeline
and the same telemetry but for the two engine-owned heap gauges -- an engine may only remove allocation and
indirection, never reorder RNG draws or events.  This suite states that
contract as properties over random seeds, the registered liveness-guaranteeing
protocols, the catalog's network conditions, and all three scenario types
(election, availability window, serving window), and as one case per cell of
every registered experiment's quick grid -- every condition a sweep runs.

``raft-fixed`` is deliberately absent: it livelocks by design (degenerate
baseline) and cannot finish a measured episode on *either* engine.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.plans import build_plan
from repro.chaos.scenario import ChaosScenario
from repro.cluster.catalog import CATALOG, network_specs
from repro.cluster.scenarios import ElectionScenario, Scenario
from repro.common.rng import paired_seeds
from repro.experiments import registry
from repro.net.faults import BroadcastOmissionFault
from repro.workload.scenario import ThroughputScenario

from helpers import cross_engine_view
from oracle import CLASSIC, ENGINES

#: Every registered protocol that can finish a measured election episode.
LIVENESS_PROTOCOLS = ("raft", "zraft", "escape", "raft-stagger", "escape-noppf")

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def _episode(scenario: ElectionScenario, seed: int):
    """One measured episode plus the engine-visible side channels."""
    cluster, harness = scenario.build(seed)
    cluster.start_all()
    harness.stabilize(max_time_ms=scenario.stabilize_ms)
    measurement = harness.crash_leader_and_measure(
        max_election_ms=scenario.max_election_ms, seed=seed
    )
    return (
        measurement,
        cluster.network.stats,
        cluster.world.now(),
        tuple(cluster.world.tracer.records),
    )


class TestElectionDifferential:
    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS, protocol=st.sampled_from(LIVENESS_PROTOCOLS))
    def test_measurements_identical_across_engines(self, seed, protocol):
        scenario = ElectionScenario(protocol=protocol, cluster_size=5)
        baseline = scenario.with_engine(ENGINES[0]).run(seed)
        for engine in ENGINES[1:]:
            assert scenario.with_engine(engine).run(seed) == baseline

    @settings(max_examples=8, deadline=None)
    @given(seed=SEEDS, condition=st.sampled_from(CATALOG.names()))
    def test_catalog_conditions_identical_including_stats_and_traces(
        self, seed, condition
    ):
        # trace=True makes this the strongest form of the contract: not just
        # the final numbers but the entire event narrative must match.
        scenario = ElectionScenario(
            protocol="escape", cluster_size=5, trace=True, **network_specs(condition)
        )
        baseline = _episode(scenario.with_engine(ENGINES[0]), seed)
        for engine in ENGINES[1:]:
            other = _episode(scenario.with_engine(engine), seed)
            assert other[0] == baseline[0], "measurement diverged"
            assert other[1] == baseline[1], "NetworkStats diverged"
            assert other[2] == baseline[2], "final simulated time diverged"
            assert other[3] == baseline[3], "trace stream diverged"

    @settings(max_examples=6, deadline=None)
    @given(seed=SEEDS, protocol=st.sampled_from(LIVENESS_PROTOCOLS))
    def test_trace_toggle_never_changes_results(self, seed, protocol):
        """Tracing is observability only -- on either engine."""
        quiet = ElectionScenario(protocol=protocol, cluster_size=5, trace=False)
        loud = ElectionScenario(protocol=protocol, cluster_size=5, trace=True)
        results = {
            (engine, trace_on): scenario.with_engine(engine).run(seed)
            for engine in ENGINES
            for trace_on, scenario in ((False, quiet), (True, loud))
        }
        baseline = results[(ENGINES[0], False)]
        assert all(result == baseline for result in results.values())


def _cross_engine(measurement):
    """The record with its telemetry reduced to what engines must agree on."""
    telemetry = cross_engine_view(measurement.extra["telemetry"])
    return replace(measurement, extra={**measurement.extra, "telemetry": telemetry})


def _election(plan) -> ElectionScenario:
    return ElectionScenario(
        protocol="escape",
        cluster_size=5,
        fault=BroadcastOmissionFault(0.1),
        workload_interval_ms=250.0,
    )


def _chaos(plan) -> ChaosScenario:
    return ChaosScenario(protocol="escape", cluster_size=5, plan=plan)


def _throughput(plan) -> ThroughputScenario:
    return ThroughputScenario(
        protocol="escape", cluster_size=5, plan=plan, workload="open-poisson"
    )


class TestScenarioTypeDifferential:
    """Every scenario type, through the one run template, on every engine."""

    @pytest.mark.parametrize("build", [_election, _chaos, _throughput])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_measurement_telemetry_and_trace_identical_across_engines(
        self, build, seed
    ):
        plan = build_plan("partition-flap", horizon_ms=60_000.0, seed=seed)
        scenario = build(plan).with_telemetry()
        baseline, baseline_records = scenario.with_engine(ENGINES[0]).run_traced(seed)
        assert baseline.extra["telemetry"]["counters"]["net.delivered"] > 0
        assert "sim.heap.size" in baseline.extra["telemetry"]["gauges"]
        for engine in ENGINES[1:]:
            other, records = scenario.with_engine(engine).run_traced(seed)
            # Full-record equality covers the aggregates, the raw
            # leaderless-interval timeline / per-op latencies and -- through
            # ``extra`` -- every harvested telemetry name that is not
            # engine-owned (``sim.events.*`` included).
            assert _cross_engine(other) == _cross_engine(
                baseline
            ), "measurement or telemetry diverged"
            assert records == baseline_records, "trace stream diverged"


def _quick_grid_cells():
    """``(scenario, seed)`` for every simulated cell of every registered
    experiment's quick grid (an analytic model runs on no engine)."""
    for name in registry.names():
        spec = registry.get(name)
        for label, scenario in spec.build(spec.resolved_params(quick=True), 0)[2].items():
            if isinstance(scenario, Scenario):
                seed = paired_seeds(1, 0, label)[0]
                yield pytest.param(scenario, seed, id=f"{name}:{label}")


QUICK_GRID_CELLS = list(_quick_grid_cells())


class TestEveryQuickGridCell:
    """Every condition a registered experiment sweeps, on both engines: the
    plain run every sweep makes, and the observed run (telemetry and trace)."""

    @pytest.mark.parametrize(("scenario", "seed"), QUICK_GRID_CELLS)
    def test_a_plain_run_is_identical(self, scenario, seed):
        assert scenario.with_engine(CLASSIC).run(seed) == scenario.run(seed)

    @pytest.mark.parametrize(("scenario", "seed"), QUICK_GRID_CELLS)
    def test_an_observed_run_is_identical(self, scenario, seed):
        observed = scenario.with_telemetry()
        flat, flat_records = observed.run_traced(seed)
        classic, records = observed.with_engine(CLASSIC).run_traced(seed)
        assert _cross_engine(classic) == _cross_engine(flat)
        assert records == flat_records
