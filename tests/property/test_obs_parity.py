"""Telemetry snapshot parity: workers, engines and the merge contract.

The telemetry snapshot is part of the repo's determinism claim: a
telemetry-enabled sweep must produce *bit-identical* per-label snapshots at
any ``--workers`` count -- the engine-owned heap gauges included -- and the
engine contract extends to every other harvested name: ``classic`` and
``flat`` must agree on scheduler, network and node metrics, not just on
measurements.  Only ``repro.obs.harvest.ENGINE_OWNED_METRICS`` (how one
engine keeps its heap small) are left out of the cross-engine comparison.
"""

from __future__ import annotations

from repro.cluster.scenarios import ElectionScenario
from repro.experiments.runner import run_sweep
from repro.sim.engines import names as engine_names

from helpers import cross_engine_view, sweep_telemetry

ENGINES = tuple(engine_names())


def _scenarios(engine: str | None = None) -> dict[str, ElectionScenario]:
    scenarios = {
        "raft@3": ElectionScenario(protocol="raft", cluster_size=3, telemetry=True),
        "escape@5": ElectionScenario(
            protocol="escape", cluster_size=5, telemetry=True
        ),
    }
    if engine is not None:
        scenarios = {
            label: scenario.with_engine(engine)
            for label, scenario in scenarios.items()
        }
    return scenarios


class TestWorkerParity:
    def test_snapshots_bit_identical_at_any_worker_count(self):
        sequential = sweep_telemetry(
            run_sweep(_scenarios(), runs=4, seed=9, workers=1)
        )
        fanned_out = sweep_telemetry(
            run_sweep(_scenarios(), runs=4, seed=9, workers=4)
        )
        assert set(sequential) == {"raft@3", "escape@5"}
        assert fanned_out == sequential
        # The snapshots carry real work, not zeros.
        for snapshot in sequential.values():
            assert snapshot.gauges["sim.heap.size"] > 0
            assert snapshot.counters["sim.events.executed"] > 0
            assert snapshot.counters["net.delivered"] > 0
            assert snapshot.counters["node.elections_won"] >= 4


class TestEngineParity:
    @staticmethod
    def _sweep(engine: str) -> dict[str, dict]:
        snapshots = sweep_telemetry(
            run_sweep(_scenarios(engine), runs=3, seed=5, workers=1)
        )
        return {label: cross_engine_view(snap) for label, snap in snapshots.items()}

    def test_snapshots_bit_identical_across_engines(self):
        baseline = self._sweep(ENGINES[0])
        assert baseline["raft@3"]["counters"]["sim.events.cancelled"] > 0
        assert baseline["raft@3"]["gauges"]["sim.events.pending"] > 0
        for engine in ENGINES[1:]:
            assert self._sweep(engine) == baseline

    def test_single_episode_snapshots_agree_across_engines(self):
        scenario = ElectionScenario(
            protocol="escape", cluster_size=5, loss_rate=0.1, telemetry=True
        )

        def telemetry(engine: str) -> dict:
            measurement = scenario.with_engine(engine).run(17)
            return cross_engine_view(measurement.extra["telemetry"])

        baseline = telemetry(ENGINES[0])
        for engine in ENGINES[1:]:
            assert telemetry(engine) == baseline


class TestPlainRunsStayTelemetryFree:
    def test_disabled_scenarios_attach_no_snapshot(self):
        measurement = ElectionScenario(protocol="raft", cluster_size=3).run(0)
        assert "telemetry" not in measurement.extra

    def test_enabling_telemetry_does_not_change_the_measurement(self):
        plain = ElectionScenario(protocol="raft", cluster_size=3).run(21)
        instrumented = ElectionScenario(
            protocol="raft", cluster_size=3, telemetry=True
        ).run(21)
        assert instrumented.total_ms == plain.total_ms
        assert instrumented.detection_ms == plain.detection_ms
        assert instrumented.converged == plain.converged
