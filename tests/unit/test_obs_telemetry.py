"""Unit tests for the telemetry registry, handles and snapshots."""

import json
import pickle

import pytest

from repro.common.errors import ConfigurationError
from repro.obs.telemetry import (
    DEFAULT_HISTOGRAM_BOUNDS,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    TelemetrySnapshot,
    merge_snapshots,
    sweep_telemetry,
)


class TestHandles:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        handle = registry.counter("sim.events")
        handle.inc()
        handle.inc(4)
        assert registry.counter("sim.events").value == 5
        assert registry.counter("sim.events") is handle

    def test_gauge_keeps_last_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("heap.size")
        gauge.set(3)
        gauge.set(7.5)
        assert registry.gauge("heap.size").value == 7.5

    def test_histogram_buckets_and_overflow(self):
        histogram = Histogram(bounds=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 2.0, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.total == pytest.approx(106.5)

    @pytest.mark.parametrize("bounds", [(), (2.0, 1.0), (1.0, 1.0)])
    def test_invalid_histogram_bounds_rejected(self, bounds):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            Histogram(bounds=bounds)

    def test_histogram_bounds_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("attempts", bounds=(1.0, 2.0))
        registry.histogram("attempts", bounds=(1.0, 2.0))  # same bounds fine
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.histogram("attempts", bounds=(1.0, 3.0))

    def test_null_metrics_is_a_shared_noop(self):
        assert NULL_METRICS.enabled is False
        assert MetricsRegistry().enabled is True
        NULL_METRICS.counter("anything").inc(100)
        NULL_METRICS.gauge("anything").set(1.0)
        NULL_METRICS.histogram("anything").observe(1.0)
        # Handles are shared singletons and the registry stays empty.
        assert NULL_METRICS.counter("a") is NULL_METRICS.counter("b")
        assert NULL_METRICS.snapshot() == TelemetrySnapshot()


class TestSnapshot:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("net.sent").inc(10)
        registry.counter("net.dropped").inc(2)
        registry.gauge("heap.size").set(8)
        hist = registry.histogram("attempts", bounds=(1.0, 2.0))
        hist.observe(1)
        hist.observe(5)
        return registry.snapshot()

    def test_snapshot_is_frozen_hashable_and_picklable(self):
        snapshot = self._populated()
        assert hash(snapshot) == hash(self._populated())
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot
        with pytest.raises(AttributeError):
            snapshot.counters = {}

    def test_snapshot_decouples_from_the_registry(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        counter.inc()
        snapshot = registry.snapshot()
        counter.inc(10)
        assert snapshot.counters["n"] == 1
        assert registry.snapshot().counters["n"] == 11

    def test_state_round_trips_through_json(self):
        snapshot = self._populated()
        state = json.loads(json.dumps(snapshot.to_state()))
        assert TelemetrySnapshot.from_state(state) == snapshot

    def test_from_state_accepts_tuples_like_the_export_layer(self):
        # export._tuplify restores JSON arrays as tuples; both must decode.
        snapshot = self._populated()
        state = snapshot.to_state()
        state["histograms"]["attempts"]["bounds"] = tuple(
            state["histograms"]["attempts"]["bounds"]
        )
        state["histograms"]["attempts"]["counts"] = tuple(
            state["histograms"]["attempts"]["counts"]
        )
        assert TelemetrySnapshot.from_state(state) == snapshot

    def test_merge_sums_counters_and_histograms_maxes_gauges(self):
        a = MetricsRegistry()
        a.counter("n").inc(3)
        a.gauge("g").set(5)
        a.histogram("h", bounds=(1.0, 2.0)).observe(1)
        b = MetricsRegistry()
        b.counter("n").inc(4)
        b.counter("only-b").inc(1)
        b.gauge("g").set(2)
        b.histogram("h", bounds=(1.0, 2.0)).observe(9)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.counters == {"n": 7, "only-b": 1}
        assert merged.gauges == {"g": 5.0}
        bounds, counts, count, total = merged.histograms["h"]
        assert bounds == (1.0, 2.0)
        assert counts == (1, 0, 1)
        assert count == 2 and total == pytest.approx(10.0)

    def test_merge_is_associative_and_order_independent_here(self):
        snapshots = []
        for value in (1, 2, 3):
            registry = MetricsRegistry()
            registry.counter("n").inc(value)
            registry.gauge("g").set(value)
            snapshots.append(registry.snapshot())
        forward = merge_snapshots(snapshots)
        backward = merge_snapshots(reversed(snapshots))
        assert forward == backward
        assert forward.counters["n"] == 6 and forward.gauges["g"] == 3.0

    def test_merge_rejects_mismatched_histogram_bounds(self):
        a = MetricsRegistry()
        a.histogram("h", bounds=(1.0, 2.0)).observe(1)
        b = MetricsRegistry()
        b.histogram("h", bounds=(1.0, 3.0)).observe(1)
        with pytest.raises(ConfigurationError, match="bounds differ"):
            a.snapshot().merge(b.snapshot())

    def test_merge_with_empty_is_identity(self):
        snapshot = self._populated()
        assert TelemetrySnapshot().merge(snapshot) == snapshot
        assert snapshot.merge(TelemetrySnapshot()) == snapshot
        assert merge_snapshots([]) == TelemetrySnapshot()

    def test_default_bounds_are_strictly_increasing(self):
        assert list(DEFAULT_HISTOGRAM_BOUNDS) == sorted(set(DEFAULT_HISTOGRAM_BOUNDS))


class _FakeMeasurement:
    def __init__(self, extra):
        self.extra = extra


class TestSweepTelemetry:
    def test_folds_per_label_and_skips_bare_measurements(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(2)
        state = registry.snapshot().to_state()
        results = {
            "with": [_FakeMeasurement({"telemetry": state})] * 3,
            "without": [_FakeMeasurement({})],
        }
        tables = sweep_telemetry(results)
        assert set(tables) == {"with"}
        assert tables["with"].counters["n"] == 6


class TestHarvestNameTable:
    """The metric-name table in ``repro.obs.harvest``'s docstring is the
    vocabulary, name for name: nothing emitted is undocumented and nothing
    documented is never emitted."""

    @staticmethod
    def _documented() -> list[str]:
        import re

        from repro.obs import harvest

        return re.findall(r"^``([a-z_.]+(?:<\w+>)?)``  ", harvest.__doc__, re.MULTILINE)

    @staticmethod
    def _emitted() -> set[str]:
        from types import SimpleNamespace

        from repro.chaos.plans import build_plan
        from repro.obs.harvest import harvest_chaos
        from repro.workload.scenario import ThroughputScenario

        # One serving window runs every harvester: cluster, node listener,
        # workload and chaos driver.
        plan = build_plan("chaos-storm", horizon_ms=30_000.0, seed=0)
        scenario = ThroughputScenario(
            "escape", 5, plan=plan, workload="open-poisson", telemetry=True
        )
        snapshot = TelemetrySnapshot.from_state(scenario.run(3).extra["telemetry"])
        # The window skipped no disruption; fold one skip in by hand.
        skipped = MetricsRegistry()
        harvest_chaos(
            SimpleNamespace(applied=(), skipped=(SimpleNamespace(kind="crash-leader"),)),
            skipped,
        )
        names: set[str] = set()
        for part in (snapshot, skipped.snapshot()):
            names.update(part.counters, part.gauges, part.histograms)
        return names

    def test_every_emitted_name_is_in_the_table_and_vice_versa(self):
        import re

        documented = self._documented()
        assert len(documented) == len(set(documented)) > 30
        emitted = self._emitted()
        patterns = {
            row: re.compile(re.sub(r"<\w+>", "[^.]+", re.escape(row)))
            for row in documented
        }
        undocumented = {
            name
            for name in emitted
            if not any(pattern.fullmatch(name) for pattern in patterns.values())
        }
        assert not undocumented
        never_emitted = {
            row
            for row, pattern in patterns.items()
            if not any(pattern.fullmatch(name) for name in emitted)
        }
        assert not never_emitted
