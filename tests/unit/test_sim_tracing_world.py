"""Unit tests for the tracer and the simulation world."""

import dataclasses

import pytest

from repro.sim.tracing import Tracer
from repro.sim.world import SimulationWorld


class TestTracer:
    def test_records_are_kept_in_order(self):
        tracer = Tracer()
        tracer.record(1.0, "a")
        tracer.record(2.0, "b", node=3, detail_key="x")
        assert [record.category for record in tracer] == ["a", "b"]
        assert tracer.records[1].detail == {"detail_key": "x"}

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record(1.0, "a")
        assert len(tracer) == 0

    def test_describe_renders_one_line(self):
        tracer = Tracer()
        tracer.record(1.0, "a", node=2, foo="bar")
        tracer.record(2.0, "b")
        first, second = (record.describe() for record in tracer)
        assert "S2" in first and "foo=bar" in first
        assert "cluster" in second
        assert "\n" not in first + second

    def test_describe_sorts_the_detail_keys(self):
        tracer = Tracer()
        tracer.record(3.5, "role.change", node=1, to="leader", from_="candidate")
        line = tracer.records[0].describe()
        assert line.startswith("[       3.5 ms] S1")
        assert line.endswith("from_=candidate to=leader")

    def test_records_is_a_snapshot_not_a_live_view(self):
        tracer = Tracer()
        tracer.record(1.0, "a")
        snapshot = tracer.records
        tracer.record(2.0, "b")
        assert [record.category for record in snapshot] == ["a"]
        assert len(tracer) == len(tracer.records) == 2

    def test_enabled_reflects_the_constructor(self):
        assert Tracer().enabled is True
        assert Tracer(enabled=False).enabled is False

    def test_a_record_is_frozen(self):
        tracer = Tracer()
        tracer.record(1.0, "a")
        with pytest.raises(dataclasses.FrozenInstanceError):
            tracer.records[0].category = "b"


class TestSimulationWorld:
    def test_world_wires_clock_and_scheduler_together(self):
        world = SimulationWorld(seed=3)
        fired = []
        world.scheduler.call_after(25.0, lambda: fired.append(world.now()))
        world.run_for(100.0)
        assert fired == [25.0]
        assert world.now() == 100.0

    def test_trace_helper_stamps_current_time(self):
        world = SimulationWorld(seed=3)
        world.scheduler.call_after(10.0, lambda: world.trace("tick", node=1))
        world.run_for(20.0)
        record = world.tracer.records[0]
        assert record.time_ms == 10.0
        assert record.node == 1

    def test_same_seed_gives_identical_streams(self):
        a = SimulationWorld(seed=9).seeds.stream("latency")
        b = SimulationWorld(seed=9).seeds.stream("latency")
        assert [a.random() for _ in range(4)] == [b.random() for _ in range(4)]

    def test_trace_can_be_disabled(self):
        world = SimulationWorld(seed=1, trace=False)
        world.trace("anything")
        assert len(world.tracer) == 0
