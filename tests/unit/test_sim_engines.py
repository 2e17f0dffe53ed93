"""The simulation-engine table and the engine seam.

Covers what the table promises: the two built-ins resolve, an unknown name is
rejected with the registered names, ``module:ClassName`` paths are validated
at construction and resolved lazily, and an engine choice is threaded as data
(explicit argument, else ``flat``) from a scenario down to the world, network
and node environments -- there is no process-wide default to consult.

Also pins two regressions on the scheduler seam itself: non-finite
``call_at`` deadlines must be rejected by *both* engines (a NaN would poison
the heap invariant silently), and in-flight drops must emit the same
``net.drop`` trace schema on both engines.  And the three parts of the
contract a finished or waiting episode leans on, on both engines: an inert
send is accounted for but never scheduled, ``run_until_interrupted`` returns
right after the interrupting event, and ``close()`` leaves nothing queued.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster.builder import build_cluster
from repro.cluster.environment import FlatSimNodeEnvironment, SimNodeEnvironment
from repro.cluster.scenarios import ElectionScenario
from repro.chaos.plans import build_plan
from repro.chaos.scenario import ChaosScenario
from repro.common.errors import ConfigurationError, SimulationError
from repro.net.flatnet import FlatNetwork
from repro.net.network import SimulatedNetwork
from repro.sim import engines
from repro.sim.engines import EngineSpec
from repro.sim.flatcore import FlatEventScheduler
from repro.sim.scheduler import EventScheduler
from repro.sim.world import SimulationWorld

ENGINE_NAMES = ("classic", "flat")


def _spec(name: str = "custom") -> EngineSpec:
    return EngineSpec(
        name=name,
        title="Custom engine",
        scheduler_path="repro.sim.scheduler:EventScheduler",
        network_path="repro.net.network:SimulatedNetwork",
        environment_path="repro.cluster.environment:SimNodeEnvironment",
    )


class TestRegistry:
    def test_builtins_are_registered(self):
        assert engines.names() == ENGINE_NAMES
        assert tuple(name for name, _ in engines.items()) == ENGINE_NAMES

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigurationError, match="classic.*flat|flat.*classic"):
            engines.get("warp")

    def test_resolve_accepts_name_spec_and_none(self):
        flat = engines.get("flat")
        assert engines.resolve("flat") is flat
        assert engines.resolve(flat) is flat
        assert engines.resolve(None) is flat
        custom = _spec()
        assert engines.resolve(custom) is custom
        with pytest.raises(ConfigurationError, match="unknown engine"):
            engines.resolve("warp")


class TestEngineSpecValidation:
    def test_rejects_malformed_class_paths(self):
        with pytest.raises(ConfigurationError, match="module:ClassName"):
            EngineSpec(
                name="broken",
                title="broken",
                scheduler_path="repro.sim.scheduler.EventScheduler",  # dot, no colon
                network_path="repro.net.network:SimulatedNetwork",
                environment_path="repro.cluster.environment:SimNodeEnvironment",
            )

    def test_unresolvable_path_fails_at_use_not_construction(self):
        spec = EngineSpec(
            name="ghost",
            title="ghost",
            scheduler_path="repro.sim.scheduler:NoSuchClass",
            network_path="repro.net.network:SimulatedNetwork",
            environment_path="repro.cluster.environment:SimNodeEnvironment",
        )
        with pytest.raises(ConfigurationError, match="does not resolve"):
            spec.scheduler_class()

    def test_builtin_paths_resolve_to_the_engine_classes(self):
        classic, flat = engines.get("classic"), engines.get("flat")
        assert classic.scheduler_class() is EventScheduler
        assert classic.network_class() is SimulatedNetwork
        assert classic.environment_class() is SimNodeEnvironment
        assert flat.scheduler_class() is FlatEventScheduler
        assert flat.network_class() is FlatNetwork
        assert flat.environment_class() is FlatSimNodeEnvironment


class TestWorldAndClusterWiring:
    def test_world_builds_the_engine_scheduler(self):
        assert isinstance(SimulationWorld(engine="classic").scheduler, EventScheduler)
        assert isinstance(SimulationWorld(engine="flat").scheduler, FlatEventScheduler)

    def test_world_without_an_engine_is_flat(self):
        assert SimulationWorld().engine.name == "flat"

    def test_build_cluster_uses_matching_network_and_environment(self):
        cluster = build_cluster("raft", size=3, engine="flat", trace=False)
        assert isinstance(cluster.network, FlatNetwork)
        assert all(
            isinstance(node.env, FlatSimNodeEnvironment)
            for node in cluster.nodes.values()
        )
        classic = build_cluster("raft", size=3, engine="classic", trace=False)
        assert isinstance(classic.network, SimulatedNetwork)
        assert all(
            isinstance(node.env, SimNodeEnvironment)
            for node in classic.nodes.values()
        )

    def test_scenario_engine_field_is_validated_and_threaded(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            ElectionScenario(protocol="raft", cluster_size=3, engine="warp")
        scenario = ElectionScenario(protocol="raft", cluster_size=3)
        assert scenario.engine == "flat"
        cluster, _ = scenario.build(seed=1)
        assert isinstance(cluster.network, FlatNetwork)
        classic = scenario.with_engine("classic")
        assert "engine='classic'" in repr(classic)
        cluster, _ = classic.build(seed=1)
        assert isinstance(cluster.network, SimulatedNetwork)

    def test_windowed_scenario_threads_engine(self):
        plan = build_plan("repeated-leader-kill", horizon_ms=30_000.0, seed=0)
        scenario = ChaosScenario(
            protocol="raft", cluster_size=3, plan=plan
        ).with_engine("classic")
        cluster, _ = scenario.build(seed=1)
        assert isinstance(cluster.world.scheduler, EventScheduler)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
class TestCallAtValidation:
    """Regression: a NaN deadline used to be accepted and poison heap order."""

    def test_rejects_nan(self, engine):
        world = SimulationWorld(engine=engine)
        with pytest.raises(SimulationError, match="non-finite"):
            world.scheduler.call_at(math.nan, lambda: None)

    def test_rejects_infinity(self, engine):
        world = SimulationWorld(engine=engine)
        for deadline in (math.inf, -math.inf):
            with pytest.raises(SimulationError, match="non-finite"):
                world.scheduler.call_at(deadline, lambda: None)

    def test_accepts_finite_past_deadline_semantics_unchanged(self, engine):
        world = SimulationWorld(engine=engine)
        fired = []
        world.scheduler.call_at(5.0, lambda: fired.append(world.now()))
        world.scheduler.run_until_idle()
        assert fired == [5.0]


@pytest.mark.parametrize("engine", ENGINE_NAMES)
class TestInFlightDropTraces:
    """Both engines emit the ``net.drop`` schema for delivery-time drops."""

    @staticmethod
    def _world_and_network(engine):
        from repro.net.latency import ConstantLatency

        world = SimulationWorld(seed=7, engine=engine)
        network_class = engines.get(engine).network_class()
        network = network_class(
            world, members=(1, 2, 3), latency=ConstantLatency(10.0)
        )
        for member in (1, 2, 3):
            network.register(member, lambda payload, src: None)
        return world, network

    def test_disconnect_drop_carries_in_flight_flag(self, engine):
        world, network = self._world_and_network(engine)
        network.send(1, 2, "hello")
        network.disconnect(2)
        world.scheduler.run_until_idle()
        drops = [
            record
            for record in world.tracer.records
            if record.category == "net.drop"
        ]
        assert [dict(record.detail) for record in drops] == [
            {"dst": 2, "reason": "disconnected", "in_flight": True}
        ]
        assert network.stats.dropped_disconnected == 1
        assert network.stats.delivered == 0

    def test_partition_drop_carries_in_flight_flag(self, engine):
        world, network = self._world_and_network(engine)
        network.send(1, 2, "hello")
        network.partitions.partition([1], [2, 3])
        world.scheduler.run_until_idle()
        drops = [
            record
            for record in world.tracer.records
            if record.category == "net.drop"
        ]
        assert [dict(record.detail) for record in drops] == [
            {"dst": 2, "reason": "partition", "in_flight": True}
        ]
        assert network.stats.dropped_by_partition == 1


@pytest.mark.parametrize("engine", ENGINE_NAMES)
class TestInertSends:
    """An inert send does everything a send does except get delivered."""

    @staticmethod
    def _world_and_network(engine, fault=None):
        from repro.net.latency import UniformLatency

        world = SimulationWorld(seed=7, engine=engine)
        network = engines.get(engine).network_class()(
            world, members=(1, 2, 3), latency=UniformLatency(5.0, 10.0), fault=fault
        )
        delivered: list = []
        for member in (1, 2, 3):
            network.register(
                member, lambda src, payload: delivered.append((world.now(), payload))
            )
        return world, network, delivered

    def test_counted_and_sampled_but_never_scheduled(self, engine):
        world, network, delivered = self._world_and_network(engine)
        network.send(1, 2, "refusal", True)
        stats = network.stats
        assert (stats.sent, stats.elided, stats.per_type_sent) == (1, 1, {"str": 1})
        # No record and no sequence number...
        assert world.scheduler.pending_count == world.scheduler.scheduled_count == 0
        # ...but the latency draw was made: the next message arrives when it
        # would have had the refusal been delivered.
        network.send(1, 3, "next")
        world.scheduler.run_until_idle()
        reference_world, reference, both = self._world_and_network(engine)
        reference.send(1, 2, "refusal")
        reference.send(1, 3, "next")
        reference_world.scheduler.run_until_idle()
        assert len(both) == 2 and stats.delivered == 1
        assert delivered == [item for item in both if item[1] == "next"]

    def test_send_time_drops_are_still_drops(self, engine):
        world, network, _ = self._world_and_network(engine)
        network.partitions.partition([1], [2, 3])
        network.send(1, 2, "refusal", True)
        network.partitions.heal()
        network.disconnect(1)
        network.send(1, 2, "refusal", True)
        stats = network.stats
        assert (stats.sent, stats.dropped, stats.elided) == (2, 2, 0)
        assert [record.detail["reason"] for record in world.tracer.records] == [
            "partition",
            "disconnected",
        ]

    def test_the_duplicate_of_an_inert_send_is_elided_too(self, engine):
        from repro.net.faults import MessageDuplicationFault

        world, network, _ = self._world_and_network(
            engine, fault=MessageDuplicationFault(1.0)
        )
        network.send(1, 2, "refusal", True)
        stats = network.stats
        assert (stats.sent, stats.duplicated, stats.elided) == (1, 1, 2)
        assert world.scheduler.pending_count == 0


@pytest.mark.parametrize("engine", ENGINE_NAMES)
class TestInterruptAndClose:
    @staticmethod
    def _scheduler(engine):
        return SimulationWorld(seed=0, engine=engine).scheduler

    def test_returns_right_after_the_interrupting_event(self, engine):
        scheduler = self._scheduler(engine)
        ran: list[float] = []
        for time_ms in (10.0, 20.0, 30.0):
            scheduler.call_at(time_ms, lambda t=time_ms: ran.append(t))
        scheduler.call_at(20.0, scheduler.interrupt)
        assert scheduler.run_until_interrupted(100.0) is True
        assert (ran, scheduler.now(), scheduler.executed_count) == ([10.0, 20.0], 20.0, 3)
        # The rest is still queued; the next run starts uninterrupted.
        assert scheduler.run_until_interrupted(100.0) is False
        assert ran == [10.0, 20.0, 30.0]

    def test_deadline_and_drain_return_false(self, engine):
        scheduler = self._scheduler(engine)
        scheduler.call_at(50.0, lambda: None)
        assert scheduler.run_until_interrupted(40.0) is False
        assert (scheduler.now(), scheduler.executed_count) == (40.0, 0)
        assert scheduler.run_until_interrupted(100.0) is False
        # Drained before the deadline: the clock stays at the last event,
        # exactly as run_until_condition leaves it.
        assert (scheduler.now(), scheduler.executed_count) == (50.0, 1)

    def test_an_interrupt_outside_a_run_is_forgotten(self, engine):
        scheduler = self._scheduler(engine)
        scheduler.call_at(10.0, lambda: None)
        scheduler.interrupt()
        assert scheduler.run_until_interrupted(100.0) is False
        assert scheduler.executed_count == 1

    def test_close_leaves_nothing_to_run_and_handles_harmless(self, engine):
        scheduler = self._scheduler(engine)
        ran: list[int] = []
        handles = [
            scheduler.call_at(10.0 * n, lambda n=n: ran.append(n)) for n in (1, 2, 3)
        ]
        handles[0].cancel()
        scheduler.close()
        assert (scheduler.pending_count, scheduler.heap_size) == (0, 0)
        for handle in handles:
            handle.cancel()
        scheduler.run_until_idle()
        assert ran == [] and scheduler.pending_count == 0
