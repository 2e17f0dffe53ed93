"""The simulation-engine table and the engine seam.

Covers what the table promises: the two built-ins resolve, an unknown name is
rejected with the registered names, ``module:ClassName`` paths are validated
at construction and resolved lazily, and an engine choice is threaded as data
(explicit argument, else ``flat``) from a scenario down to the world, network
and node environments -- there is no process-wide default to consult.

Also pins two regressions on the scheduler seam itself: non-finite
``call_at`` deadlines must be rejected by *both* engines (a NaN would poison
the heap invariant silently), and in-flight drops must emit the same
``net.drop`` trace schema on both engines.
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
