"""The simulation-engine table.

Covers what the table promises: the two built-ins resolve, an unknown name is
rejected with the registered names, ``module:ClassName`` paths are validated
at construction and resolved lazily, and an engine choice is threaded as data
(explicit argument, else ``flat``) from a scenario down to the world and the
network -- there is no process-wide default to consult -- while nodes see one
environment class whatever the engine.

What the engines owe everything above them is
``tests/unit/test_engine_contract.py``.
"""

from __future__ import annotations

import pytest

from repro.cluster.builder import build_cluster
from repro.cluster.environment import SimNodeEnvironment
from repro.cluster.scenarios import ElectionScenario
from repro.chaos.plans import build_plan
from repro.chaos.scenario import ChaosScenario
from repro.common.errors import ConfigurationError
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
            )

    def test_unresolvable_path_fails_at_use_not_construction(self):
        spec = EngineSpec(
            name="ghost",
            title="ghost",
            scheduler_path="repro.sim.scheduler:NoSuchClass",
            network_path="repro.net.network:SimulatedNetwork",
        )
        with pytest.raises(ConfigurationError, match="does not resolve"):
            spec.scheduler_class()

    def test_builtin_paths_resolve_to_the_engine_classes(self):
        classic, flat = engines.get("classic"), engines.get("flat")
        assert classic.scheduler_class() is EventScheduler
        assert classic.network_class() is SimulatedNetwork
        assert flat.scheduler_class() is FlatEventScheduler
        assert flat.network_class() is FlatNetwork


class TestWorldAndClusterWiring:
    def test_world_builds_the_engine_scheduler(self):
        assert isinstance(SimulationWorld(engine="classic").scheduler, EventScheduler)
        assert isinstance(SimulationWorld(engine="flat").scheduler, FlatEventScheduler)

    def test_world_without_an_engine_is_flat(self):
        assert SimulationWorld().engine.name == "flat"

    def test_build_cluster_uses_the_matching_network_and_one_environment(self):
        flat = build_cluster("raft", size=3, engine="flat", trace=False)
        assert type(flat.network) is FlatNetwork
        classic = build_cluster("raft", size=3, engine="classic", trace=False)
        assert type(classic.network) is SimulatedNetwork
        for cluster in (flat, classic):
            scheduler = cluster.world.scheduler
            for node in cluster.nodes.values():
                assert type(node.env) is SimNodeEnvironment
                assert node.env.set_timer == scheduler.schedule_timer_entry
                assert node.env.cancel_timer == scheduler.cancel_entry
                assert node.env.rearm_timer == scheduler.rearm_timer_entry

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
