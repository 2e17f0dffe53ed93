"""The simulation-engine table.

Covers what the table promises: ``flat`` is its one entry, an unknown name is
rejected with the registered names, ``module:ClassName`` paths are validated
at construction and resolved lazily, and an engine choice -- a name, or a spec
such as the ``classic`` oracle's -- is threaded as data (explicit argument,
else ``flat``) from a scenario down to the world and the network -- there is
no process-wide default to consult -- while nodes see one environment class
whatever the engine.

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
from repro.sim import engines
from repro.sim.engines import EngineSpec
from repro.sim.flatcore import FlatEventScheduler
from repro.sim.world import SimulationWorld

from oracle import CLASSIC
from oracle.network import ClassicNetwork
from oracle.scheduler import EventScheduler


class TestRegistry:
    def test_builtins_are_registered(self):
        assert engines.names() == ("flat",)
        assert tuple(name for name, _ in engines.items()) == ("flat",)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigurationError, match="registered: flat$"):
            engines.get("warp")
        with pytest.raises(ConfigurationError, match="unknown engine 'classic'"):
            engines.get("classic")

    def test_resolve_accepts_name_spec_and_none(self):
        flat = engines.get("flat")
        assert engines.resolve("flat") is flat
        assert engines.resolve(flat) is flat
        assert engines.resolve(None) is flat
        assert engines.resolve(CLASSIC) is CLASSIC
        with pytest.raises(ConfigurationError, match="unknown engine"):
            engines.resolve("warp")


class TestEngineSpecValidation:
    def test_rejects_malformed_class_paths(self):
        with pytest.raises(ConfigurationError, match="module:ClassName"):
            EngineSpec(
                name="broken",
                title="broken",
                scheduler_path="repro.sim.flatcore.FlatEventScheduler",  # no colon
                network_path="repro.net.flatnet:FlatNetwork",
            )

    def test_unresolvable_path_fails_at_use_not_construction(self):
        spec = EngineSpec(
            name="ghost",
            title="ghost",
            scheduler_path="repro.sim.flatcore:NoSuchClass",
            network_path="repro.net.flatnet:FlatNetwork",
        )
        with pytest.raises(ConfigurationError, match="does not resolve"):
            spec.scheduler_class()

    def test_builtin_paths_resolve_to_the_engine_classes(self):
        flat = engines.get("flat")
        assert flat.scheduler_class() is FlatEventScheduler
        assert flat.network_class() is FlatNetwork
        assert CLASSIC.scheduler_class() is EventScheduler
        assert CLASSIC.network_class() is ClassicNetwork


class TestWorldAndClusterWiring:
    def test_world_builds_the_engine_scheduler(self):
        assert isinstance(SimulationWorld(engine=CLASSIC).scheduler, EventScheduler)
        assert isinstance(SimulationWorld(engine="flat").scheduler, FlatEventScheduler)

    def test_world_without_an_engine_is_flat(self):
        assert SimulationWorld().engine.name == "flat"

    def test_build_cluster_uses_the_matching_network_and_one_environment(self):
        flat = build_cluster("raft", size=3, engine="flat", trace=False)
        assert type(flat.network) is FlatNetwork
        classic = build_cluster("raft", size=3, engine=CLASSIC, trace=False)
        assert type(classic.network) is ClassicNetwork
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
        assert scenario.engine == "flat" and "engine='flat'" in repr(scenario)
        cluster, _ = scenario.build(seed=1)
        assert isinstance(cluster.network, FlatNetwork)
        classic = scenario.with_engine(CLASSIC)
        assert "engine=EngineSpec(name='classic'" in repr(classic)
        cluster, _ = classic.build(seed=1)
        assert isinstance(cluster.network, ClassicNetwork)

    def test_windowed_scenario_threads_engine(self):
        plan = build_plan("repeated-leader-kill", horizon_ms=30_000.0, seed=0)
        scenario = ChaosScenario(
            protocol="raft", cluster_size=3, plan=plan
        ).with_engine(CLASSIC)
        cluster, _ = scenario.build(seed=1)
        assert isinstance(cluster.world.scheduler, EventScheduler)
