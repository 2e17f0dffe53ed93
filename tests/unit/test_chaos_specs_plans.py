"""Unit tests for the chaos event specs, plan generators and the catalog."""

import pickle

import pytest

from repro.chaos.plans import (
    CHAOS_CATALOG,
    ChaosPlan,
    build_plan,
    chaos_storm,
    partition_flap,
    repeated_leader_kill,
    rolling_restart,
)
from repro.chaos.specs import (
    ChaosEvent,
    CrashLeader,
    CrashServer,
    Heal,
    PartitionGroups,
    Recover,
    SwapFault,
)
from repro.common.errors import ConfigurationError
from repro.net.faults import PacketLossFault


class TestChaosEvents:
    def test_events_are_frozen_values(self):
        event = CrashServer(at_ms=100.0, server_index=2)
        with pytest.raises(AttributeError):
            event.at_ms = 5.0
        assert event == CrashServer(at_ms=100.0, server_index=2)

    def test_negative_fire_time_is_rejected(self):
        with pytest.raises(ConfigurationError, match="at_ms"):
            CrashLeader(at_ms=-1.0)

    def test_negative_server_index_is_rejected(self):
        with pytest.raises(ConfigurationError, match="server_index"):
            CrashServer(at_ms=0.0, server_index=-1)

    def test_partition_needs_positive_group_count(self):
        with pytest.raises(ConfigurationError, match="group_count"):
            PartitionGroups(at_ms=0.0, group_count=0)

    def test_swap_fault_requires_a_fault_injector(self):
        with pytest.raises(ConfigurationError, match="fault injector"):
            SwapFault(at_ms=0.0, fault="loss")  # type: ignore[arg-type]

    def test_every_event_kind_pickles(self):
        events = (
            CrashLeader(at_ms=1.0),
            CrashServer(at_ms=2.0, server_index=3),
            Recover(at_ms=3.0, all_servers=True),
            PartitionGroups(at_ms=4.0, group_count=3, isolate_leader=True),
            Heal(at_ms=5.0),
            SwapFault(at_ms=6.0, fault=PacketLossFault(0.1)),
        )
        assert pickle.loads(pickle.dumps(events)) == events


class TestChaosPlan:
    def test_requires_a_name_and_positive_horizon(self):
        with pytest.raises(ConfigurationError, match="name"):
            ChaosPlan(name="", horizon_ms=1_000.0)
        with pytest.raises(ConfigurationError, match="horizon_ms"):
            ChaosPlan(name="x", horizon_ms=0.0)

    def test_rejects_events_beyond_the_horizon(self):
        with pytest.raises(ConfigurationError, match="beyond"):
            ChaosPlan(
                name="x",
                horizon_ms=1_000.0,
                events=(CrashLeader(at_ms=2_000.0),),
            )

    def test_rejects_unsorted_events(self):
        with pytest.raises(ConfigurationError, match="sorted"):
            ChaosPlan(
                name="x",
                horizon_ms=1_000.0,
                events=(CrashLeader(at_ms=500.0), Heal(at_ms=100.0)),
            )

    def test_rejects_non_event_members(self):
        with pytest.raises(ConfigurationError, match="ChaosEvent"):
            ChaosPlan(name="x", horizon_ms=1_000.0, events=("crash",))  # type: ignore[arg-type]

    def test_describe_summarises_the_inventory(self):
        plan = build_plan("repeated-leader-kill", horizon_ms=40_000.0, seed=1)
        text = plan.describe()
        assert "repeated-leader-kill" in text
        assert "CrashLeader" in text


class TestGenerators:
    @pytest.mark.parametrize(
        "generator",
        [repeated_leader_kill, rolling_restart, partition_flap, chaos_storm],
    )
    def test_same_seed_reproduces_the_same_plan(self, generator):
        assert generator(horizon_ms=60_000.0, seed=5) == generator(
            horizon_ms=60_000.0, seed=5
        )

    @pytest.mark.parametrize(
        "generator", [repeated_leader_kill, rolling_restart, partition_flap]
    )
    def test_different_seeds_jitter_the_timeline(self, generator):
        one = generator(horizon_ms=60_000.0, seed=1)
        two = generator(horizon_ms=60_000.0, seed=2)
        assert [e.at_ms for e in one.events] != [e.at_ms for e in two.events]

    @pytest.mark.parametrize(
        "generator",
        [repeated_leader_kill, rolling_restart, partition_flap, chaos_storm],
    )
    def test_events_stay_sorted_and_inside_the_horizon(self, generator):
        plan = generator(horizon_ms=90_000.0, seed=3)
        times = [event.at_ms for event in plan.events]
        assert times == sorted(times)
        assert all(0.0 <= t <= plan.horizon_ms for t in times)
        assert plan.events, "a 90 s horizon must contain at least one cycle"

    def test_every_crash_has_a_recovery_partner(self):
        plan = repeated_leader_kill(horizon_ms=120_000.0, seed=0)
        crashes = sum(isinstance(e, CrashLeader) for e in plan.events)
        recoveries = sum(isinstance(e, Recover) for e in plan.events)
        assert crashes == recoveries > 0

    def test_rolling_restart_cycles_the_membership_indexes(self):
        plan = rolling_restart(horizon_ms=120_000.0, seed=0)
        indexes = [
            event.server_index
            for event in plan.events
            if isinstance(event, CrashServer)
        ]
        assert indexes == list(range(len(indexes)))

    def test_chaos_storm_composes_all_event_kinds(self):
        plan = chaos_storm(horizon_ms=120_000.0, seed=0)
        kinds = {type(event) for event in plan.events}
        assert {
            CrashLeader,
            CrashServer,
            Recover,
            PartitionGroups,
            Heal,
            SwapFault,
        } <= kinds
        swaps = [e for e in plan.events if isinstance(e, SwapFault)]
        # The degraded phase ends by restoring the scenario's baseline fault
        # (fault=None), not by forcing a healthy network on top of whatever
        # catalog condition the plan is layered over.
        assert any(e.fault is None for e in swaps)


class TestCatalog:
    def test_catalog_names_every_required_plan(self):
        assert CHAOS_CATALOG.names() == (
            "repeated-leader-kill",
            "rolling-restart",
            "partition-flap",
            "chaos-storm",
        )
        for name, entry in CHAOS_CATALOG.items():
            assert entry.name == name
            assert entry.description

    def test_unknown_plan_fails_with_the_available_names(self):
        with pytest.raises(ConfigurationError, match="repeated-leader-kill"):
            build_plan("no-such-plan")

    def test_build_plan_is_deterministic_and_picklable(self):
        plan = build_plan("chaos-storm", horizon_ms=60_000.0, seed=9)
        assert plan == build_plan("chaos-storm", horizon_ms=60_000.0, seed=9)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert isinstance(clone, ChaosPlan)
        assert all(isinstance(event, ChaosEvent) for event in clone.events)
