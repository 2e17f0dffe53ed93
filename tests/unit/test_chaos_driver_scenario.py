"""Unit tests for the chaos driver, availability observer and scenario."""

import pickle

import pytest

from repro.chaos.availability import AvailabilityObserver, cluster_available
from repro.chaos.driver import ChaosDriver
from repro.chaos.plans import ChaosPlan, build_plan
from repro.chaos.scenario import ChaosScenario
from repro.chaos.specs import (
    CrashLeader,
    CrashServer,
    Heal,
    PartitionGroups,
    Recover,
    SwapFault,
)
from repro.cluster.builder import build_cluster
from repro.cluster.catalog import CATALOG
from repro.cluster.harness import ElectionHarness
from repro.cluster.observers import ElectionObserver
from repro.common.errors import ConfigurationError, SimulationError
from repro.net.faults import PacketLossFault


def _stabilized_cluster(
    protocol="raft", size=5, seed=0, extra_listeners=(), fault=None
):
    observer = ElectionObserver()
    cluster = build_cluster(
        protocol=protocol,
        size=size,
        seed=seed,
        fault=fault,
        listeners=(observer, *extra_listeners),
        trace=False,
    )
    harness = ElectionHarness(cluster, observer)
    cluster.start_all()
    harness.stabilize()
    return cluster, harness


def _drive(plan, seed=0, extra_listeners=(), fault=None, **driver_kwargs):
    cluster, harness = _stabilized_cluster(
        seed=seed, extra_listeners=extra_listeners, fault=fault
    )
    driver = ChaosDriver(cluster, plan, **driver_kwargs)
    driver.start()
    harness.run_for(plan.horizon_ms)
    return cluster, driver


class TestChaosDriver:
    def test_crash_leader_resolves_at_fire_time_and_recovers_fifo(self):
        plan = ChaosPlan(
            name="scripted",
            horizon_ms=20_000.0,
            events=(CrashLeader(at_ms=1_000.0), Recover(at_ms=8_000.0)),
        )
        cluster, driver = _drive(plan)
        kinds = [record.kind for record in driver.applied]
        assert kinds == ["crash-leader", "recover"]
        assert driver.disruption_count == 1
        assert not cluster.crashed  # the recovery brought the victim back

    def test_crash_is_skipped_when_quorum_would_be_lost(self):
        plan = ChaosPlan(
            name="overkill",
            horizon_ms=20_000.0,
            events=(
                CrashServer(at_ms=1_000.0, server_index=0),
                CrashServer(at_ms=2_000.0, server_index=1),
                CrashServer(at_ms=3_000.0, server_index=2),
            ),
        )
        cluster, driver = _drive(plan)
        # 5 servers, quorum 3: the third crash would leave only 2 running.
        assert driver.disruption_count == 2
        assert [record.kind for record in driver.skipped] == ["crash-server"]
        assert "quorum" in driver.skipped[0].detail
        assert len(cluster.crashed) == 2

    def test_preserve_quorum_can_be_disabled(self):
        plan = ChaosPlan(
            name="overkill",
            horizon_ms=20_000.0,
            events=(
                CrashServer(at_ms=1_000.0, server_index=0),
                CrashServer(at_ms=2_000.0, server_index=1),
                CrashServer(at_ms=3_000.0, server_index=2),
            ),
        )
        cluster, driver = _drive(plan, preserve_quorum=False)
        assert driver.disruption_count == 3
        assert len(cluster.crashed) == 3

    def test_crashing_an_already_crashed_server_is_skipped(self):
        plan = ChaosPlan(
            name="double-tap",
            horizon_ms=20_000.0,
            events=(
                CrashServer(at_ms=1_000.0, server_index=0),
                CrashServer(at_ms=2_000.0, server_index=0),
            ),
        )
        _, driver = _drive(plan)
        assert driver.disruption_count == 1
        assert "already crashed" in driver.skipped[0].detail

    def test_server_index_resolves_modulo_the_membership(self):
        plan = ChaosPlan(
            name="wrap",
            horizon_ms=20_000.0,
            events=(CrashServer(at_ms=1_000.0, server_index=7),),
        )
        cluster, driver = _drive(plan)
        # 5 servers: index 7 wraps to the third member (S3).
        assert cluster.crashed == frozenset({3})

    def test_partition_isolates_the_leader_and_heal_restores_it(self):
        plan = ChaosPlan(
            name="flap-once",
            horizon_ms=30_000.0,
            events=(
                PartitionGroups(at_ms=1_000.0, isolate_leader=True),
                Heal(at_ms=12_000.0),
            ),
        )
        cluster, driver = _drive(plan)
        assert [record.kind for record in driver.applied] == ["partition", "heal"]
        assert "isolated leader" in driver.applied[0].detail
        assert not cluster.network.partitions.is_partitioned

    def test_heal_without_partition_is_skipped(self):
        plan = ChaosPlan(
            name="noop-heal", horizon_ms=5_000.0, events=(Heal(at_ms=1_000.0),)
        )
        _, driver = _drive(plan)
        assert [record.kind for record in driver.skipped] == ["heal"]

    def test_recover_with_nothing_crashed_is_skipped(self):
        plan = ChaosPlan(
            name="noop-recover",
            horizon_ms=5_000.0,
            events=(Recover(at_ms=1_000.0),),
        )
        _, driver = _drive(plan)
        assert [record.kind for record in driver.skipped] == ["recover"]

    def test_swap_fault_installs_the_events_own_injector(self):
        plan = ChaosPlan(
            name="degrade",
            horizon_ms=5_000.0,
            events=(SwapFault(at_ms=1_000.0, fault=PacketLossFault(0.2)),),
        )
        cluster, driver = _drive(plan)
        assert cluster.network.fault is plan.events[0].fault
        assert driver.disruption_count == 0  # fault swaps are not disruptions

    def test_swap_fault_none_restores_the_baseline_injector(self):
        plan = ChaosPlan(
            name="degrade-then-restore",
            horizon_ms=5_000.0,
            events=(
                SwapFault(at_ms=1_000.0, fault=PacketLossFault(0.2)),
                SwapFault(at_ms=2_000.0, fault=None),
            ),
        )
        # Layered over a lossy catalog condition, the restore event must
        # bring back that condition's own injector, not a healthy network.
        baseline = CATALOG.get("lossy-unicast").fault
        cluster, driver = _drive(plan, fault=baseline)
        assert cluster.network.fault is baseline
        assert any(
            "baseline" in record.detail for record in driver.applied
        )

    def test_driver_cannot_start_twice(self):
        plan = ChaosPlan(name="empty", horizon_ms=1_000.0)
        cluster, _ = _stabilized_cluster()
        driver = ChaosDriver(cluster, plan)
        driver.start()
        with pytest.raises(SimulationError, match="already started"):
            driver.start()


class TestAvailabilityObserver:
    def test_crash_opens_an_outage_and_reelection_closes_it(self):
        observer = AvailabilityObserver()
        plan = ChaosPlan(
            name="one-kill",
            horizon_ms=30_000.0,
            events=(CrashLeader(at_ms=1_000.0), Recover(at_ms=15_000.0)),
        )
        cluster, harness = _stabilized_cluster(extra_listeners=(observer,))
        observer.begin(cluster, cluster.world.now())
        driver = ChaosDriver(cluster, plan, observer=observer)
        driver.start()
        harness.run_for(plan.horizon_ms)
        report = observer.finalize(cluster.world.now())
        assert len(report.leaderless_intervals) == 1
        (start, end), = report.leaderless_intervals
        assert start < end
        assert 0.0 < report.unavailability < 1.0
        assert report.available_ms + report.leaderless_ms == pytest.approx(
            report.duration_ms
        )

    def test_isolated_leader_does_not_count_as_available(self):
        observer = AvailabilityObserver()
        plan = ChaosPlan(
            name="isolate",
            horizon_ms=30_000.0,
            events=(
                PartitionGroups(at_ms=1_000.0, isolate_leader=True),
                Heal(at_ms=20_000.0),
            ),
        )
        cluster, harness = _stabilized_cluster(extra_listeners=(observer,))
        observer.begin(cluster, cluster.world.now())
        driver = ChaosDriver(cluster, plan, observer=observer)
        driver.start()
        harness.run_for(plan.horizon_ms)
        report = observer.finalize(cluster.world.now())
        # The old leader keeps running behind the partition but cannot reach
        # a quorum, so the window shows a real outage until the majority side
        # elects a replacement.
        assert report.leaderless_ms > 0.0

    def test_cluster_available_tracks_quorum_capability(self):
        cluster, _ = _stabilized_cluster()
        assert cluster_available(cluster)
        leader = cluster.leader_id()
        others = tuple(
            member for member in cluster.config.server_ids if member != leader
        )
        cluster.network.partitions.partition((leader,), others)
        assert not cluster_available(cluster)  # stale leader lost its quorum
        cluster.network.partitions.heal()
        assert cluster_available(cluster)

    def test_finalize_before_begin_is_an_error(self):
        observer = AvailabilityObserver()
        with pytest.raises(SimulationError, match="never began"):
            observer.finalize(10.0)

    def test_begin_twice_is_an_error(self):
        observer = AvailabilityObserver()
        cluster, _ = _stabilized_cluster()
        observer.begin(cluster, cluster.world.now())
        with pytest.raises(SimulationError, match="already began"):
            observer.begin(cluster, cluster.world.now())


class TestChaosScenario:
    def test_unknown_protocol_fails_fast(self):
        plan = build_plan("repeated-leader-kill", horizon_ms=10_000.0)
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            ChaosScenario(protocol="paxos", cluster_size=5, plan=plan)

    def test_run_is_deterministic_and_picklable(self):
        plan = build_plan("repeated-leader-kill", horizon_ms=30_000.0, seed=2)
        scenario = ChaosScenario(protocol="escape", cluster_size=5, plan=plan)
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario
        assert clone.run(seed=11) == scenario.run(seed=11)

    def test_measurement_carries_client_and_driver_bookkeeping(self):
        plan = build_plan("repeated-leader-kill", horizon_ms=40_000.0, seed=1)
        scenario = ChaosScenario(protocol="raft", cluster_size=5, plan=plan)
        measurement = scenario.run(seed=4)
        assert measurement.plan == "repeated-leader-kill"
        assert measurement.duration_ms == pytest.approx(plan.horizon_ms)
        assert measurement.disruption_count >= 1
        assert measurement.outage_count == len(measurement.leaderless_intervals)
        assert len(measurement.recovery_ms) == measurement.outage_count
        assert measurement.proposals_proposed > 0
        assert measurement.proposals_dropped > 0  # leaderless ticks were seen
        assert measurement.extra["committed_entries"] >= 0
        assert 0.0 < measurement.unavailability < 1.0

    def test_clients_resolve_every_op(self):
        plan = build_plan("repeated-leader-kill", horizon_ms=40_000.0, seed=1)
        scenario = ChaosScenario(protocol="raft", cluster_size=5, plan=plan)
        counters = scenario.with_telemetry().run(seed=4).extra["telemetry"][
            "counters"
        ]
        # finalize() resolved every proposed op: committed or lost at failover.
        assert counters["workload.committed"] > 0
        assert (
            counters["workload.committed"] + counters["workload.lost"]
            == counters["workload.proposed"]
        )

    def test_partition_outages_are_visible_at_the_client(self):
        plan = build_plan("partition-flap", horizon_ms=40_000.0, seed=1)
        scenario = ChaosScenario(protocol="raft", cluster_size=5, plan=plan)
        measurement = scenario.run(seed=3)
        # The workload's quorum-aware leader selector refuses the stale
        # isolated leader, so leaderless intervals drop client proposals.
        assert measurement.leaderless_ms > 0.0
        assert measurement.proposals_dropped > 0

    def test_workload_can_be_disabled(self):
        plan = build_plan("repeated-leader-kill", horizon_ms=20_000.0, seed=1)
        scenario = ChaosScenario(
            protocol="raft", cluster_size=5, plan=plan, workload_interval_ms=0.0
        )
        measurement = scenario.run(seed=4)
        assert measurement.proposals_proposed == 0
        assert measurement.proposals_dropped == 0
