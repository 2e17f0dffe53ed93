"""Integration tests: message duplication and repeated crash/recover churn."""

import random

import pytest

from repro.cluster import ElectionHarness, ElectionObserver, build_cluster
from repro.net.faults import (
    BroadcastOmissionFault,
    CompositeFault,
    MessageDuplicationFault,
)
from repro.raft.state import Role
from repro.statemachine.kvstore import PutCommand

from helpers import ConstantLatency


def build(protocol="escape", size=5, seed=1, fault=None):
    observer = ElectionObserver()
    cluster = build_cluster(
        protocol=protocol,
        size=size,
        seed=seed,
        latency=ConstantLatency(10.0),
        fault=fault,
        listeners=(observer,),
        trace=False,
    )
    harness = ElectionHarness(cluster, observer)
    cluster.start_all()
    harness.stabilize()
    return cluster, harness


class TestMessageDuplication:
    def test_duplication_fault_injects_extra_deliveries(self):
        cluster, harness = build(fault=MessageDuplicationFault(rate=0.5))
        harness.run_for(2_000.0)
        assert cluster.network.stats.duplicated > 0
        assert cluster.network.stats.delivered > cluster.network.stats.sent * 0.9

    @pytest.mark.parametrize("protocol", ["raft", "escape"])
    def test_duplicated_rpcs_do_not_break_safety_or_replication(self, protocol):
        cluster, harness = build(protocol=protocol, fault=MessageDuplicationFault(rate=0.5))
        for index in range(4):
            cluster.leader().propose(PutCommand(f"k{index}", index))
            harness.run_for(100.0)
        harness.run_for(1_000.0)
        harness.crash_leader_and_measure(seed=1)
        harness.run_for(1_000.0)
        harness.assert_at_most_one_leader_per_term()
        assert harness.committed_prefixes_consistent()
        # Every running node applied each committed command exactly once.
        for node in cluster.running_nodes():
            assert node.state_machine.applied_count == node.commit_index

    def test_duplication_does_not_cause_split_votes_in_escape(self):
        cluster, harness = build(protocol="escape", fault=MessageDuplicationFault(rate=0.8))
        measurement = harness.crash_leader_and_measure(seed=2)
        assert measurement.converged
        assert not measurement.split_vote

    def test_duplication_survives_composition_with_loss(self):
        # Regression: CompositeFault used to swallow should_duplicate, so a
        # duplication fault wrapped with a loss model was silently disabled.
        fault = CompositeFault(
            injectors=(BroadcastOmissionFault(0.2), MessageDuplicationFault(0.1))
        )
        cluster, harness = build(protocol="escape", fault=fault)
        harness.run_for(3_000.0)
        stats = cluster.network.stats
        assert stats.duplicated > 0
        assert stats.dropped_by_fault > 0  # the omission half keeps working
        measurement = harness.crash_leader_and_measure(seed=3)
        assert measurement.converged
        harness.assert_at_most_one_leader_per_term()


class TestChurn:
    def test_cluster_survives_repeated_random_crash_recover_cycles(self):
        cluster, harness = build(protocol="escape", size=7, seed=13)
        rng = random.Random(13)
        for cycle in range(6):
            running = [node.node_id for node in cluster.running_nodes()]
            victim = rng.choice(running)
            cluster.crash(victim)
            harness.run_for(3_000.0)
            # A quorum (>= 4 of 7) is always alive, so a leader must exist or
            # re-emerge within a few election timeouts.
            assert len(cluster.running_nodes()) >= 6
            assert harness.cluster.world.scheduler.run_until_condition(
                cluster.has_leader, max_time_ms=cluster.world.now() + 30_000.0
            )
            cluster.recover(victim)
            harness.run_for(1_000.0)
        harness.assert_at_most_one_leader_per_term()
        assert harness.committed_prefixes_consistent()

    def test_escape_keeps_electing_within_bounds_under_churn(self):
        cluster, harness = build(protocol="escape", size=7, seed=17)
        totals = []
        for round_index in range(3):
            harness.run_for(2_000.0)
            measurement = harness.crash_leader_and_measure(seed=round_index)
            assert measurement.converged
            totals.append(measurement.total_ms)
            crashed = measurement.extra["crashed_leader"]
            cluster.recover(crashed)
        # Every failover, including later ones with previously crashed servers
        # back as followers, finishes within a few seconds.
        assert all(total < 8_000.0 for total in totals)
        harness.assert_at_most_one_leader_per_term()
