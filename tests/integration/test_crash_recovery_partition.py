"""Integration tests: crash/recovery of followers and leaders, and partitions."""

import pytest

from repro.cluster import ElectionHarness, ElectionObserver, build_cluster
from repro.escape.node import EscapeNode
from repro.raft.state import Role
from repro.statemachine.kvstore import PutCommand

from helpers import ConstantLatency


def build(protocol="escape", size=5, seed=1):
    observer = ElectionObserver()
    cluster = build_cluster(
        protocol=protocol,
        size=size,
        seed=seed,
        latency=ConstantLatency(10.0),
        listeners=(observer,),
        trace=False,
    )
    harness = ElectionHarness(cluster, observer)
    cluster.start_all()
    harness.stabilize()
    return cluster, harness


class TestFollowerCrashRecovery:
    @pytest.mark.parametrize("protocol", ["raft", "escape"])
    def test_recovered_follower_catches_up(self, protocol):
        cluster, harness = build(protocol=protocol)
        victim = next(
            node.node_id
            for node in cluster.running_nodes()
            if node.role is Role.FOLLOWER
        )
        cluster.crash(victim)
        for index in range(3):
            cluster.leader().propose(PutCommand(f"k{index}", index))
            harness.run_for(100.0)
        harness.run_for(500.0)
        cluster.recover(victim)
        harness.run_for(2_000.0)
        recovered = cluster.node(victim)
        assert recovered.log.last_index == 3
        assert recovered.commit_index == 3
        assert recovered.role is Role.FOLLOWER

    def test_minority_of_follower_crashes_does_not_disturb_leadership(self):
        cluster, harness = build(protocol="escape", size=7)
        leader_before = cluster.leader_id()
        followers = [
            node.node_id
            for node in cluster.running_nodes()
            if node.role is Role.FOLLOWER
        ]
        for victim in followers[:3]:  # f = 3 for n = 7
            cluster.crash(victim)
        harness.run_for(5_000.0)
        assert cluster.leader_id() == leader_before

    def test_recovered_escape_follower_gets_a_fresh_configuration(self):
        cluster, harness = build(protocol="escape")
        victim = next(
            node.node_id
            for node in cluster.running_nodes()
            if node.role is Role.FOLLOWER
        )
        victim_node = cluster.node(victim)
        assert isinstance(victim_node, EscapeNode)
        cluster.crash(victim)
        harness.run_for(2_000.0)  # the patrol demotes the silent follower
        stale_clock = victim_node.configuration.conf_clock
        cluster.recover(victim)
        harness.run_for(2_000.0)  # heartbeats re-issue a configuration
        assert victim_node.configuration.conf_clock >= stale_clock
        assert victim_node.configuration_updates >= 1


class TestLeaderCrashRecovery:
    @pytest.mark.parametrize("protocol", ["raft", "escape"])
    def test_old_leader_rejoins_as_follower(self, protocol):
        cluster, harness = build(protocol=protocol)
        old_leader = cluster.leader_id()
        measurement = harness.crash_leader_and_measure(seed=1)
        assert measurement.converged
        cluster.recover(old_leader)
        harness.run_for(3_000.0)
        rejoined = cluster.node(old_leader)
        assert rejoined.role is Role.FOLLOWER
        assert rejoined.leader_id == cluster.leader_id()
        harness.assert_at_most_one_leader_per_term()

    def test_recovered_escape_leader_with_stale_clock_does_not_retake_leadership(self):
        cluster, harness = build(protocol="escape")
        old_leader = cluster.leader_id()
        harness.crash_leader_and_measure(seed=3)
        new_leader = cluster.leader_id()
        cluster.recover(old_leader)
        harness.run_for(4_000.0)
        assert cluster.leader_id() == new_leader
        harness.assert_at_most_one_leader_per_term()


class TestPartitions:
    def test_leader_in_majority_partition_keeps_working(self):
        cluster, harness = build(protocol="escape", size=5)
        leader_id = cluster.leader_id()
        minority = [
            node.node_id for node in cluster.running_nodes() if node.node_id != leader_id
        ][:2]
        majority = [
            node_id for node_id in cluster.nodes if node_id not in minority
        ]
        cluster.network.partitions.partition(majority, minority)
        index = cluster.leader().propose(PutCommand("partitioned", 1))
        harness.run_for(2_000.0)
        assert cluster.leader().commit_index >= index

    def test_minority_partition_cannot_elect_a_leader(self):
        cluster, harness = build(protocol="raft", size=5)
        leader_id = cluster.leader_id()
        followers = [
            node.node_id for node in cluster.running_nodes() if node.node_id != leader_id
        ]
        minority = followers[:2]
        majority = [n for n in cluster.nodes if n not in minority]
        cluster.network.partitions.partition(majority, minority)
        harness.run_for(10_000.0)
        minority_leaders = [
            node_id
            for node_id in minority
            if cluster.node(node_id).role is Role.LEADER
        ]
        assert minority_leaders == []
        harness.assert_at_most_one_leader_per_term()

    def test_cluster_reconverges_after_partition_heals(self):
        cluster, harness = build(protocol="escape", size=5)
        leader_id = cluster.leader_id()
        others = [n for n in cluster.nodes if n != leader_id]
        # Cut the leader away from everyone: the majority side elects a new one.
        cluster.network.partitions.partition([leader_id], others)
        harness.run_for(8_000.0)
        majority_leader = max(
            (cluster.node(n) for n in others), key=lambda node: node.current_term
        )
        assert any(cluster.node(n).role is Role.LEADER for n in others)
        cluster.network.partitions.heal()
        harness.run_for(3_000.0)
        # The isolated old leader steps down once it hears the higher term.
        assert cluster.node(leader_id).role is Role.FOLLOWER
        harness.assert_at_most_one_leader_per_term()
        assert harness.committed_prefixes_consistent()
        assert majority_leader.current_term >= 1
