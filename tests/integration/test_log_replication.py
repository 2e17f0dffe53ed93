"""Integration tests: log replication and state-machine agreement."""

import pytest

from repro.cluster import ElectionHarness, ElectionObserver, build_cluster
from repro.statemachine.kvstore import KeyValueStore, PutCommand
from repro.workload import WorkloadDriver, legacy_interval

from helpers import AppendRegister, ConstantLatency


def build(protocol="escape", size=5, seed=1, state_machine=None):
    observer = ElectionObserver()
    cluster = build_cluster(
        protocol=protocol,
        size=size,
        seed=seed,
        latency=ConstantLatency(10.0),
        listeners=(observer,),
        trace=False,
    )
    if state_machine is not None:
        for node in cluster.nodes.values():
            node.state_machine = state_machine()
    harness = ElectionHarness(cluster, observer)
    cluster.start_all()
    harness.stabilize()
    return cluster, harness


@pytest.mark.parametrize("protocol", ["raft", "escape", "zraft"])
class TestReplication:
    def test_commands_replicate_to_every_running_node(self, protocol):
        cluster, harness = build(protocol=protocol)
        for index in range(5):
            cluster.leader().propose(PutCommand(f"key-{index}", index))
            harness.run_for(100.0)
        harness.run_for(1_000.0)
        logs = [node.log.last_index for node in cluster.running_nodes()]
        assert all(last_index == 5 for last_index in logs)
        commits = [node.commit_index for node in cluster.running_nodes()]
        assert all(commit == 5 for commit in commits)
        assert harness.committed_prefixes_consistent()

    def test_every_replica_applies_the_same_state(self, protocol):
        cluster, harness = build(protocol=protocol)
        cluster.leader().propose(PutCommand("a", 1))
        harness.run_for(500.0)
        cluster.leader().propose(PutCommand("a", 2))
        cluster.leader().propose(PutCommand("b", "x"))
        harness.run_for(1_500.0)
        snapshots = [
            node.state_machine.snapshot()
            for node in cluster.running_nodes()
            if isinstance(node.state_machine, KeyValueStore)
        ]
        assert snapshots
        assert all(snapshot == {"a": 2, "b": "x"} for snapshot in snapshots)


class TestReplicationUnderFailover:
    def test_committed_entries_survive_a_leader_crash(self):
        cluster, harness = build(protocol="escape")
        index = cluster.leader().propose(PutCommand("durable", "yes"))
        harness.run_for(1_000.0)
        assert cluster.leader().commit_index >= index
        harness.crash_leader_and_measure(seed=1)
        harness.run_for(1_000.0)
        new_leader = cluster.leader()
        assert new_leader.log.has_entry(index)
        assert new_leader.commit_index >= index
        assert new_leader.state_machine.get("durable") == "yes"
        harness.assert_at_most_one_leader_per_term()

    def test_new_leader_accepts_new_writes_after_failover(self):
        cluster, harness = build(protocol="raft")
        cluster.leader().propose(PutCommand("before", 1))
        harness.run_for(1_000.0)
        harness.crash_leader_and_measure(seed=2)
        cluster.leader().propose(PutCommand("after", 2))
        harness.run_for(1_500.0)
        for node in cluster.running_nodes():
            assert node.state_machine.get("before") == 1
            assert node.state_machine.get("after") == 2

    def test_workload_keeps_replicating_across_failover(self):
        cluster, harness = build(protocol="escape", size=5, seed=9)
        workload = WorkloadDriver(cluster, legacy_interval(50.0), seed=9)
        workload.start()
        harness.run_for(1_000.0)
        harness.crash_leader_and_measure(seed=9)
        harness.run_for(2_000.0)
        workload.stop()
        assert workload.proposed > 10
        assert harness.committed_prefixes_consistent()


class TestOrderingGuarantees:
    def test_all_replicas_apply_commands_in_the_same_order(self):
        cluster, harness = build(protocol="escape", state_machine=AppendRegister)
        for value in ("a", "b", "c", "d"):
            cluster.leader().propose(value)
            harness.run_for(50.0)
        harness.run_for(1_500.0)
        histories = [node.state_machine.history for node in cluster.running_nodes()]
        assert all(history == ["a", "b", "c", "d"] for history in histories)
