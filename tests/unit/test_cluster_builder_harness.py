"""Unit tests for the cluster builder, harness and workload."""

import pytest

from repro.cluster.builder import build_cluster
from repro.cluster.harness import ElectionHarness
from repro.cluster.observers import ElectionObserver
from repro.common.errors import ClusterError, ConfigurationError
from repro.escape.node import EscapeNode
from repro.raft.listeners import NodeListenerBase
from repro.raft.node import RaftNode
from repro.raft.state import Role
from repro.sim import engines
from repro.statemachine.kvstore import PutCommand
from repro.workload import WorkloadDriver, legacy_interval
from repro.zraft.node import ZRaftNode

from helpers import LIVE_PROTOCOLS, ConstantLatency, bootstrap_by_hand

FAST_LATENCY = ConstantLatency(5.0)


def build(protocol="escape", size=3, seed=0, **kwargs):
    observer = ElectionObserver()
    cluster = build_cluster(
        protocol=protocol,
        size=size,
        seed=seed,
        latency=kwargs.pop("latency", FAST_LATENCY),
        listeners=(observer,),
        **kwargs,
    )
    return cluster, ElectionHarness(cluster, observer)


class TestBuilder:
    def test_builds_requested_protocol_classes(self):
        for protocol, node_class in (
            ("raft", RaftNode),
            ("escape", EscapeNode),
            ("zraft", ZRaftNode),
        ):
            cluster, _ = build(protocol=protocol)
            assert all(type(node) is node_class for node in cluster.nodes.values())
            assert cluster.protocol == protocol

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            build_cluster(protocol="paxos", size=3)

    def test_nodes_are_registered_on_the_network(self):
        cluster, _ = build(size=5)
        assert cluster.network.members == (1, 2, 3, 4, 5)
        assert set(cluster.nodes) == {1, 2, 3, 4, 5}

    def test_node_lookup_and_errors(self):
        cluster, _ = build()
        assert cluster.node(2).node_id == 2
        with pytest.raises(ClusterError):
            cluster.node(99)

    def test_describe_mentions_every_node(self):
        cluster, _ = build(size=3)
        description = cluster.describe()
        assert description.count("S") >= 3


EVENTS = tuple(name for name in vars(NodeListenerBase) if name.startswith("on_"))


def _entered(node, listener):
    """The events *node* notifies *listener* of."""
    return {
        event
        for event, calls in node._listening.items()
        if any(getattr(call, "__self__", None) is listener for call in calls)
    }


class _Recorder(NodeListenerBase):
    """Records who notified it: the first argument of every hook it overrides."""

    def __init__(self):
        self.notifiers = []

    def on_vote_granted(self, voter_id, candidate_id, term, time_ms):
        self.notifiers.append(voter_id)

    def on_leader_elected(self, leader_id, term, votes, time_ms):
        self.notifiers.append(leader_id)


#: A listener that does not derive from NodeListenerBase: one method per hook.
_Duck = type("_Duck", (), dict.fromkeys(EVENTS, lambda self, *args: None))


class TestSharedListeners:
    """The builder enters its shared listeners once and hands every node its
    own copy of that table."""

    def test_a_listener_is_entered_under_what_it_overrides_on_every_node(self):
        recorder = _Recorder()
        cluster = build_cluster("escape", 5, listeners=(recorder,))
        nodes = cluster.nodes.values()
        assert all(
            _entered(node, recorder) == {"on_vote_granted", "on_leader_elected"}
            for node in nodes
        )
        assert len({id(node._listening) for node in nodes}) == len(nodes)

    def test_a_duck_typed_listener_is_entered_under_every_event(self):
        duck = _Duck()
        cluster = build_cluster("raft", 5, listeners=(duck,))
        assert all(_entered(node, duck) == set(EVENTS) for node in cluster.nodes.values())

    def test_add_listener_on_one_node_reaches_none_of_its_peers(self):
        late, observer = _Recorder(), ElectionObserver()
        cluster = build_cluster("escape", 5, seed=3, listeners=(observer,))
        cluster.node(1).add_listener(late)
        harness = ElectionHarness(cluster, observer)
        cluster.start_all()
        harness.stabilize()
        assert late.notifiers and set(late.notifiers) == {1}
        assert [i for i, node in cluster.nodes.items() if _entered(node, late)] == [1]

    def test_remove_listeners_on_one_node_leaves_the_others_notified(self):
        recorder, observer = _Recorder(), ElectionObserver()
        cluster = build_cluster("escape", 5, seed=3, listeners=(recorder, observer))
        cluster.node(1).remove_listeners()  # the lowest priority: never leads
        harness = ElectionHarness(cluster, observer)
        cluster.start_all()
        harness.stabilize()
        harness.crash_leader_and_measure()
        assert 1 not in recorder.notifiers
        assert len(set(recorder.notifiers)) >= 3


class TestLeadershipLifecycle:
    def test_stabilize_elects_exactly_one_leader(self):
        cluster, harness = build(size=5)
        cluster.start_all()
        leader_id = harness.stabilize()
        assert cluster.leader_id() == leader_id
        roles = [node.role for node in cluster.nodes.values()]
        assert roles.count(Role.LEADER) == 1

    def test_stabilize_times_out_when_nothing_can_happen(self):
        cluster, harness = build(size=3)
        # Nodes never started: no timers, no leader.
        with pytest.raises(ClusterError):
            harness.stabilize(max_time_ms=500.0)

    def test_crash_and_recover_round_trip(self):
        cluster, harness = build(size=3)
        cluster.start_all()
        leader_id = harness.stabilize()
        cluster.crash(leader_id)
        assert leader_id in cluster.crashed
        assert not cluster.node(leader_id).is_running
        cluster.recover(leader_id)
        assert leader_id not in cluster.crashed
        assert cluster.node(leader_id).is_running

    def test_crash_twice_rejected(self):
        cluster, harness = build(size=3)
        cluster.start_all()
        harness.stabilize()
        victim = cluster.leader_id()
        cluster.crash(victim)
        with pytest.raises(ClusterError):
            cluster.crash(victim)
        with pytest.raises(ClusterError):
            cluster.recover(99)

    def test_crash_leader_without_leader_rejected(self):
        cluster, _ = build(size=3)
        with pytest.raises(ClusterError):
            cluster.crash_leader()

    def test_crash_leader_and_measure_produces_consistent_measurement(self):
        cluster, harness = build(protocol="escape", size=5, seed=3)
        cluster.start_all()
        harness.stabilize()
        harness.run_for(500.0)
        measurement = harness.crash_leader_and_measure(seed=3)
        assert measurement.converged
        assert measurement.winner_id != measurement.extra["crashed_leader"]
        assert measurement.total_ms == pytest.approx(
            measurement.detection_ms + measurement.election_ms
        )
        assert measurement.detection_ms > 0
        assert measurement.protocol == "escape"
        assert measurement.cluster_size == 5

    def test_measurement_reports_non_convergence(self):
        cluster, harness = build(size=3)
        cluster.start_all()
        harness.stabilize()
        # Disconnect everyone else so no quorum can ever form.
        for node_id in list(cluster.nodes):
            if node_id != cluster.leader_id():
                cluster.network.disconnect(node_id)
        measurement = harness.crash_leader_and_measure(max_election_ms=3_000.0)
        assert not measurement.converged
        assert measurement.winner_id is None
        assert measurement.total_ms == 3_000.0


@pytest.mark.parametrize("engine", engines.names())
class TestWaitingOnInterruptsEqualsPollingEveryEvent:
    """The harness waits in ``run_until_interrupted`` and re-evaluates its
    predicate when the leader set changes; ``run_until_condition``, which
    polls after every event, is the reference it must return with: same
    simulated instant, same number of events executed.  The polled side
    bootstraps a fresh cluster as ``stabilize`` does, by hand."""

    @staticmethod
    def _pair(engine, **kwargs):
        """The same cluster twice: one for the harness, one for the poll."""
        return [build(engine=engine, trace=False, **kwargs) for _ in range(2)]

    @staticmethod
    def _position(cluster):
        scheduler = cluster.world.scheduler
        return cluster.world.now(), scheduler.executed_count, cluster.leader_id()

    @pytest.mark.parametrize("protocol", LIVE_PROTOCOLS)
    def test_stabilize_and_failover(self, engine, protocol):
        (waited, harness), (polled, _) = self._pair(
            engine, protocol=protocol, size=7, seed=11, latency=None
        )
        for cluster in (waited, polled):
            cluster.start_all()
        harness.stabilize()
        scheduler = polled.world.scheduler
        bootstrap_by_hand(polled)
        assert scheduler.run_until_condition(polled.has_leader, 60_000.0)
        assert self._position(waited) == self._position(polled)

        crashed = polled.crash_leader()
        deadline = polled.world.now() + 120_000.0
        assert scheduler.run_until_condition(
            lambda: polled.has_leader_other_than(crashed), deadline
        )
        measurement = harness.crash_leader_and_measure()
        assert measurement.converged
        assert measurement.extra["crashed_leader"] == crashed
        assert self._position(waited) == self._position(polled)

    def test_a_second_leader_while_the_excluded_one_is_still_tracked(self, engine):
        # The ambiguous case of has_leader_other_than: the old leader is cut
        # off, not crashed, so it stays a tracked leader while the majority
        # elects another; the predicate turns true on the highest term.
        positions = []
        for poll, (cluster, harness) in enumerate(self._pair(engine, size=5, seed=4)):
            cluster.start_all()
            old = harness.stabilize()
            others = [member for member in cluster.nodes if member != old]
            cluster.network.partitions.partition([old], others)
            deadline = cluster.world.now() + 60_000.0

            def elsewhere(cluster=cluster, old=old):
                return cluster.has_leader_other_than(old)

            if poll:
                assert cluster.world.scheduler.run_until_condition(elsewhere, deadline)
            else:
                assert harness._run_until(elsewhere, deadline)
            assert cluster.node(old).role is Role.LEADER
            assert cluster.leader_id() != old
            positions.append(self._position(cluster))
        assert positions[0] == positions[1]

    def test_a_budget_that_expires_with_no_leader(self, engine):
        (waited, harness), (polled, polled_harness) = self._pair(
            engine, size=3, seed=2, latency=None
        )
        for cluster in (waited, polled):
            cluster.start_all()
        # Too short for the bootstrap campaign's vote requests to arrive.
        with pytest.raises(ClusterError):
            harness.stabilize(max_time_ms=50.0)
        bootstrap_by_hand(polled)
        assert not polled.world.scheduler.run_until_condition(polled.has_leader, 50.0)
        assert self._position(waited) == self._position(polled) == (50.0, 0, None)

        # And a failover nobody can win: the followers cannot reach a quorum.
        for cluster, own_harness in ((waited, harness), (polled, polled_harness)):
            leader = own_harness.stabilize()
            for member in cluster.nodes:
                if member != leader:
                    cluster.network.disconnect(member)
        measurement = harness.crash_leader_and_measure(max_election_ms=3_000.0)
        crashed = polled.crash_leader()
        assert not polled.world.scheduler.run_until_condition(
            lambda: polled.has_leader_other_than(crashed), polled.world.now() + 3_000.0
        )
        assert not measurement.converged
        assert self._position(waited) == self._position(polled)


class TestClientPath:
    def test_propose_on_the_leader_and_replication(self):
        cluster, harness = build(size=3)
        cluster.start_all()
        harness.stabilize()
        index = cluster.leader().propose(PutCommand("x", 1))
        assert index == 1
        harness.run_for(500.0)
        leader = cluster.leader()
        assert leader.commit_index >= 1
        assert harness.committed_prefixes_consistent()

    def test_workload_proposes_periodically(self):
        cluster, harness = build(size=3)
        cluster.start_all()
        harness.stabilize()
        workload = WorkloadDriver(cluster, legacy_interval(50.0))
        workload.start()
        harness.run_for(1_000.0)
        workload.stop()
        proposed_after_stop = workload.proposed
        harness.run_for(500.0)
        assert workload.proposed == proposed_after_stop
        assert workload.proposed >= 15

    def test_workload_skips_when_no_leader(self):
        cluster, harness = build(size=3)
        cluster.start_all()
        workload = WorkloadDriver(cluster, legacy_interval(50.0))
        workload.start()
        # Run for a short window before any leader exists (election timeouts
        # in the default config are 1500+ ms).
        harness.run_for(300.0)
        assert workload.proposed == 0


class TestSafetyHelpers:
    def test_assert_at_most_one_leader_per_term_accepts_clean_history(self):
        cluster, harness = build(size=5)
        cluster.start_all()
        harness.stabilize()
        harness.crash_leader_and_measure()
        harness.assert_at_most_one_leader_per_term()

    def test_assert_detects_fabricated_violation(self):
        cluster, harness = build(size=3)
        harness.observer.on_leader_elected(1, term=5, votes=2, time_ms=10.0)
        harness.observer.on_leader_elected(2, term=5, votes=2, time_ms=20.0)
        with pytest.raises(ClusterError):
            harness.assert_at_most_one_leader_per_term()
