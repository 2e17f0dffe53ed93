"""Integration tests: leader election end-to-end for every live protocol."""

import pytest

from repro import protocols
from repro.cluster import ElectionHarness, ElectionObserver, ElectionScenario, build_cluster
from repro.metrics.records import MeasurementSet
from repro.raft.state import Role
from repro.statemachine.kvstore import PutCommand

from helpers import LIVE_PROTOCOLS
from oracle import ENGINES

RUNS = 5


@pytest.mark.parametrize("protocol", LIVE_PROTOCOLS)
class TestSingleFailover:
    def test_cluster_elects_leader_and_survives_leader_crash(self, protocol):
        scenario = ElectionScenario(protocol=protocol, cluster_size=5)
        cluster, harness = scenario.build(seed=11)
        cluster.start_all()
        first_leader = harness.stabilize()
        measurement = harness.crash_leader_and_measure(seed=11)
        assert measurement.converged
        assert measurement.winner_id != first_leader
        assert cluster.leader_id() == measurement.winner_id
        harness.assert_at_most_one_leader_per_term()

    def test_exactly_one_leader_among_running_nodes(self, protocol):
        scenario = ElectionScenario(protocol=protocol, cluster_size=7)
        cluster, harness = scenario.build(seed=5)
        cluster.start_all()
        harness.stabilize()
        harness.crash_leader_and_measure(seed=5)
        leaders = [
            node for node in cluster.running_nodes() if node.role is Role.LEADER
        ]
        assert len(leaders) == 1

    def test_measurement_decomposition_is_consistent(self, protocol):
        scenario = ElectionScenario(protocol=protocol, cluster_size=5)
        measurement = scenario.run(seed=2)
        assert measurement.total_ms == pytest.approx(
            measurement.detection_ms + measurement.election_ms
        )
        assert measurement.detection_ms >= 1_000.0  # at least close to the base timeout
        assert measurement.campaign_count >= 1


class TestSuccessiveFailovers:
    @pytest.mark.parametrize("protocol", LIVE_PROTOCOLS)
    def test_cluster_survives_two_successive_leader_crashes(self, protocol):
        scenario = ElectionScenario(protocol=protocol, cluster_size=7)
        cluster, harness = scenario.build(seed=21)
        cluster.start_all()
        harness.stabilize()
        first = harness.crash_leader_and_measure(seed=21)
        assert first.converged
        harness.run_for(2_000.0)
        second = harness.crash_leader_and_measure(seed=22)
        assert second.converged
        assert second.winner_id not in (first.extra["crashed_leader"], first.winner_id) or (
            second.winner_id == first.winner_id is False
        )
        harness.assert_at_most_one_leader_per_term()
        # f = 3 for a 7-server cluster, so with two crashed servers a quorum remains.
        assert len(cluster.running_nodes()) == 5

    def test_escape_keeps_grooming_after_failover(self):
        scenario = ElectionScenario(protocol="escape", cluster_size=5)
        cluster, harness = scenario.build(seed=31)
        cluster.start_all()
        harness.stabilize()
        harness.crash_leader_and_measure(seed=31)
        harness.run_for(2_000.0)
        new_leader = cluster.leader()
        assert new_leader.patrol is not None
        # The new leader's patrol covers every peer (including the crashed one).
        assert set(new_leader.patrol.assignments) == set(new_leader.peers)


def _stabilized(protocol, size, engine):
    observer = ElectionObserver()
    cluster = build_cluster(
        protocol, size, seed=1, engine=engine, listeners=(observer,), trace=False
    )
    harness = ElectionHarness(cluster, observer)
    cluster.start_all()
    harness.stabilize()
    return cluster, harness


@pytest.mark.parametrize("engine", ENGINES, ids=lambda spec: spec.name)
class TestLeaderWithoutFollowers:
    """A one-node cluster: the leader's broadcasts reach nobody, so ESCAPE
    starts no patrol and piggybacks nothing, exactly as Raft does."""

    @pytest.mark.parametrize("protocol", protocols.names())
    def test_elects_itself_and_commits_alone(self, engine, protocol):
        cluster, harness = _stabilized(protocol, 1, engine)
        leader = cluster.leader()
        assert (leader.node_id, leader.current_term) == (1, 1)
        for index in range(3):
            leader.propose(PutCommand(f"k{index}", index))
        harness.run_for(1_000.0)
        assert leader.commit_index == leader.state_machine.applied_count == 3
        assert leader.state_machine.snapshot() == {"k0": 0, "k1": 1, "k2": 2}
        assert cluster.network.stats.sent == 0
        assert leader._hook_piggyback() is None
        assert getattr(leader, "patrol", None) is None


@pytest.mark.parametrize("engine", ENGINES, ids=lambda spec: spec.name)
class TestEveryEscapeLeaderWithFollowersPatrols:
    """The patrol starts before a leader's first heartbeat, so every ESCAPE
    leader that has a follower assigns it a configuration, and the follower
    holds exactly that object; after a failover the new leader does too."""

    @staticmethod
    def assert_patrolled(cluster):
        leader = cluster.leader()
        assignments = leader.patrol.assignments
        assert set(assignments) == set(leader.peers)
        for follower in cluster.running_nodes():
            if follower is not leader:
                assert follower.configuration is assignments[follower.node_id]
                assert follower.configuration.conf_clock == leader.patrol.conf_clock

    @pytest.mark.parametrize("size", (2, 3, 5, 8, 16))
    def test_the_followers_hold_the_patrols_assignment(self, engine, size):
        cluster, harness = _stabilized("escape", size, engine)
        harness.run_for(1_000.0)
        self.assert_patrolled(cluster)
        if size >= 3:  # a quorum survives the crash
            measurement = harness.crash_leader_and_measure(seed=1)
            assert measurement.converged
            harness.run_for(1_000.0)
            self.assert_patrolled(cluster)


class TestProtocolComparison:
    def test_escape_is_faster_than_raft_on_average(self):
        raft = MeasurementSet(
            ElectionScenario(protocol="raft", cluster_size=16).run_many(RUNS, base_seed=3)
        )
        escape = MeasurementSet(
            ElectionScenario(protocol="escape", cluster_size=16).run_many(RUNS, base_seed=3)
        )
        assert escape.mean_total_ms() < raft.mean_total_ms()

    def test_escape_never_splits_votes_without_faults(self):
        escape = MeasurementSet(
            ElectionScenario(protocol="escape", cluster_size=16).run_many(RUNS, base_seed=7)
        )
        assert escape.split_vote_fraction() == 0.0

    def test_escape_detection_is_close_to_base_timeout(self):
        # The groomed future leader holds the baseTime timeout (1500 ms); the
        # measured detection sits within one heartbeat below it and a small
        # margin above (crash lands inside a heartbeat interval).
        measurements = MeasurementSet(
            ElectionScenario(protocol="escape", cluster_size=8).run_many(RUNS, base_seed=13)
        )
        for detection in measurements.values(lambda m: m.detection_ms):
            assert 1_300.0 <= detection <= 1_750.0
