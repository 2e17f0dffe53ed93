"""The bootstrap campaign: a fresh cluster's first leader, uncontested.

``ElectionHarness.stabilize`` makes the node whose first election-timeout
wait is shortest (the lowest id on a tie) fire that timeout at once; every
other node keeps its wait.  These tests pin what that promises, on ``flat``
and on the ``classic`` oracle: one campaign and no split vote for every
registered protocol; the tie rule; for the protocols whose first waits are
fixed by configuration, the leader and term a natural cold start (every node
started by hand, nothing fired early) elects; and for the ESCAPE family at
loss 0, the failover a natural cold start would have measured.
"""

from __future__ import annotations

import pytest

from repro import protocols
from repro.cluster.builder import build_cluster
from repro.cluster.harness import ElectionHarness
from repro.cluster.observers import ElectionObserver
from repro.cluster.scenarios import ElectionScenario
from repro.common.errors import ProtocolError
from repro.common.rng import SeedSequence

from oracle import ENGINES

#: Protocols whose first waits are fixed by configuration (Eq. 1 ladders).
CONFIGURED_WAITS = ("escape", "zraft", "raft-stagger")

#: The ESCAPE family: priority-driven term growth on top of the ladder.
ESCAPE_FAMILY = ("escape", "zraft")


def _fresh(protocol, size, seed, engine, **kwargs):
    observer = ElectionObserver()
    cluster = build_cluster(
        protocol, size, seed=seed, listeners=(observer,), engine=engine, **kwargs
    )
    cluster.start_all()
    return cluster, ElectionHarness(cluster, observer), observer


def _natural_cold_start(cluster, max_time_ms=120_000.0):
    """Run the started cluster until a leader emerges, nothing fired early."""
    assert cluster.world.scheduler.run_until_condition(cluster.has_leader, max_time_ms)
    return cluster.leader()


@pytest.mark.parametrize("engine", ENGINES, ids=lambda spec: spec.name)
class TestOneUncontestedCampaign:
    @pytest.mark.parametrize("protocol", protocols.names())
    @pytest.mark.parametrize("size", (3, 8, 33))
    def test_every_protocol_bootstraps_in_one_campaign(self, engine, protocol, size):
        for seed in range(3):
            cluster, harness, observer = _fresh(protocol, size, seed, engine)
            leader_id = harness.stabilize()
            assert [(event.time_ms, event.node_id) for event in observer.timeouts] == [
                (0.0, leader_id)
            ]
            (campaign,) = observer.campaigns
            assert (campaign.time_ms, campaign.node_id) == (0.0, leader_id)
            (elected,) = observer.leaders
            assert (elected.leader_id, elected.term) == (leader_id, campaign.term)
            assert not observer.split_vote_occurred_after(-1.0)
            cluster.close()

    @pytest.mark.parametrize("protocol", ("raft", "raft-fixed"))
    def test_the_campaigner_is_the_first_timer_to_expire(self, engine, protocol):
        for seed in range(5):
            bootstrapped, harness, _ = _fresh(protocol, 8, seed, engine)
            waits = {
                node.node_id: node.first_election_wait_ms
                for node in bootstrapped.nodes.values()
            }
            leader_id = harness.stabilize()
            natural, _, observer = _fresh(protocol, 8, seed, engine)
            natural.world.scheduler.run_until_condition(
                lambda: bool(observer.timeouts), 60_000.0
            )
            first = observer.timeouts[0]
            assert first.node_id == leader_id
            assert first.time_ms == waits[leader_id] == min(waits.values())

    def test_a_bootstrapped_cluster_is_not_bootstrapped_again(self, engine):
        cluster, harness, observer = _fresh("raft", 5, 1, engine)
        leader_id = harness.stabilize()
        harness.run_for(1_000.0)
        assert harness.stabilize() == leader_id
        cluster.crash_leader()
        crash_ms = cluster.world.now()
        # A cluster that has campaigned waits for its own timeouts: none
        # fires before a whole wait (>= 1,500 ms) since the last heartbeat.
        second = harness.stabilize()
        assert second != leader_id
        after_crash = [e.time_ms for e in observer.timeouts if e.time_ms >= crash_ms]
        assert min(after_crash) - crash_ms > 1_000.0

    def test_a_stopped_node_cannot_fire_its_timeout(self, engine):
        cluster, _, _ = _fresh("raft", 3, 0, engine)
        cluster.crash(1)
        with pytest.raises(ProtocolError, match="not running"):
            cluster.node(1).expire_election_timer()


@pytest.mark.parametrize("engine", ENGINES, ids=lambda spec: spec.name)
class TestTiesGoToTheLowestId:
    def test_raft_fixed_every_wait_ties(self, engine):
        cluster, harness, _ = _fresh("raft-fixed", 5, 3, engine)
        assert {node.first_election_wait_ms for node in cluster.nodes.values()} == {
            2250.0
        }
        assert harness.stabilize() == 1

    @pytest.mark.parametrize("protocol", protocols.names())
    def test_a_shared_script_makes_every_wait_tie(self, engine, protocol):
        _, harness, observer = _fresh(
            protocol, 5, 2, engine, timeout_script=(1_800.0, 1_800.0)
        )
        assert harness.stabilize() == 1
        assert len(observer.campaigns) == 1

    def test_the_lowest_id_among_the_running_nodes(self, engine):
        cluster, harness, _ = _fresh("raft-fixed", 5, 3, engine)
        cluster.crash(1)
        assert harness.stabilize() == 2


@pytest.mark.parametrize("engine", ENGINES, ids=lambda spec: spec.name)
class TestSameLeaderAsANaturalColdStart:
    @pytest.mark.parametrize("protocol", CONFIGURED_WAITS)
    @pytest.mark.parametrize("size", (3, 8, 32))
    def test_same_leader_in_the_same_term(self, engine, protocol, size):
        for seed in range(3):
            bootstrapped, harness, _ = _fresh(protocol, size, seed, engine)
            harness.stabilize()
            natural, _, _ = _fresh(protocol, size, seed, engine)
            leader = _natural_cold_start(natural)
            # The natural leader is elected a whole first wait later.
            assert natural.world.now() > bootstrapped.world.now()
            assert (leader.node_id, leader.current_term) == (
                bootstrapped.leader_id(),
                bootstrapped.leader().current_term,
            )


def _natural_episode(scenario, seed):
    """``ElectionScenario.run(seed)`` with the first leader left to the
    natural cold start: the measurement the harness took before it
    bootstrapped."""
    cluster, harness = scenario.build(seed)
    cluster.start_all()
    _natural_cold_start(cluster, scenario.stabilize_ms)
    harness.run_for(scenario.pre_crash_ms)
    harness.run_for(
        SeedSequence(seed).stream("scenario", "crash").uniform(
            0.0, scenario.heartbeat_interval_ms
        )
    )
    measurement = harness.crash_leader_and_measure(
        max_election_ms=scenario.max_election_ms, seed=seed
    )
    cluster.close()
    return measurement


@pytest.mark.parametrize("engine", ENGINES, ids=lambda spec: spec.name)
class TestEscapeFamilyFailoverOnlyShiftsInTime:
    """At loss 0 an ESCAPE-family failover after the bootstrap is the one a
    natural cold start leads to, moved earlier in time: same winner, crashed
    leader, campaign count and split-vote flag, and the same outage up to
    float rounding."""

    @pytest.mark.parametrize("protocol", ESCAPE_FAMILY)
    @pytest.mark.parametrize("size", (8, 32))
    def test_same_failover(self, engine, protocol, size):
        scenario = ElectionScenario(protocol, size, engine=engine)
        for seed in range(10):
            natural = _natural_episode(scenario, seed)
            measured = scenario.run(seed)
            assert measured.crash_time_ms < natural.crash_time_ms
            assert (
                measured.winner_id,
                measured.winner_term,
                measured.extra["crashed_leader"],
                measured.campaign_count,
                measured.split_vote,
                measured.converged,
            ) == (
                natural.winner_id,
                natural.winner_term,
                natural.extra["crashed_leader"],
                natural.campaign_count,
                natural.split_vote,
                natural.converged,
            )
            assert measured.total_ms == pytest.approx(natural.total_ms, abs=1e-6)
            assert measured.detection_ms == pytest.approx(natural.detection_ms, abs=1e-6)
