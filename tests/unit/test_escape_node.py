"""Unit tests for the ESCAPE node (SCA term growth, PPF piggyback, clock gate)."""

import pytest
from helpers import FakeEnvironment, SentMessage, fast_protocol_config, small_cluster

from repro.escape.configuration import Configuration
from repro.escape.messages import (
    EscapeAppendEntriesRequest,
    EscapeAppendEntriesResponse,
    EscapeRequestVoteRequest,
)
from repro.escape.node import EscapeNode
from repro.raft.messages import RequestVoteResponse
from repro.raft.state import Role
from repro.storage.log import LogEntry


def make_node(node_id=1, size=5, configuration=None, **kwargs):
    env = FakeEnvironment(
        node_id=node_id, trace_enabled=kwargs.pop("trace_enabled", True)
    )
    node = EscapeNode(
        node_id=node_id,
        cluster=small_cluster(size),
        env=env,
        protocol_config=kwargs.pop("protocol_config", fast_protocol_config()),
        initial_configuration=configuration,
        **kwargs,
    )
    return node, env


def make_leader(node_id=5, size=5, **kwargs):
    node, env = make_node(node_id=node_id, size=size, **kwargs)
    node.start()
    env.fire_next_timer(f"S{node_id}:election-timeout")
    for peer in node.peers:
        node.on_message(
            peer,
            RequestVoteResponse(term=node.current_term, voter_id=peer, vote_granted=True),
        )
        if node.role is Role.LEADER:
            break
    assert node.role is Role.LEADER
    env.clear_sent()
    return node, env


class TestScaBehaviour:
    def test_initial_configuration_derived_from_server_id(self):
        node, _ = make_node(node_id=3, size=5)
        # fast_protocol_config: base 100ms, k 20ms -> S3 in a 5-cluster: 100 + 20*2.
        assert node.configuration.priority == 3
        assert node.configuration.timer_period_ms == 140.0
        assert node.configuration.conf_clock == 0

    def test_the_timeout_is_node_state(self):
        node, _ = make_node(node_id=3, size=5)
        assert node._own_timeout_ms == node.configuration.timer_period_ms == 140.0

    def test_election_timeout_comes_from_configuration(self):
        node, env = make_node(node_id=2, size=5)
        node.start()
        timer = env.pending_timers()[0]
        assert timer.delay_ms == node.configuration.timer_period_ms

    def test_term_grows_by_priority_on_campaign(self):
        # Eq. 2: a server with priority P campaigning from term t moves to t + P.
        node, env = make_node(node_id=4, size=5)
        node.start()
        env.fire_next_timer("S4:election-timeout")
        assert node.current_term == 4
        env.fire_next_timer("S4:election-timeout")
        assert node.current_term == 8

    def test_higher_term_messages_adopted_verbatim(self):
        # Eq. 3: the term jumps to the received value regardless of priority.
        node, env = make_node(node_id=2, size=5)
        node.start()
        node.on_message(
            3,
            EscapeRequestVoteRequest(term=41, candidate_id=3, conf_clock=0, priority=3),
        )
        assert node.current_term == 41

    def test_vote_request_carries_configuration_metadata(self):
        configuration = Configuration(priority=4, timer_period_ms=120.0, conf_clock=6)
        node, env = make_node(node_id=4, size=5, configuration=configuration)
        node.start()
        env.fire_next_timer("S4:election-timeout")
        request = env.sent_payloads(EscapeRequestVoteRequest)[0]
        assert request.conf_clock == 6
        assert request.priority == 4

    def test_timeout_script_takes_precedence_then_expires(self):
        node, env = make_node(node_id=2, size=5, timeout_script=(77.0,))
        node.start()
        assert env.pending_timers()[0].delay_ms == 77.0
        env.fire_next_timer("S2:election-timeout")
        # Second wait (attempt 1) falls back to the configuration timeout.
        timers = env.pending_timers()
        assert any(t.delay_ms == node.configuration.timer_period_ms for t in timers)


class TestConfigurationClockVoteGate:
    def test_rejects_candidate_with_stale_clock(self):
        configuration = Configuration(priority=2, timer_period_ms=150.0, conf_clock=5)
        node, env = make_node(node_id=2, size=5, configuration=configuration)
        node.start()
        node.on_message(
            3,
            EscapeRequestVoteRequest(term=10, candidate_id=3, conf_clock=3, priority=3),
        )
        response = env.sent_to(3)[0]
        assert not response.vote_granted
        # The clock gate refuses in the candidate's own term, as an ordinary
        # send: the candidate records the refusal and stops asking this voter.
        assert response.term == 10
        assert env.sent == [SentMessage(3, response)]

    def test_grants_candidate_with_equal_or_newer_clock(self):
        configuration = Configuration(priority=2, timer_period_ms=150.0, conf_clock=5)
        node, env = make_node(node_id=2, size=5, configuration=configuration)
        node.start()
        node.on_message(
            3,
            EscapeRequestVoteRequest(term=10, candidate_id=3, conf_clock=5, priority=3),
        )
        assert env.sent_to(3)[0].vote_granted

    def test_plain_raft_candidates_are_not_gated(self):
        # Lemma 2: an ESCAPE voter cannot distinguish a Raft campaign; mixed
        # clusters therefore remain live.
        from repro.raft.messages import RequestVoteRequest

        node, env = make_node(node_id=2, size=5)
        node.start()
        node.on_message(3, RequestVoteRequest(term=2, candidate_id=3))
        assert env.sent_to(3)[0].vote_granted


class TestPpfOnLeader:
    def test_leader_creates_patrol_with_dominating_clock(self):
        node, env = make_leader(node_id=5, size=5)
        assert node.patrol is not None
        assert node.patrol.conf_clock >= node.configuration.conf_clock + 1

    def test_heartbeats_piggyback_configurations(self):
        node, env = make_leader(node_id=5, size=5)
        env.fire_next_timer("S5:heartbeat")
        requests = env.sent_payloads(EscapeAppendEntriesRequest)
        assert len(requests) == 4
        assert all(request.new_config is not None for request in requests)
        priorities = {request.new_config.priority for request in requests}
        assert priorities == {2, 3, 4, 5}

    def test_idle_heartbeats_resend_one_object_until_something_changes(self):
        node, env = make_leader(node_id=5, size=5)
        env.fire_next_timer("S5:heartbeat")
        env.fire_next_timer("S5:heartbeat")
        first, second = env.sent_to(2)
        assert first is second
        # A longer log: a new request, carrying the same configuration object.
        node.propose("x")
        third = env.sent_to(2)[-1]
        assert third is not second
        assert third.entries and third.new_config is second.new_config

    def test_follower_replies_feed_the_patrol(self):
        node, env = make_leader(node_id=5, size=5)
        reply = EscapeAppendEntriesResponse(
            term=node.current_term,
            follower_id=2,
            success=True,
            match_index=0,
            log_index=3,
            configuration=Configuration(priority=2, timer_period_ms=160.0),
        )
        node.on_message(2, reply)
        record = node.patrol.responsiveness_of(2)
        assert record.last_reply_ms is not None
        # The reply's log index, not its match index, is what the patrol records.
        assert record.log_index == 3

    def test_plain_raft_replies_also_feed_the_patrol(self):
        from repro.raft.messages import AppendEntriesResponse

        node, env = make_leader(node_id=5, size=5)
        node.on_message(
            3,
            AppendEntriesResponse(
                term=node.current_term, follower_id=3, success=True, match_index=4
            ),
        )
        assert node.patrol.responsiveness_of(3).log_index == 4

    def test_single_node_cluster_has_no_patrol(self):
        env = FakeEnvironment(node_id=1)
        node = EscapeNode(
            node_id=1,
            cluster=small_cluster(1),
            env=env,
            protocol_config=fast_protocol_config(),
        )
        node.start()
        env.fire_next_timer("S1:election-timeout")
        assert node.role is Role.LEADER
        assert node.patrol is None


class TestTraceSitesFollowTheTracer:
    SITES = {"ppf.start", "ppf.rearrange", "config.update"}

    def leader_round_traces(self, trace_enabled):
        leader, leader_env = make_leader(node_id=5, size=5, trace_enabled=trace_enabled)
        leader_env.fire_next_timer("S5:heartbeat")
        follower, follower_env = make_node(node_id=2, size=5, trace_enabled=trace_enabled)
        follower.start()
        follower.on_message(5, leader_env.sent_to(2)[-1])
        assert follower.configuration_updates == 1
        return leader_env.traces + follower_env.traces

    def test_sites_report_when_tracing_is_on(self):
        traces = self.leader_round_traces(trace_enabled=True)
        assert ("ppf.start", {"conf_clock": 1, "leader_priority": 5}) in traces
        assert (
            "ppf.rearrange",
            {"conf_clock": 1, "future_leader": 1, "assignment": {1: 5, 2: 4, 3: 3, 4: 2}},
        ) in traces
        assert (
            "config.update",
            {"old": "π(P=2, k=0, timeout=160ms)", "new": "π(P=4, k=1, timeout=120ms)"},
        ) in traces

    def test_sites_build_nothing_when_tracing_is_off(self):
        traces = self.leader_round_traces(trace_enabled=False)
        assert not self.SITES & {category for category, _ in traces}


class TestPpfOnFollower:
    def test_follower_adopts_configuration_from_heartbeat(self):
        node, env = make_node(node_id=2, size=5)
        node.start()
        new_config = Configuration(priority=5, timer_period_ms=100.0, conf_clock=3)
        node.on_message(
            1,
            EscapeAppendEntriesRequest(term=1, leader_id=1, new_config=new_config),
        )
        assert node.configuration == new_config
        assert node.configuration_updates == 1

    def test_new_configuration_applies_to_next_timeout(self):
        node, env = make_node(node_id=2, size=5)
        node.start()
        new_config = Configuration(priority=5, timer_period_ms=100.0, conf_clock=3)
        node.on_message(
            1,
            EscapeAppendEntriesRequest(term=1, leader_id=1, new_config=new_config),
        )
        rearmed = [
            timer
            for timer in env.pending_timers()
            if timer.label == "S2:election-timeout"
        ]
        assert rearmed and rearmed[-1].delay_ms == 100.0

    def test_stale_configuration_is_not_adopted(self):
        configuration = Configuration(priority=4, timer_period_ms=120.0, conf_clock=7)
        node, env = make_node(node_id=2, size=5, configuration=configuration)
        node.start()
        stale = Configuration(priority=5, timer_period_ms=100.0, conf_clock=3)
        node.on_message(
            1, EscapeAppendEntriesRequest(term=1, leader_id=1, new_config=stale)
        )
        assert node.configuration == configuration

    def assert_adoption_refused(self, node, env, held, offered):
        env.traces.clear()
        node.on_message(1, EscapeAppendEntriesRequest(term=1, leader_id=1, new_config=offered))
        assert node.configuration is held
        assert node.configuration_updates == 0
        assert "config.update" not in {category for category, _ in env.traces}
        rearmed = [
            timer for timer in env.pending_timers() if timer.label == "S2:election-timeout"
        ]
        assert rearmed[-1].delay_ms == held.timer_period_ms
        assert env.sent_to(1)[-1].configuration is held

    def test_an_equal_configuration_in_a_new_object_changes_nothing(self):
        held = Configuration(priority=4, timer_period_ms=120.0, conf_clock=7)
        node, env = make_node(node_id=2, size=5, configuration=held)
        node.start()
        twin = Configuration(priority=4, timer_period_ms=120.0, conf_clock=7)
        assert twin == held and twin is not held
        self.assert_adoption_refused(node, env, held, twin)

    def test_an_older_clock_changes_nothing_even_at_a_higher_priority(self):
        held = Configuration(priority=2, timer_period_ms=160.0, conf_clock=7)
        node, env = make_node(node_id=2, size=5, configuration=held)
        node.start()
        older = Configuration(priority=5, timer_period_ms=100.0, conf_clock=6)
        self.assert_adoption_refused(node, env, held, older)

    def test_heartbeat_without_configuration_changes_nothing(self):
        node, env = make_node(node_id=2, size=5)
        node.start()
        before = node.configuration
        node.on_message(1, EscapeAppendEntriesRequest(term=1, leader_id=1))
        assert node.configuration == before

    def test_reply_reports_config_status(self):
        node, env = make_node(node_id=2, size=5)
        store = node.store
        node.start()
        node.log.append_entry(LogEntry(term=0, index=1, command="x"))
        node.on_message(1, EscapeAppendEntriesRequest(term=1, leader_id=1, prev_log_index=1, prev_log_term=0))
        reply = env.sent_to(1)[0]
        assert isinstance(reply, EscapeAppendEntriesResponse)
        assert reply.log_index == 1
        # The held configuration itself: its timer period and clock are the
        # other two values of the paper's configStatus.
        assert reply.configuration is node.configuration

    def test_idle_replies_are_one_object_until_the_status_changes(self):
        node, env = make_node(node_id=2, size=5)
        node.start()
        heartbeat = EscapeAppendEntriesRequest(term=1, leader_id=1)
        node.on_message(1, heartbeat)
        node.on_message(1, heartbeat)
        first, second = env.sent_to(1)
        assert first is second
        # A new configuration, then a longer log: each shows in the very next reply.
        new_config = Configuration(priority=5, timer_period_ms=100.0, conf_clock=3)
        node.on_message(
            1, EscapeAppendEntriesRequest(term=1, leader_id=1, new_config=new_config)
        )
        assert env.sent_to(1)[-1].configuration is new_config
        entry = LogEntry(term=1, index=1, command="x")
        node.on_message(1, EscapeAppendEntriesRequest(term=1, leader_id=1, entries=(entry,)))
        node.on_message(1, heartbeat)
        grown, after = env.sent_to(1)[-2:]
        assert (grown.match_index, grown.log_index) == (1, 1)
        assert (after.match_index, after.log_index) == (0, 1)
        assert after.configuration is grown.configuration is new_config

    #: The paper's three configStatus values: how the reply carries each, and
    #: the follower state it reports.
    CONFIG_STATUS = {
        "log_index": (lambda reply: reply.log_index, lambda node: node.log.last_index),
        "timer_period_ms": (
            lambda reply: reply.configuration.timer_period_ms,
            lambda node: node.configuration.timer_period_ms,
        ),
        "conf_clock": (
            lambda reply: reply.configuration.conf_clock,
            lambda node: node.configuration.conf_clock,
        ),
    }

    @pytest.mark.parametrize("value", list(CONFIG_STATUS))
    def test_each_config_status_value_follows_the_follower(self, value):
        """Each value reads the follower's state as it stands at the reply:
        after a heartbeat, a new configuration, a longer log, and a heartbeat
        that matches less than the log holds."""
        on_reply, on_node = self.CONFIG_STATUS[value]
        node, env = make_node(node_id=2, size=5)
        node.start()
        new_config = Configuration(priority=5, timer_period_ms=100.0, conf_clock=3)
        entry = LogEntry(term=1, index=1, command="x")
        heartbeat = EscapeAppendEntriesRequest(term=1, leader_id=1)
        requests = (
            heartbeat,
            EscapeAppendEntriesRequest(term=1, leader_id=1, new_config=new_config),
            EscapeAppendEntriesRequest(term=1, leader_id=1, entries=(entry,)),
            heartbeat,
        )
        seen = []
        for request in requests:
            node.on_message(1, request)
            reply = env.sent_to(1)[-1]
            assert isinstance(reply, EscapeAppendEntriesResponse)
            assert on_reply(reply) == on_node(node)
            seen.append(on_reply(reply))
        # The state really moved: the log grows on the third request, the
        # configuration changes on the second.
        changed_at = 2 if value == "log_index" else 1
        assert seen[changed_at] != seen[changed_at - 1]

    def test_describe_mentions_configuration(self):
        node, _ = make_node(node_id=3, size=5)
        assert "π(P=3" in node.describe()
