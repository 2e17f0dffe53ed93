"""Unit tests for RaftNode leader election, driven through a fake environment."""

import pytest

from helpers import FakeEnvironment, fast_protocol_config, small_cluster

from repro import protocols
from repro.common.errors import ConfigurationError, NotLeaderError, ProtocolError
from repro.raft.listeners import NodeListenerBase, listener_table

LISTENER_EVENTS = (
    "on_role_change",
    "on_election_timeout",
    "on_election_started",
    "on_vote_granted",
    "on_leader_elected",
    "on_entry_committed",
)
from repro.raft.messages import (
    AppendEntriesRequest,
    RequestVoteRequest,
    RequestVoteResponse,
)
from repro.raft.node import RaftNode
from repro.raft.state import Role
from repro.raft.timers import FixedTimeoutPolicy
from repro.statemachine.kvstore import PutCommand
from repro.storage.log import LogEntry
from repro.storage.persistent import InMemoryStore


def make_node(node_id=1, size=3, env=None, **kwargs):
    env = env if env is not None else FakeEnvironment(node_id=node_id)
    node = RaftNode(
        node_id=node_id,
        cluster=small_cluster(size),
        env=env,
        protocol_config=kwargs.pop("protocol_config", fast_protocol_config()),
        **kwargs,
    )
    return node, env


class TestStartup:
    def test_node_starts_as_follower_with_election_timer(self):
        node, env = make_node()
        node.start()
        assert node.role is Role.FOLLOWER
        assert node.is_running
        assert "S1:election-timeout" in env.pending_timer_labels()

    def test_double_start_rejected(self):
        node, _ = make_node()
        node.start()
        with pytest.raises(ProtocolError):
            node.start()

    def test_node_id_must_belong_to_cluster(self):
        with pytest.raises(ProtocolError):
            RaftNode(node_id=9, cluster=small_cluster(3), env=FakeEnvironment())


class TestBecomingCandidate:
    def test_election_timeout_starts_a_campaign(self):
        node, env = make_node()
        node.start()
        env.fire_next_timer("S1:election-timeout")
        assert node.role is Role.CANDIDATE
        assert node.current_term == 1
        assert node.voted_for == 1
        requests = env.sent_payloads(RequestVoteRequest)
        assert len(requests) == 2  # one per peer
        assert all(request.term == 1 for request in requests)

    def test_campaign_includes_log_position(self):
        store = InMemoryStore()
        log = store.load_log()
        log.append_entry(LogEntry(term=3, index=1, command="x"))
        store.save_term_and_vote(3, None)
        node, env = make_node(store=store)
        node.start()
        env.fire_next_timer("S1:election-timeout")
        request = env.sent_payloads(RequestVoteRequest)[0]
        assert request.last_log_index == 1
        assert request.last_log_term == 3
        assert request.term == 4

    def test_winning_quorum_promotes_to_leader_and_sends_heartbeats(self):
        node, env = make_node()
        node.start()
        env.fire_next_timer("S1:election-timeout")
        env.clear_sent()
        node.on_message(2, RequestVoteResponse(term=1, voter_id=2, vote_granted=True))
        assert node.role is Role.LEADER
        assert node.leader_id == 1
        heartbeats = env.sent_payloads(AppendEntriesRequest)
        assert len(heartbeats) == 2
        assert all(not hb.entries for hb in heartbeats)

    def test_denied_votes_do_not_promote(self):
        node, env = make_node(size=5)
        node.start()
        env.fire_next_timer("S1:election-timeout")
        node.on_message(2, RequestVoteResponse(term=1, voter_id=2, vote_granted=False))
        node.on_message(3, RequestVoteResponse(term=1, voter_id=3, vote_granted=False))
        assert node.role is Role.CANDIDATE

    def test_stale_vote_responses_are_ignored(self):
        node, env = make_node(size=5)
        node.start()
        env.fire_next_timer("S1:election-timeout")  # term 1
        env.fire_next_timer("S1:election-timeout")  # term 2, new campaign
        node.on_message(2, RequestVoteResponse(term=1, voter_id=2, vote_granted=True))
        node.on_message(3, RequestVoteResponse(term=1, voter_id=3, vote_granted=True))
        assert node.role is Role.CANDIDATE  # old-term votes must not count

    def test_higher_term_response_forces_step_down(self):
        node, env = make_node()
        node.start()
        env.fire_next_timer("S1:election-timeout")
        node.on_message(2, RequestVoteResponse(term=7, voter_id=2, vote_granted=False))
        assert node.role is Role.FOLLOWER
        assert node.current_term == 7

    def test_single_node_cluster_elects_itself_immediately(self):
        node, env = make_node(node_id=1, size=1)
        node.start()
        env.fire_next_timer("S1:election-timeout")
        assert node.role is Role.LEADER

    def test_vote_requests_are_retransmitted_to_silent_peers(self):
        node, env = make_node(size=5)
        node.start()
        env.fire_next_timer("S1:election-timeout")
        node.on_message(2, RequestVoteResponse(term=1, voter_id=2, vote_granted=True))
        env.clear_sent()
        env.fire_next_timer("S1:vote-retry")
        retried = env.sent_payloads(RequestVoteRequest)
        # Peers 3, 4, 5 have not granted yet; peer 2 must not be spammed again.
        assert {message.dst for message in env.sent} == {3, 4, 5}
        assert all(request.term == 1 for request in retried)

    @pytest.mark.parametrize("protocol", ["raft", "escape", "zraft"])
    def test_a_campaign_and_a_vote_retry_each_hand_over_one_request(self, protocol):
        env = FakeEnvironment(node_id=1)
        node = protocols.get(protocol).build_node(
            node_id=1,
            cluster=small_cluster(5),
            env=env,
            protocol_config=fast_protocol_config(),
        )
        node.start()
        env.fire_next_timer("S1:election-timeout")
        env.fire_next_timer("S1:vote-retry")
        assert env.broadcast_forms == ["message", "message"]
        campaign, retry = env.sent[:4], env.sent[4:]
        for copies in (campaign, retry):
            assert len(copies) == 4
            assert all(item.payload is copies[0].payload for item in copies)
            assert isinstance(copies[0].payload, RequestVoteRequest)

    def test_vote_retry_stops_after_becoming_leader(self):
        node, env = make_node(size=3)
        node.start()
        env.fire_next_timer("S1:election-timeout")
        node.on_message(2, RequestVoteResponse(term=1, voter_id=2, vote_granted=True))
        assert node.role is Role.LEADER
        assert not any(
            label == "S1:vote-retry" for label in env.pending_timer_labels()
        )


class TestGrantingVotes:
    def test_grants_vote_to_up_to_date_candidate(self):
        node, env = make_node(node_id=2)
        node.start()
        node.on_message(
            3, RequestVoteRequest(term=1, candidate_id=3, last_log_index=0, last_log_term=0)
        )
        response = env.sent_to(3)[0]
        assert isinstance(response, RequestVoteResponse)
        assert response.vote_granted
        assert node.voted_for == 3
        assert node.current_term == 1

    def test_refuses_second_vote_in_same_term(self):
        node, env = make_node(node_id=2)
        node.start()
        node.on_message(3, RequestVoteRequest(term=1, candidate_id=3))
        node.on_message(1, RequestVoteRequest(term=1, candidate_id=1))
        first, second = env.sent_to(3)[0], env.sent_to(1)[0]
        assert first.vote_granted
        assert not second.vote_granted
        # Both replies reach the environment; only the refusal, which the
        # candidate cannot act on, is flagged inert.
        assert [(item.dst, item.inert) for item in env.sent] == [(3, False), (1, True)]

    def test_repeated_request_from_same_candidate_is_granted_again(self):
        # Idempotent re-grant supports the candidate's retransmission.
        node, env = make_node(node_id=2)
        node.start()
        node.on_message(3, RequestVoteRequest(term=1, candidate_id=3))
        node.on_message(3, RequestVoteRequest(term=1, candidate_id=3))
        responses = env.sent_to(3)
        assert all(response.vote_granted for response in responses)

    def test_refuses_candidate_with_stale_term(self):
        store = InMemoryStore()
        store.save_term_and_vote(5, None)
        node, env = make_node(node_id=2, store=store)
        node.start()
        node.on_message(3, RequestVoteRequest(term=4, candidate_id=3))
        response = env.sent_to(3)[0]
        assert not response.vote_granted
        assert response.term == 5

    def test_only_a_same_term_refusal_is_flagged_inert(self):
        # The stale-term refusal carries a newer term the candidate must
        # adopt, and a grant counts toward its quorum: both are real sends.
        store = InMemoryStore()
        store.save_term_and_vote(5, None)
        node, env = make_node(node_id=2, store=store)
        node.start()
        node.on_message(3, RequestVoteRequest(term=4, candidate_id=3))
        node.on_message(3, RequestVoteRequest(term=6, candidate_id=3))
        node.on_message(3, RequestVoteRequest(term=6, candidate_id=3))
        stale, grant, regrant = env.sent
        assert (stale.payload.term, stale.payload.vote_granted) == (5, False)
        assert grant.payload.vote_granted and regrant.payload.vote_granted
        assert not (stale.inert or grant.inert or regrant.inert)

    def test_refuses_candidate_with_stale_log(self):
        store = InMemoryStore()
        store.load_log().append_entry(LogEntry(term=2, index=1, command="x"))
        node, env = make_node(node_id=2, store=store)
        node.start()
        node.on_message(
            3, RequestVoteRequest(term=3, candidate_id=3, last_log_index=0, last_log_term=0)
        )
        response = env.sent_to(3)[0]
        assert not response.vote_granted
        # The term still advances (Eq. 3 / Raft rule) even though the vote is denied.
        assert node.current_term == 3
        # The refusal carries the candidate's own term, so it is inert.
        assert response.term == 3
        assert [item.inert for item in env.sent] == [True]

    def test_granting_a_vote_restarts_the_election_timer(self):
        node, env = make_node(node_id=2)
        node.start()
        first_timer = env.pending_timers()[0]
        node.on_message(3, RequestVoteRequest(term=1, candidate_id=3))
        assert first_timer.cancelled
        assert "S2:election-timeout" in env.pending_timer_labels()

    def test_denied_vote_does_not_restart_the_election_timer(self):
        store = InMemoryStore()
        store.load_log().append_entry(LogEntry(term=2, index=1, command="x"))
        node, env = make_node(node_id=2, store=store)
        node.start()
        first_timer = env.pending_timers()[0]
        node.on_message(3, RequestVoteRequest(term=3, candidate_id=3))
        assert not first_timer.cancelled
        (refusal,) = env.sent
        assert not refusal.payload.vote_granted and refusal.inert


class TestTermHandling:
    def test_terms_never_move_backwards(self):
        store = InMemoryStore()
        store.save_term_and_vote(9, None)
        node, env = make_node(store=store)
        node.start()
        node.on_message(2, RequestVoteRequest(term=3, candidate_id=2))
        assert node.current_term == 9

    def test_crashed_node_ignores_messages(self):
        node, env = make_node()
        node.start()
        node.stop()
        node.on_message(2, RequestVoteRequest(term=1, candidate_id=2))
        assert env.sent == []

    def test_unknown_message_type_rejected(self):
        node, _ = make_node()
        node.start()
        with pytest.raises(ProtocolError):
            node.on_message(2, object())

    def test_dispatch_is_memoised_per_class_so_handler_overrides_are_honoured(self):
        seen = []

        class Eavesdropper(RaftNode):
            def _handle_request_vote_response(self, src, response):
                seen.append((src, response))

        reply = RequestVoteResponse(term=0, voter_id=2, vote_granted=False)
        plain, _ = make_node()
        plain.start()
        plain.on_message(2, reply)  # memoises RaftNode's own handler first
        eavesdropper = Eavesdropper(1, small_cluster(3), FakeEnvironment(node_id=1))
        eavesdropper.start()
        eavesdropper.on_message(2, reply)
        plain.on_message(2, reply)
        assert seen == [(2, reply)]


class _Calls(NodeListenerBase):
    """A base-derived listener: listens to what it (or a parent) overrides."""

    def __init__(self):
        self.calls = []

    def on_election_started(self, node_id, term, time_ms):
        self.calls.append(("on_election_started", node_id, term, time_ms))


class _CallsAndRoles(_Calls):
    """A subclass of a subclass that overrides one more event."""

    def on_role_change(self, node_id, old_role, new_role, term, time_ms):
        self.calls.append(("on_role_change", node_id, str(new_role), term, time_ms))


class _DuckListener:
    """Not derived from the base: it is told everything."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        if name not in LISTENER_EVENTS:
            raise AttributeError(name)
        return lambda *args: self.calls.append(name)


class TestListenerTables:
    """A node calls, per event, only the listeners that listen to it."""

    CAMPAIGN = ["on_election_timeout", "on_role_change", "on_election_started"]

    @staticmethod
    def _campaign(node, env, at_ms=0.0):
        env.advance(at_ms)
        env.fire_next_timer("S1:election-timeout")
        return env.now()

    def test_a_listener_is_called_for_the_events_it_overrides(self):
        plain, inherited, duck = _Calls(), _CallsAndRoles(), _DuckListener()
        node, env = make_node(listeners=[plain, inherited, duck])
        table = node._listening
        assert tuple(table) == tuple(listener_table()) == LISTENER_EVENTS
        assert [len(table[event]) for event in LISTENER_EVENTS] == [2, 1, 3, 1, 1, 1]
        node.start()
        now = self._campaign(node, env)
        assert plain.calls == [("on_election_started", 1, 1, now)]
        assert inherited.calls == [
            ("on_role_change", 1, "candidate", 1, now),
            ("on_election_started", 1, 1, now),
        ]
        assert duck.calls == self.CAMPAIGN

    def test_listeners_attach_after_construction_and_after_removal(self):
        node, env = make_node()
        node.start()
        early, late = _DuckListener(), _CallsAndRoles()
        node.add_listener(early)
        self._campaign(node, env)
        assert early.calls == self.CAMPAIGN
        node.remove_listeners()
        assert not any(node._listening.values())
        node.add_listener(late)
        now = self._campaign(node, env, at_ms=5.0)
        assert early.calls == self.CAMPAIGN  # detached: nothing more
        assert late.calls == [("on_election_started", 1, 2, now)]

    def test_every_notification_of_a_handler_carries_the_same_time(self):
        class Stamps(_Calls):
            def on_entry_committed(self, node_id, index, term, time_ms):
                self.calls.append((index, time_ms))

        stamps = Stamps()
        node, env = make_node(node_id=2, listeners=[_Calls(), stamps])
        node.start()
        env.advance(7.0)
        entries = tuple(
            LogEntry(term=1, index=index, command=PutCommand("k", index))
            for index in (1, 2, 3)
        )
        node.on_message(
            1, AppendEntriesRequest(term=1, leader_id=1, entries=entries, leader_commit=3)
        )
        assert stamps.calls == [(1, 7.0), (2, 7.0), (3, 7.0)]


class TestFakeEnvironmentRearm:
    """``FakeEnvironment.rearm_timer`` is cancel + set, label kept."""

    def test_a_heartbeat_rearms_the_election_timer_under_its_label(self):
        node, env = make_node(node_id=2)
        node.start()
        (first,) = env.pending_timers()
        node.on_message(1, AppendEntriesRequest(term=1, leader_id=1))
        (second,) = env.pending_timers()
        assert first.cancelled and second is not first
        assert second.label == "S2:election-timeout"
        assert env.fire_next_timer("S2:election-timeout") is second
        assert node.role is Role.CANDIDATE

    def test_rearming_nothing_or_a_spent_timer_just_arms(self):
        env = FakeEnvironment(node_id=3)
        fired = []
        first = env.rearm_timer(None, 10.0, lambda: fired.append("first"), "t")
        env.fire_next_timer("S3:t")
        second = env.rearm_timer(first, 10.0, lambda: fired.append("second"), "t")
        assert env.pending_timers() == [second]
        env.fire_next_timer("S3:t")
        assert (fired, env.now()) == (["first", "second"], 20.0)


class TestProposalsRequireLeadership:
    def test_follower_rejects_proposals_and_names_leader(self):
        node, env = make_node(node_id=2)
        node.start()
        node.on_message(
            1, AppendEntriesRequest(term=1, leader_id=1, prev_log_index=0, prev_log_term=0)
        )
        with pytest.raises(NotLeaderError) as excinfo:
            node.propose("x")
        assert excinfo.value.known_leader == 1

    def test_leader_timeout_policy_not_used_while_leading(self):
        node, env = make_node(timeout_policy=FixedTimeoutPolicy(100.0))
        node.start()
        env.fire_next_timer("S1:election-timeout")
        node.on_message(2, RequestVoteResponse(term=1, voter_id=2, vote_granted=True))
        assert node.role is Role.LEADER
        # The election timer is cancelled for a leader.
        assert "S1:election-timeout" not in env.pending_timer_labels()


def election_waits(env):
    """Every election-timer delay the node armed, in order."""
    return [timer.delay_ms for timer in env.timers if timer.label.endswith(":election-timeout")]


class TestTimeoutScript:
    def test_the_script_comes_first_then_the_policy(self):
        node, env = make_node(
            node_id=2, timeout_policy=FixedTimeoutPolicy(999.0), timeout_script=(100.0, 200.0)
        )
        node.start()
        env.fire_next_timer("S2:election-timeout")
        env.fire_next_timer("S2:election-timeout")
        assert election_waits(env) == [100.0, 200.0, 999.0]

    def test_hearing_a_leader_restarts_the_script(self):
        node, env = make_node(node_id=2, timeout_script=(100.0, 200.0))
        node.start()
        env.fire_next_timer("S2:election-timeout")
        node.on_message(
            1, AppendEntriesRequest(term=1, leader_id=1, prev_log_index=0, prev_log_term=0)
        )
        assert election_waits(env) == [100.0, 200.0, 100.0]

    def test_a_scripted_wait_draws_nothing(self):
        node, env = make_node(timeout_script=(100.0,))
        untouched = env.rng.getstate()
        node.start()
        assert env.rng.getstate() == untouched
        env.fire_next_timer("S1:election-timeout")
        # After the script, Raft draws from its configured range again.
        timeouts = node.config.raft_timeouts
        assert env.rng.getstate() != untouched
        assert timeouts.timeout_min_ms <= election_waits(env)[1] <= timeouts.timeout_max_ms

    @pytest.mark.parametrize("script", [(0.0,), (100.0, -1.0), (float("nan"),)])
    def test_every_scripted_value_must_be_positive(self, script):
        with pytest.raises(ConfigurationError, match="scripted timeout"):
            make_node(timeout_script=script)
