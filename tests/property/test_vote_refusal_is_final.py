"""A refusal is final for its term: the proof obligation of the vote retry.

A candidate re-asks only the peers that have not answered its campaign
(Raft's TLA+ specification sends RequestVote only to servers outside
``votesResponded``).  Skipping a peer that refused loses nothing only if that
peer would refuse again: once a voter refuses candidate C in term T, it
refuses every later request from C in T.

The check covers every grant condition a voter applies -- a vote already
given in T, the log comparison, ESCAPE's configuration clock, and the voter
leading T itself -- on every registered protocol (the clock only where the
protocol gates votes on it).  After the refusal the voter goes through any
sequence of what can happen to it while C campaigns: C's request again (a
retry or a duplicate), other candidates' requests in T and in the terms
around it, AppendEntries from a leader of T (with ESCAPE configurations of
any clock), its own election timeouts, and a crash with recovery.  C's
request is refused after every step.

There is one exception, and it is asserted as such rather than excluded: a
leader of T other than C can replace the end of the voter's log with an
older one, after which the voter may find C's log acceptable.  A leader of T
holds a majority of T's votes, so C cannot win T; nothing the retry could
have gained is lost.

The other end is checked too, exhaustively over every registered protocol's
node class, role and term: a delivered refusal that is not newer than the
receiver's term sends nothing, traces nothing, calls no listener and leaves
the node and its environment untouched -- except that a running candidate in
the refusal's term stops counting the voter as silent, so its vote retry
skips that peer.  A protocol that starts acting on refusals in any other way
fails here, not in a golden report.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FakeEnvironment, fast_protocol_config, small_cluster

from repro import protocols
from repro.escape.messages import EscapeAppendEntriesRequest
from repro.escape.node import EscapeNode
from repro.raft.messages import AppendEntriesRequest, RequestVoteResponse
from repro.raft.node import RaftNode
from repro.raft.state import Role
from repro.storage.log import LogEntry
from repro.storage.persistent import InMemoryStore

VOTER, CANDIDATE, OTHERS = 2, 3, (1, 4, 5)
#: The term C campaigns in, for every condition but the voter's leadership.
TERM = 10
#: The voter's log: (index 1, term 1), (index 2, term 3).
VOTER_LOG_TERMS = (1, 3)


def _gates_on_the_clock(protocol: str) -> bool:
    node_class = protocols.get(protocol).node_class
    return node_class._hook_may_grant_vote is not RaftNode._hook_may_grant_vote


CASES = [
    (protocol, condition)
    for protocol in protocols.names()
    for condition in ("voted", "log", "clock", "leader")
    if condition != "clock" or _gates_on_the_clock(protocol)
]


def _voter(protocol: str, condition: str, refusing: bool = True):
    """A voter of *protocol* and C's request in term T; with *refusing*, the
    voter was put in the state in which *condition* alone refuses C."""
    store = InMemoryStore()
    store.save_term_and_vote(VOTER_LOG_TERMS[-1], None)
    for index, term in enumerate(VOTER_LOG_TERMS, start=1):
        store.load_log().append_entry(LogEntry(term=term, index=index))
    env = FakeEnvironment(node_id=VOTER, seed=3)
    voter = protocols.get(protocol).build_node(
        node_id=VOTER,
        cluster=small_cluster(5),
        env=env,
        store=store,
        protocol_config=fast_protocol_config(),
    )
    template = voter._hook_make_vote_request()
    voter.start()
    term = TERM
    if condition == "leader" and refusing:
        env.fire_next_timer(f"S{VOTER}:election-timeout")
        term = voter.current_term
        for peer in OTHERS[:2]:
            voter.on_message(
                peer, RequestVoteResponse(term=term, voter_id=peer, vote_granted=True)
            )
        assert voter.role is Role.LEADER
    if condition == "clock" and refusing:
        voter._hold(replace(voter.configuration, conf_clock=5))
    fields = {"conf_clock": 3} if condition == "clock" else {}
    request = replace(
        template,
        term=term,
        candidate_id=CANDIDATE,
        last_log_index=2,
        last_log_term=2 if condition == "log" and refusing else VOTER_LOG_TERMS[-1],
        **fields,
    )
    if condition == "voted" and refusing:
        voter.on_message(OTHERS[2], replace(request, candidate_id=OTHERS[2]))
        assert voter.voted_for == OTHERS[2]
    return voter, env, request


def _answer(voter, env, request) -> bool:
    """Deliver C's request; whether the voter granted it."""
    env.clear_sent()
    voter.on_message(CANDIDATE, request)
    (reply,) = env.sent_to(CANDIDATE)
    return reply.vote_granted


LOG_TAILS = st.sampled_from([(0, 0), (2, 2), (2, 3), (3, 3), (5, 4)])
EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("ask")),
        st.tuples(
            st.just("request"), st.sampled_from(OTHERS), st.integers(-1, 1), LOG_TAILS
        ),
        st.tuples(
            st.just("append"),
            st.sampled_from(OTHERS),
            st.integers(0, 3),
            st.lists(st.integers(1, 12), max_size=3),
            st.integers(0, 8),
        ),
        st.tuples(st.just("timeout")),
        st.tuples(st.just("crash")),
    ),
    max_size=12,
)


def _append(voter, leader, prev_index, raw_terms, clock, term):
    """AppendEntries from *leader* of *term*, consistent with the voter's log
    up to *prev_index*; returns whether it replaced any stored entry."""
    log = voter.log
    prev_index = min(prev_index, log.last_index)
    prev_term = log.term_at(prev_index) if prev_index else 0
    terms = sorted(min(term, max(prev_term, raw)) for raw in raw_terms)
    entries = tuple(
        LogEntry(term=entry_term, index=prev_index + offset)
        for offset, entry_term in enumerate(terms, start=1)
    )
    message = AppendEntriesRequest(term, leader, prev_index, prev_term, entries, 0)
    if isinstance(voter, EscapeNode):
        configuration = replace(voter.configuration, conf_clock=clock)
        message = EscapeAppendEntriesRequest(
            term, leader, prev_index, prev_term, entries, 0, configuration
        )
    before = list(log.entries_from(1))
    voter.on_message(leader, message)
    after = list(voter.log.entries_from(1))
    return after[: len(before)] != before


@pytest.mark.parametrize("protocol, condition", CASES)
class TestARefusalIsFinalForItsTerm:
    def test_the_condition_alone_refuses(self, protocol, condition):
        # Not blind: the same voter without the condition grants C.
        assert _answer(*_voter(protocol, condition, refusing=False))
        assert not _answer(*_voter(protocol, condition))

    @given(events=EVENTS)
    @settings(max_examples=40, deadline=None)
    def test_the_voter_refuses_c_for_the_rest_of_the_term(
        self, protocol, condition, events
    ):
        voter, env, request = _voter(protocol, condition)
        term = request.term
        voter_leads_the_term = condition == "leader"
        replaced_by_a_leader_of_the_term = False
        assert not _answer(voter, env, request)
        for event in events:
            kind = event[0]
            if kind == "request":
                _, candidate, offset, (last_index, last_term) = event
                voter.on_message(
                    candidate,
                    replace(
                        request,
                        term=term + offset,
                        candidate_id=candidate,
                        last_log_index=last_index,
                        last_log_term=last_term,
                    ),
                )
            elif kind == "append" and not voter_leads_the_term:
                _, leader, prev_index, raw_terms, clock = event
                if _append(voter, leader, prev_index, raw_terms, clock, term):
                    replaced_by_a_leader_of_the_term |= voter.current_term == term
            elif kind == "timeout":
                if f"S{VOTER}:election-timeout" in env.pending_timer_labels():
                    env.fire_next_timer(f"S{VOTER}:election-timeout")
            elif kind == "crash":
                voter.stop()
                voter.recover()
            granted = _answer(voter, env, request)
            assert not granted or replaced_by_a_leader_of_the_term, (event, voter.describe())


#: The receiver of the refusals below, and the members its tally counts.
RECEIVER = 2
MEMBERS = tuple(range(1, 6))


class _RecordingListener:
    """Records every listener callback, whatever its name."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def __getattr__(self, name: str):
        if not name.startswith("on_"):
            raise AttributeError(name)
        return lambda *args: self.calls.append((name, *args))


def _receiver_in(protocol: str, role: Role, running: bool):
    """A node of *protocol* driven into *role* by the messages that get it there."""
    env = FakeEnvironment(node_id=RECEIVER, seed=7)
    node = protocols.get(protocol).build_node(
        node_id=RECEIVER,
        cluster=small_cluster(len(MEMBERS)),
        env=env,
        protocol_config=fast_protocol_config(),
    )
    node.start()
    if role is not Role.FOLLOWER:
        env.fire_next_timer(f"S{RECEIVER}:election-timeout")
        assert node.role is Role.CANDIDATE
    if role is Role.LEADER:
        for voter in (1, 3):
            node.on_message(
                voter,
                RequestVoteResponse(
                    term=node.current_term, voter_id=voter, vote_granted=True
                ),
            )
        assert node.role is Role.LEADER
        node.propose("x")
    if not running:
        node.stop()
    assert node.role is role
    return node, env


def _observable_state(node, env) -> tuple:
    """Everything but the tally's record of who answered, as one comparable value."""
    return (
        node.current_term,
        node.voted_for,
        node.role,
        node.leader_id,
        node.is_running,
        (node.votes.term, node.votes.votes),
        tuple(node.log.entries_from(1)),
        node.commit_index,
        node.last_applied,
        (node.store.load_term(), node.store.load_voted_for()),
        dict(node.stats),
        # Timers: which exist, which are cancelled, and which the node holds.
        [(timer.label, timer.delay_ms, timer.cancelled) for timer in env.timers],
        (
            id(node._election_timer),
            id(node._heartbeat_timer),
            id(node._vote_retry_timer),
        ),
        env.rng.getstate(),
    )


def _handle_refusal(node, env, term: int, src: int = 1, voter_id: int = 1):
    """Deliver one refusal.

    Returns ``(state changed?, silent before, silent after, sends, traces,
    listener calls)``; "silent" is the members the tally has not heard from.
    """
    listener = _RecordingListener()
    node.add_listener(listener)
    env.clear_sent()
    env.traces.clear()
    before = _observable_state(node, env)
    silent_before = node.votes.silent(MEMBERS)
    node.on_message(
        src, RequestVoteResponse(term=term, voter_id=voter_id, vote_granted=False)
    )
    changed = _observable_state(node, env) != before
    return (
        changed,
        silent_before,
        node.votes.silent(MEMBERS),
        list(env.sent),
        list(env.traces),
        listener.calls,
    )


@pytest.mark.parametrize("running", (True, False), ids=("running", "stopped"))
@pytest.mark.parametrize("role", list(Role), ids=str)
@pytest.mark.parametrize("protocol", protocols.names())
class TestADeliveredRefusalChangesOnlyWhoAnswered:
    def test_refusal_at_or_below_the_receivers_term_changes_nothing(
        self, protocol, role, running
    ):
        # Exhaustive, not sampled: every term the refusal can carry, from
        # every peer, naming every voter.
        current_term = _receiver_in(protocol, role, running)[0].current_term
        recorded = 0
        for term in range(current_term + 1):
            for src in (1, 3, 4, 5):
                for voter_id in (1, 3, 4, 5):
                    node, env = _receiver_in(protocol, role, running)
                    changed, silent_before, silent_after, *effects = (
                        _handle_refusal(node, env, term, src, voter_id)
                    )
                    assert (changed, effects) == (False, [[], [], []])
                    records = (
                        running and role is Role.CANDIDATE and term == current_term
                    )
                    assert silent_after == (
                        [peer for peer in silent_before if peer != voter_id]
                        if records
                        else silent_before
                    )
                    recorded += silent_after != silent_before
        # Not vacuous: a running candidate hears every voter's refusal.
        assert recorded == (16 if running and role is Role.CANDIDATE else 0)

    def test_the_observation_is_not_blind(self, protocol, role, running):
        # Control: one term newer and the same observation sees the node
        # adopt it (unless the node is stopped and hears nothing).
        node, env = _receiver_in(protocol, role, running)
        changed, *_ = _handle_refusal(node, env, node.current_term + 1)
        assert changed is running
