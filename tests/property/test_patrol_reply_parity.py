"""The leader's inline reply record against ``ProbingPatrol.record_reply``.

An ESCAPE leader's AppendEntries reply handler updates its patrol's
per-follower records in place, with no call into ESCAPE or the patrol.  Here
random reply sequences run through a real leader and, in parallel, through
``record_reply`` on a second patrol built the same way: the oracle.  The two
must agree on every follower's responsiveness record, on every lagging
verdict and on each round's outcome (assignment and configuration clock).
"""

import pytest
from helpers import FakeEnvironment, fast_protocol_config, small_cluster
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.escape.configuration import Configuration
from repro.escape.messages import EscapeAppendEntriesResponse
from repro.escape.node import EscapeNode
from repro.escape.ppf import ProbingPatrol
from repro.raft.messages import AppendEntriesResponse, RequestVoteResponse
from repro.raft.state import Role
from repro.statemachine.kvstore import PutCommand

#: How a reply reports the follower's log index: on ESCAPE's reply with a
#: ``log_index``, without one (``None``: the match index stands in), on a
#: plain Raft reply, on a failed reply, or in a stale term.
REPLY_KINDS = ("log-index", "no-log-index", "plain", "failure", "stale-term")

#: The configuration the replying followers hold (the reply's other field).
HELD = Configuration(priority=1, timer_period_ms=100.0)

steps = st.one_of(
    st.tuples(
        st.just("reply"),
        st.integers(min_value=0, max_value=8),  # follower slot
        st.sampled_from(REPLY_KINDS),
        st.integers(min_value=0, max_value=12),  # reported log index
    ),
    st.tuples(st.just("wait"), st.floats(min_value=0.0, max_value=60.0)),
    st.tuples(st.just("round")),
    st.tuples(st.just("propose")),
)


def make_leader(size):
    """An ESCAPE leader on a hand-driven environment, and that environment."""
    leader_id = size
    env = FakeEnvironment(node_id=leader_id, trace_enabled=False)
    node = EscapeNode(
        node_id=leader_id,
        cluster=small_cluster(size),
        env=env,
        protocol_config=fast_protocol_config(),
    )
    node.start()
    env.fire_next_timer(f"S{leader_id}:election-timeout")
    for peer in node.peers:
        if node.role is Role.LEADER:
            break
        node.on_message(
            peer, RequestVoteResponse(term=node.current_term, voter_id=peer, vote_granted=True)
        )
    assert node.role is Role.LEADER and node.patrol is not None
    return node, env


def make_oracle(node, now_ms):
    """A patrol built as the leader built its own, having run the same first round."""
    oracle = ProbingPatrol(
        leader_id=node.node_id,
        followers=node.peers,
        cluster_size=node.cluster.size,
        sca=node.config.sca,
        initial_clock=node.patrol.conf_clock,
        stale_after_ms=4.0 * node.config.heartbeat_interval_ms,
    )
    oracle.advance_round(now_ms, node.log.last_index)
    assert node.patrol.rearrangement_count == oracle.rearrangement_count == 0
    return oracle


def reply(node, follower, kind, index):
    """The reply *follower* sends, and the index ``record_reply`` should get
    (None: the leader does not accept it in its term)."""
    match = min(index, node.log.last_index)
    term = node.current_term
    if kind == "log-index":
        return EscapeAppendEntriesResponse(term, follower, True, match, index, HELD), index
    if kind == "no-log-index":
        return EscapeAppendEntriesResponse(term, follower, True, match, None, HELD), match
    if kind == "plain":
        return AppendEntriesResponse(term, follower, True, match), match
    if kind == "failure":
        return EscapeAppendEntriesResponse(term, follower, False, match, index, HELD), index
    return EscapeAppendEntriesResponse(term - 1, follower, True, match, index, HELD), None


def assert_same_knowledge(node, oracle, env):
    patrol = node.patrol
    now, last = env.now(), node.log.last_index
    for follower in node.peers:
        assert patrol.responsiveness_of(follower) == oracle.responsiveness_of(follower)
        assert patrol.is_lagging(follower, now, last) == oracle.is_lagging(
            follower, now, last
        )


class TestEachReplyKind:
    """One reply of each kind, reporting a log index past the follower's
    match index: the record keeps the reply's ``log_index`` where it carries
    one, the match index where it does not, and nothing from a stale term."""

    REPORTED = 7

    @pytest.mark.parametrize("kind", REPLY_KINDS)
    def test_one_reply_records_what_record_reply_records(self, kind):
        node, env = make_leader(5)
        oracle = make_oracle(node, env.now())
        node.propose(PutCommand("k", "v"))
        follower = node.peers[0]
        match = node.log.last_index
        assert 0 < match < self.REPORTED
        env.advance(5.0)
        message, recorded = reply(node, follower, kind, self.REPORTED)
        node.on_message(follower, message)
        if recorded is not None:
            oracle.record_reply(follower, recorded, env.now())
        record = node.patrol.responsiveness_of(follower)
        assert record == oracle.responsiveness_of(follower)
        expected = {
            "log-index": self.REPORTED,
            "no-log-index": match,
            "plain": match,
            "failure": self.REPORTED,
        }
        if kind in expected:
            assert (record.log_index, record.last_reply_ms) == (expected[kind], env.now())
        else:
            assert record.last_reply_ms != env.now()


class TestLeaderReplyPathMatchesRecordReply:
    @given(
        size=st.integers(min_value=2, max_value=9),
        program=st.lists(steps, max_size=60),
        silent_slot=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=120, deadline=None)
    def test_records_verdicts_and_rounds_match(self, size, program, silent_slot):
        node, env = make_leader(size)
        patrol = node.patrol
        oracle = make_oracle(node, env.now())
        followers = node.peers
        silent = followers[silent_slot % len(followers)]
        # Every follower answers once before the first heartbeat round; one
        # of them is silent from then on.
        for follower in followers:
            node.on_message(follower, reply(node, follower, "log-index", 0)[0])
            oracle.record_reply(follower, 0, env.now())
        for step in program:
            if step[0] == "reply":
                _, slot, kind, index = step
                follower = followers[slot % len(followers)]
                if follower == silent:
                    continue
                message, recorded = reply(node, follower, kind, index)
                node.on_message(follower, message)
                if recorded is not None:
                    oracle.record_reply(follower, recorded, env.now())
            elif step[0] == "wait":
                env.advance(step[1])
            elif step[0] == "round":
                env.fire_next_timer(f"S{node.node_id}:heartbeat")
                oracle.advance_round(env.now(), node.log.last_index)
            else:
                node.propose(PutCommand("k", "v"))
            assert node.patrol is patrol and node.role is Role.LEADER
            assert_same_knowledge(node, oracle, env)
            assert patrol.assignments == oracle.assignments
            assert patrol.conf_clock == oracle.conf_clock
        # The silent follower outlives the staleness window: both call it
        # lagging, and the round that follows sinks it the same way.
        env.advance(4.0 * node.config.heartbeat_interval_ms + 1.0)
        assert patrol.responsiveness_of(silent).last_reply_ms is not None
        assert patrol.is_lagging(silent, env.now(), node.log.last_index)
        env.fire_next_timer(f"S{node.node_id}:heartbeat")
        oracle.advance_round(env.now(), node.log.last_index)
        assert_same_knowledge(node, oracle, env)
        assert patrol.assignments == oracle.assignments
        assert patrol.conf_clock == oracle.conf_clock
        assert patrol.rearrangement_count == oracle.rearrangement_count
