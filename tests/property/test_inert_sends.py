"""Refusals at the receiver: what delivering a vote refusal may change.

Checked exhaustively over every registered protocol's node class, role and
term: a refusal that is not newer than the receiver's term sends nothing,
traces nothing, calls no listener, and leaves the node and its environment
untouched -- except that a running candidate in the refusal's term stops
counting the voter as silent, so its vote retry skips that peer
(``tests/property/test_vote_refusal_is_final.py`` checks why skipping it
loses nothing).  A protocol that starts acting on refusals in any other way
fails here, not in a golden report.
"""

from __future__ import annotations

import pytest

from helpers import FakeEnvironment, fast_protocol_config, small_cluster

from repro import protocols
from repro.raft.messages import RequestVoteResponse
from repro.raft.state import Role

CLUSTER_SIZE = 5
NODE_ID = 2
MEMBERS = tuple(range(1, CLUSTER_SIZE + 1))


class _RecordingListener:
    """Records every listener callback, whatever its name."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def __getattr__(self, name: str):
        if not name.startswith("on_"):
            raise AttributeError(name)
        return lambda *args: self.calls.append((name, *args))


def _node_in(protocol: str, role: Role, running: bool):
    """A node of *protocol* driven into *role* by the messages that get it there."""
    env = FakeEnvironment(node_id=NODE_ID, seed=7)
    node = protocols.get(protocol).build_node(
        node_id=NODE_ID,
        cluster=small_cluster(CLUSTER_SIZE),
        env=env,
        protocol_config=fast_protocol_config(),
    )
    node.start()
    if role is not Role.FOLLOWER:
        env.fire_next_timer(f"S{NODE_ID}:election-timeout")
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
class TestNoReceiverActsOnAnInertRefusal:
    def test_refusal_at_or_below_the_receivers_term_changes_nothing(
        self, protocol, role, running
    ):
        # Exhaustive, not sampled: every term the refusal can carry, from
        # every peer, naming every voter.
        current_term = _node_in(protocol, role, running)[0].current_term
        recorded = 0
        for term in range(current_term + 1):
            for src in (1, 3, 4, 5):
                for voter_id in (1, 3, 4, 5):
                    node, env = _node_in(protocol, role, running)
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
        node, env = _node_in(protocol, role, running)
        changed, *_ = _handle_refusal(node, env, node.current_term + 1)
        assert changed is running
