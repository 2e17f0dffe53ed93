"""The leader's payload table: every payload served is the one it would build.

A leader keeps what its last AppendEntries broadcast handed each follower and
serves the next broadcast from that table when nothing the payloads depend on
has moved (``RaftNode._append_entries_factory``).  The specification is the
table-free factory: for every follower, the request built from
``_append_window(progress.next_index(follower))`` -- Raft's, or ESCAPE's
extended one with the follower's assigned configuration.  This suite drives a leader through random programs --
proposals, success and failure replies, heartbeat rounds after short and long
silences (so ESCAPE's patrol both settles and rearranges), term changes (a new
leadership, and on ESCAPE a new patrol) and broadcasts that call the factory
for only some peers -- and compares every AppendEntries payload served
against that specification, on Raft, ESCAPE, Z-Raft and ESCAPE without a
patrol (whose all-``None`` piggyback is one mapping, so its idle rounds are
served from the table too).

The last test is the check on the check: a leader whose progress version
never moves -- a table that ignores rewound and advanced next indexes -- must
be caught.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    AppendRegister,
    FakeEnvironment,
    SentMessage,
    fast_protocol_config,
    small_cluster,
)

from repro import protocols
from repro.escape.messages import EscapeAppendEntriesRequest
from repro.escape.node import EscapeNode
from repro.raft import node as raft_node
from repro.raft.messages import AppendEntriesRequest, AppendEntriesResponse, RequestVoteResponse
from repro.raft.replication import ReplicationProgress
from repro.raft.state import Role

PROTOCOLS = protocols.names()
CLUSTER_SIZE = 5
LEADER = 1
FOLLOWERS = (2, 3, 4, 5)

FOLLOWER = st.sampled_from(FOLLOWERS)
INDEX = st.integers(min_value=0, max_value=8)
OPERATIONS = st.one_of(
    st.tuples(st.just("propose")),
    st.tuples(st.just("ok"), FOLLOWER, INDEX),
    st.tuples(st.just("ok"), FOLLOWER, INDEX),
    st.tuples(st.just("fail"), FOLLOWER, INDEX),
    # Silences below and beyond the patrol's staleness bound (4 heartbeats).
    st.tuples(st.just("beat"), st.sampled_from([0.0, 0.0, 5.0, 25.0, 60.0])),
    st.tuples(st.just("beat"), st.just(0.0)),
    st.tuples(st.just("term")),
    st.tuples(st.just("partial"), st.integers(min_value=0, max_value=3)),
)
PROGRAMS = st.lists(OPERATIONS, max_size=40)


def _fresh_payload(node, follower):
    """What the table-free factory would hand *follower* now: Raft's request
    (Z-Raft's too), or on ESCAPE the extended one carrying the follower's
    assigned configuration."""
    prev_index, prev_term, entries = node._append_window(
        node.progress.next_index(follower)
    )
    fields = (
        node.current_term,
        node.node_id,
        prev_index,
        prev_term,
        entries,
        node.commit_index,
    )
    if not isinstance(node, EscapeNode):
        return AppendEntriesRequest(*fields)
    return EscapeAppendEntriesRequest(*fields, node.patrol.configuration_for(follower))


class _CheckingEnvironment(FakeEnvironment):
    """A fake whose broadcast checks every AppendEntries payload it is handed,
    and which can be told to call the factory for only some targets."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.node = None
        self.partial: int | None = None
        self.checked = 0
        self.served_from_table = 0

    def broadcast(self, targets, payload_factory) -> None:
        if not callable(payload_factory):  # a campaign's one RequestVote
            return super().broadcast(targets, payload_factory)
        limit, self.partial = self.partial, None
        chosen = list(targets)[:limit] if limit is not None else list(targets)
        # The table is served as its own bound ``__getitem__``.
        if isinstance(getattr(payload_factory, "__self__", None), dict):
            self.served_from_table += 1
        for dst in chosen:
            payload = payload_factory(dst)
            if isinstance(payload, AppendEntriesRequest):
                expected = _fresh_payload(self.node, dst)
                assert type(payload) is type(expected) and payload == expected, (
                    f"S{dst} was served {payload!r}, the factory builds {expected!r}"
                )
                self.checked += 1
            self.sent.append(SentMessage(dst, payload))


def _elect(node, env) -> None:
    """Fire the election timeout and grant the votes of a quorum."""
    env.fire_next_timer(f"S{LEADER}:election-timeout")
    for voter in FOLLOWERS[:2]:
        node.on_message(
            voter,
            RequestVoteResponse(term=node.current_term, voter_id=voter, vote_granted=True),
        )
    assert node.role is Role.LEADER


def execute(protocol: str, program) -> _CheckingEnvironment:
    """Run *program* against a fresh leader; the environment checks as it goes."""
    env = _CheckingEnvironment(node_id=LEADER, seed=3)
    node = protocols.get(protocol).build_node(
        node_id=LEADER,
        cluster=small_cluster(CLUSTER_SIZE),
        env=env,
        state_machine=AppendRegister(),
        protocol_config=fast_protocol_config(),
    )
    env.node = node
    node.start()
    _elect(node, env)
    for number, operation in enumerate(program):
        kind, *args = operation
        if kind == "propose":
            node.propose(f"command-{number}")
        elif kind in ("ok", "fail"):
            follower, index = args
            index = min(index, node.log.last_index)
            node.on_message(
                follower,
                AppendEntriesResponse(node.current_term, follower, kind == "ok", index),
            )
        elif kind == "beat":
            env.advance(args[0])
            env.fire_next_timer(f"S{LEADER}:heartbeat")
        elif kind == "term":
            # A newer term steps the leader down; it then wins the next one.
            node.on_message(
                FOLLOWERS[-1],
                AppendEntriesResponse(node.current_term + 1, FOLLOWERS[-1], False, 0),
            )
            assert node.role is Role.FOLLOWER
            _elect(node, env)
        else:
            env.partial = args[0]
        assert node.role is Role.LEADER
    return env


@pytest.mark.parametrize("protocol", PROTOCOLS)
@given(PROGRAMS)
def test_every_payload_served_is_the_one_the_factory_builds(protocol, program):
    execute(protocol, program)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_idle_rounds_are_served_from_the_table(protocol):
    # Not a vacuous comparison: quiet heartbeat rounds do take the table.
    program = [("propose",)] + [("ok", f, 1) for f in FOLLOWERS] + [("beat", 0.0)] * 6
    env = execute(protocol, program)
    # Election, proposal, then six rounds: the first after the replies moved
    # every next index is built, the five after it are served.
    assert env.served_from_table == 5
    assert env.checked == 8 * len(FOLLOWERS)


def test_escape_rearrangements_are_among_the_rounds_checked():
    # The one follower that replies is promoted (a rearrangement: the clock
    # moves, the table is refilled); once everyone is silent past the
    # staleness bound the ranking settles and rounds are served again.
    program = [("ok", 5, 0), ("beat", 0.0), ("beat", 60.0), ("beat", 0.0), ("beat", 0.0)]
    env = execute("escape", program)
    assert env.node.patrol.rearrangement_count >= 1
    assert env.served_from_table >= 1


class _VersionNeverMoves(ReplicationProgress):
    """Deliberately wrong: next indexes move but the version says they did not."""

    version = property(lambda self: 0, lambda self, value: None)


def test_a_table_that_ignores_the_progress_version_is_caught(monkeypatch):
    monkeypatch.setattr(raft_node, "ReplicationProgress", _VersionNeverMoves)

    @settings(max_examples=300, derandomize=True, database=None)
    @given(PROGRAMS)
    def wrong_leader_serves_what_the_factory_builds(program):
        for protocol in PROTOCOLS:
            execute(protocol, program)

    with pytest.raises(AssertionError):
        wrong_leader_serves_what_the_factory_builds()
