"""Each node reads its class's handler memo from a copy of its own.

``RaftNode.__init_subclass__`` gives every node class its own
``_message_handlers`` memo (a subclass may override a handler).  Every
delivery reads it, so ``RaftNode.__init__`` copies it into the slot
``_typed_handlers`` from ``type(self)`` (on CPython 3.11 a class attribute
read through a slotted instance is never specialized; see
``test_specialized_hot_path.py``).  These tests hold every copy to its own
class's memo, for every registered protocol, the README's example class and
a subclass that overrides the grant hook and sets ``_adopts_piggyback``, and
pin the role constants and the role-transition check to its table.

The protocol classes form a chain in which each adds to its parent (Raft →
Z-Raft → ESCAPE): none binds an ancestor's function under its own name to
undo what the ancestor added.
"""

from __future__ import annotations

import itertools
import re
import types
from pathlib import Path

import pytest

from helpers import FakeEnvironment, registrations, small_cluster

from repro import protocols
from repro.cluster.builder import build_cluster
from repro.common.errors import ProtocolError
from repro.protocols import registry as protocol_registry
from repro.raft.messages import RequestVoteRequest
from repro.raft.node import RaftNode
from repro.raft.state import (
    ALLOWED_TRANSITIONS,
    CANDIDATE,
    FOLLOWER,
    LEADER,
    Role,
    is_valid_transition,
)

README = Path(__file__).resolve().parents[2] / "README.md"


class Picky(RaftNode):
    """Refuses every vote and adopts piggybacked configurations (it gets
    none from plain Raft heartbeats)."""

    __slots__ = ()
    _adopts_piggyback = True

    def _hook_may_grant_vote(self, request: RequestVoteRequest) -> bool:
        return False


def _readme_class() -> type[RaftNode]:
    """The README's ``EagerRaftNode``, built by running its example."""
    section = README.read_text(encoding="utf-8").split("### Adding a protocol\n", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.DOTALL)
    with registrations(protocol_registry):
        namespace = {"__name__": "readme_example"}
        exec(compile(code, "README.md", "exec"), namespace)
    return namespace["EagerRaftNode"]


def _nodes(cls: type[RaftNode]) -> list[RaftNode]:
    return [
        cls(node_id, small_cluster(3), FakeEnvironment(node_id=node_id))
        for node_id in (1, 2, 3)
    ]


@pytest.mark.parametrize("protocol", protocols.names())
def test_a_built_cluster_copies_its_class_memo(protocol):
    cluster = build_cluster(protocol, 5)
    try:
        for node in cluster.nodes.values():
            assert node._typed_handlers is type(node)._message_handlers
    finally:
        cluster.close()


@pytest.mark.parametrize("name", ["RaftNode", "Picky", "EagerRaftNode"])
def test_a_node_copies_its_own_class_memo(capsys, name):
    # capsys takes what the README example prints.
    cls = {"RaftNode": RaftNode, "Picky": Picky}.get(name) or _readme_class()
    for node in _nodes(cls):
        assert node._typed_handlers is cls._message_handlers
        assert (node._typed_handlers is RaftNode._message_handlers) == (cls is RaftNode)


def test_the_handlers_read_the_class_flags():
    """A Picky voter refuses an up-to-date candidate: the vote handler consults
    the grant hook because its class says the hook is not the default."""
    (node, *_) = _nodes(Picky)
    node.start()
    node.on_message(
        2, RequestVoteRequest(term=1, candidate_id=2, last_log_index=0, last_log_term=0)
    )
    (reply,) = node.env.sent_payloads()
    assert reply.vote_granted is False and node.voted_for is None
    assert RequestVoteRequest in Picky._message_handlers


@pytest.mark.parametrize("protocol", protocols.names())
def test_no_protocol_class_aliases_an_ancestor_s_function(protocol):
    node_class = protocols.get(protocol).node_class
    aliases = [
        f"{cls.__name__}.{name} = {value.__qualname__}"
        for cls in node_class.__mro__
        if issubclass(cls, RaftNode)
        for name, value in vars(cls).items()
        if isinstance(value, types.FunctionType)
        and not value.__qualname__.startswith(cls.__name__ + ".")
    ]
    assert not aliases, aliases


def test_the_role_constants_are_the_members():
    assert FOLLOWER is Role.FOLLOWER
    assert CANDIDATE is Role.CANDIDATE
    assert LEADER is Role.LEADER


@pytest.mark.parametrize(
    ("old", "new"), list(itertools.product(Role, repeat=2)), ids=lambda role: role.value
)
def test_is_valid_transition_is_the_table(old, new):
    assert is_valid_transition(old, new) == ((old, new) in ALLOWED_TRANSITIONS)


def test_an_invalid_transition_is_refused():
    (node, *_) = _nodes(RaftNode)
    with pytest.raises(ProtocolError, match="invalid role transition follower -> leader"):
        node._change_role(LEADER)
    assert node.role is FOLLOWER
