"""Baseline Raft implementation (leader election + log replication).

The node core is *sans-IO*: :class:`~repro.raft.node.RaftNode` never touches
sockets, threads or clocks directly.  It talks to an
:class:`~repro.raft.environment.Environment` (provided by the discrete-event
simulator, or a hand-driven fake in the tests) and exposes explicit extension
hooks that :class:`repro.zraft.node.ZRaftNode` (SCA) and its subclass
:class:`repro.escape.node.EscapeNode` (SCA and PPF) override -- mirroring the
paper's argument that ESCAPE changes only the election mechanism and leaves
log replication untouched.
"""

from repro.raft.environment import Environment, TimerHandle
from repro.raft.listeners import NodeListener, NodeListenerBase
from repro.raft.messages import (
    AppendEntriesRequest,
    AppendEntriesResponse,
    RequestVoteRequest,
    RequestVoteResponse,
)
from repro.raft.node import RaftNode
from repro.raft.state import Role

__all__ = [
    "AppendEntriesRequest",
    "AppendEntriesResponse",
    "Environment",
    "NodeListener",
    "NodeListenerBase",
    "RaftNode",
    "RequestVoteRequest",
    "RequestVoteResponse",
    "Role",
    "TimerHandle",
]
