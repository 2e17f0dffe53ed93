"""Baseline Raft implementation (leader election + log replication).

The node core is *sans-IO*: :class:`~repro.raft.node.RaftNode` never touches
sockets, threads or clocks directly.  It talks to an
:class:`~repro.raft.environment.Environment` (provided by the discrete-event
simulator, or a hand-driven fake in the tests) and exposes explicit extension hooks that
:class:`repro.escape.node.EscapeNode` and :class:`repro.zraft.node.ZRaftNode`
override -- mirroring the paper's argument that ESCAPE changes only the
election mechanism and leaves log replication untouched.
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
from repro.raft.timers import (
    ElectionTimeoutPolicy,
    FixedTimeoutPolicy,
    RandomizedTimeoutPolicy,
)

__all__ = [
    "AppendEntriesRequest",
    "AppendEntriesResponse",
    "ElectionTimeoutPolicy",
    "Environment",
    "FixedTimeoutPolicy",
    "NodeListener",
    "NodeListenerBase",
    "RaftNode",
    "RandomizedTimeoutPolicy",
    "RequestVoteRequest",
    "RequestVoteResponse",
    "Role",
    "TimerHandle",
]
