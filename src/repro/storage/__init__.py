"""Durable-state substrate: the replicated log and persistent server state.

Raft (and therefore ESCAPE) persists three things before answering any RPC:
the current term, the vote cast in that term, and the log.  This package
provides the log structure with Raft's up-to-date comparison and consistency
check, plus the in-memory persistent store.
"""

from repro.storage.log import LogEntry, ReplicatedLog
from repro.storage.persistent import InMemoryStore, PersistentState

__all__ = [
    "InMemoryStore",
    "LogEntry",
    "PersistentState",
    "ReplicatedLog",
]
