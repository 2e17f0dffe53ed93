"""Persistent server state: current term, vote, and the log.

Raft requires ``currentTerm`` and ``votedFor`` to be persisted before a server
answers an RPC, and the log to be persisted before entries are acknowledged.
:class:`InMemoryStore` is the simulator's implementation: "durability" only
needs to survive the simulated crash/recover cycle of a node object.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.common.errors import StorageError
from repro.common.types import ServerId, Term
from repro.storage.log import ReplicatedLog


@runtime_checkable
class PersistentState(Protocol):
    """Interface of the durable state every server keeps."""

    def load_term(self) -> Term:  # pragma: no cover - protocol signature
        ...

    def load_voted_for(self) -> ServerId | None:  # pragma: no cover
        ...

    def save_term_and_vote(
        self, term: Term, voted_for: ServerId | None
    ) -> None:  # pragma: no cover
        ...

    def load_log(self) -> ReplicatedLog:  # pragma: no cover
        ...

    def save_log(self, log: ReplicatedLog) -> None:  # pragma: no cover
        ...


class InMemoryStore:
    """Durable state held in memory.

    Survives protocol-level restarts of a node object (the store outlives the
    node), which is exactly what the simulated crash/recover scenarios need.
    """

    def __init__(self) -> None:
        self._term: Term = 0
        self._voted_for: ServerId | None = None
        self._log = ReplicatedLog()

    def load_term(self) -> Term:
        return self._term

    def load_voted_for(self) -> ServerId | None:
        return self._voted_for

    def save_term_and_vote(self, term: Term, voted_for: ServerId | None) -> None:
        if term < self._term:
            raise StorageError(
                f"refusing to persist a lower term: {term} < {self._term}"
            )
        self._term = term
        self._voted_for = voted_for

    def load_log(self) -> ReplicatedLog:
        return self._log

    def save_log(self, log: ReplicatedLog) -> None:
        self._log = log
