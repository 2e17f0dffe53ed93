"""Observer interface for protocol events.

The cluster harness attaches listeners to every node to measure exactly the
quantities the paper's figures decompose: when the leader crash was *detected*
(first election timeout), when each campaign started, when a new leader
emerged, and whether votes split.  Applications can attach their own listeners
for logging or metrics export.

A node calls, per event, only the listeners :func:`enter_listener` found to listen.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Protocol, runtime_checkable

from repro.common.types import LogIndex, Milliseconds, ServerId, Term
from repro.raft.state import Role


@runtime_checkable
class NodeListener(Protocol):
    """Callbacks invoked synchronously by a node as protocol events happen."""

    def on_role_change(
        self,
        node_id: ServerId,
        old_role: Role,
        new_role: Role,
        term: Term,
        time_ms: Milliseconds,
    ) -> None:  # pragma: no cover - protocol signature
        ...

    def on_election_timeout(
        self, node_id: ServerId, term: Term, attempt: int, time_ms: Milliseconds
    ) -> None:  # pragma: no cover
        ...

    def on_election_started(
        self, node_id: ServerId, term: Term, time_ms: Milliseconds
    ) -> None:  # pragma: no cover
        ...

    def on_vote_granted(
        self,
        voter_id: ServerId,
        candidate_id: ServerId,
        term: Term,
        time_ms: Milliseconds,
    ) -> None:  # pragma: no cover
        ...

    def on_leader_elected(
        self,
        leader_id: ServerId,
        term: Term,
        votes: int,
        time_ms: Milliseconds,
    ) -> None:  # pragma: no cover
        ...

    def on_entry_committed(
        self,
        node_id: ServerId,
        index: LogIndex,
        term: Term,
        time_ms: Milliseconds,
    ) -> None:  # pragma: no cover
        ...


class NodeListenerBase:
    """No-op implementation of :class:`NodeListener`; subclass what you need."""

    def on_role_change(
        self,
        node_id: ServerId,
        old_role: Role,
        new_role: Role,
        term: Term,
        time_ms: Milliseconds,
    ) -> None:
        return None

    def on_election_timeout(
        self, node_id: ServerId, term: Term, attempt: int, time_ms: Milliseconds
    ) -> None:
        return None

    def on_election_started(
        self, node_id: ServerId, term: Term, time_ms: Milliseconds
    ) -> None:
        return None

    def on_vote_granted(
        self,
        voter_id: ServerId,
        candidate_id: ServerId,
        term: Term,
        time_ms: Milliseconds,
    ) -> None:
        return None

    def on_leader_elected(
        self,
        leader_id: ServerId,
        term: Term,
        votes: int,
        time_ms: Milliseconds,
    ) -> None:
        return None

    def on_entry_committed(
        self,
        node_id: ServerId,
        index: LogIndex,
        term: Term,
        time_ms: Milliseconds,
    ) -> None:
        return None


_NOOPS = tuple(
    (name, noop) for name, noop in vars(NodeListenerBase).items() if name[:3] == "on_"
)
_EVENTS = tuple(name for name, _ in _NOOPS)

#: Per event, the bound methods to call.
ListenerTable = dict[str, tuple[Callable[..., Any], ...]]


def listener_table(listeners: Iterable[NodeListener] = ()) -> ListenerTable:
    """A listener table with each of *listeners* entered (empty by default)."""
    table = dict.fromkeys(_EVENTS, ())
    for listener in listeners:
        enter_listener(table, listener)
    return table


def enter_listener(table: ListenerTable, listener: NodeListener) -> None:
    """Enter *listener* under every event it listens to: those its class does
    not leave at :class:`NodeListenerBase`'s no-op (so a listener that does not
    derive from the base is told everything)."""
    cls = type(listener)
    for event, noop in _NOOPS:
        if getattr(cls, event, None) is not noop:
            table[event] += (getattr(listener, event),)
