"""State-machine interface.

A state machine consumes committed log commands in order and produces a result
per command.  Implementations must be deterministic: the same command sequence
must yield the same state and the same results on every server, which is what
makes state-machine replication meaningful.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

# A command is any value a client proposes; it ends up in a log entry.
Command = Any


@runtime_checkable
class StateMachine(Protocol):
    """Deterministic state machine replicated by the consensus protocol."""

    def apply(self, command: Command) -> Any:  # pragma: no cover - protocol
        """Apply one committed command and return its result."""
        ...

    def snapshot(self) -> Any:  # pragma: no cover - protocol
        """Return a serialisable snapshot of the current state."""
        ...

    def restore(self, snapshot: Any) -> None:  # pragma: no cover - protocol
        """Replace the current state with a previously taken snapshot."""
        ...
