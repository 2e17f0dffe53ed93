"""A replicated key-value store state machine.

The key-value store is the workload used by the examples: clients propose
``PUT``/``DELETE``/``CAS`` commands through the leader, and every server ends
up with the same map.  ``GET`` is included as a command so linearisable reads
can be driven through the log as well.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import ProtocolError
from repro.common.frozen import value_object


@value_object(slots=True)
class PutCommand:
    """Set *key* to *value*; returns the previous value (or ``None``)."""

    key: str
    value: Any


@value_object(slots=True)
class GetCommand:
    """Read *key* through the log (linearisable read); returns the value."""

    key: str


@value_object(slots=True)
class DeleteCommand:
    """Remove *key*; returns ``True`` when the key existed."""

    key: str


@value_object(slots=True)
class CompareAndSwapCommand:
    """Set *key* to *new_value* only when it currently equals *expected*.

    Returns ``True`` when the swap happened.
    """

    key: str
    expected: Any
    new_value: Any


class KeyValueStore:
    """Deterministic in-memory key-value map."""

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}
        self.applied_count = 0

    # ------------------------------------------------------------------ #
    # StateMachine interface
    # ------------------------------------------------------------------ #
    def apply(self, command: Any) -> Any:
        """Apply a committed command and return its result.

        Raises:
            ProtocolError: for anything but the four commands above; a
                refused command is not counted in ``applied_count``.
        """
        if isinstance(command, PutCommand):
            result = self._data.get(command.key)
            self._data[command.key] = command.value
        elif isinstance(command, GetCommand):
            result = self._data.get(command.key)
        elif isinstance(command, DeleteCommand):
            result = self._data.pop(command.key, None) is not None
        elif isinstance(command, CompareAndSwapCommand):
            result = self._data.get(command.key) == command.expected
            if result:
                self._data[command.key] = command.new_value
        else:
            raise ProtocolError(f"KeyValueStore cannot apply {command!r}")
        self.applied_count += 1
        return result

    def snapshot(self) -> dict[str, Any]:
        """A copy of the current map, suitable for JSON serialisation."""
        return dict(self._data)

    def restore(self, snapshot: dict[str, Any]) -> None:
        """Replace the current contents with *snapshot*."""
        self._data = dict(snapshot)

    # ------------------------------------------------------------------ #
    # Convenience accessors (read-only, not linearisable)
    # ------------------------------------------------------------------ #
    def get(self, key: str, default: Any = None) -> Any:
        """Local (non-linearisable) read of *key*."""
        return self._data.get(key, default)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data
