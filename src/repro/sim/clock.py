"""Virtual clock for the discrete-event simulator.

The clock measures simulated milliseconds.  Only the event scheduler advances
it; protocol code reads the current time through the environment abstraction
and never sleeps.
"""

from __future__ import annotations

from repro.common.errors import SimulationError
from repro.common.types import Milliseconds


class VirtualClock:
    """A monotonically non-decreasing simulated clock in milliseconds."""

    def __init__(self, start_ms: Milliseconds = 0.0) -> None:
        if start_ms < 0:
            raise SimulationError(f"clock cannot start in the past: {start_ms}")
        self._now_ms: Milliseconds = float(start_ms)

    def now(self) -> Milliseconds:
        """Current simulated time in milliseconds."""
        return self._now_ms

    def advance_to(self, time_ms: Milliseconds) -> None:
        """Move the clock forward to *time_ms*.

        Raises:
            SimulationError: if *time_ms* is earlier than the current time.
        """
        if time_ms < self._now_ms:
            raise SimulationError(
                f"clock cannot move backwards: {time_ms} < {self._now_ms}"
            )
        self._now_ms = float(time_ms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now_ms:.3f}ms)"
