"""The environment abstraction separating protocol logic from IO.

A :class:`~repro.raft.node.RaftNode` interacts with the outside world only
through an :class:`Environment`:

* reading the current time,
* sending a message to one peer or broadcasting to many,
* arming, cancelling and re-arming timers,
* drawing random numbers from its private stream, and
* emitting trace events.

Two implementations exist: the simulator's
:class:`repro.cluster.environment.SimNodeEnvironment` (one class for either
engine) and the tests' hand-driven ``FakeEnvironment`` (``tests/helpers.py``).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from repro.common.types import Milliseconds, ServerId


#: What :meth:`Environment.set_timer` returns: an opaque token.  A node only
#: ever stores it and passes it back to :meth:`Environment.cancel_timer` or
#: :meth:`Environment.rearm_timer`.
TimerHandle = Any


@runtime_checkable
class Environment(Protocol):
    """Everything a protocol node may do to the outside world."""

    def now(self) -> Milliseconds:  # pragma: no cover - protocol signature
        """Current time in milliseconds (simulated or wall-clock)."""
        ...

    def send(self, dst: ServerId, message: Any) -> None:  # pragma: no cover
        """Send one message to one peer (fire-and-forget)."""
        ...

    def broadcast(
        self,
        targets: Sequence[ServerId],
        payload: Any | Callable[[ServerId], Any],
    ) -> None:  # pragma: no cover
        """Send one logical broadcast, in one of two forms.

        * One message for every target (a candidate's RequestVote): the
          transport hands out that object and calls nothing per target.
        * A per-target factory -- *payload* is callable -- invoked once per
          target, so leaders can piggyback per-follower data (log entries,
          ESCAPE configurations).  A factory must be a pure read of node
          state.  No message is callable, so the two forms cannot be
          confused.

        Either way the transport applies broadcast-level fault injection
        (Section VI-D's loss model) to the broadcast as a whole, and both
        forms of the same payloads are the same broadcast to every counter,
        draw and delivery.
        """
        ...

    def set_timer(
        self, delay_ms: Milliseconds, callback: Callable[[], None], label: str = ""
    ) -> TimerHandle:  # pragma: no cover
        """Arm a one-shot timer; *label* names it for whoever inspects timers
        (the tests' fake selects timers by it)."""
        ...

    def cancel_timer(self, handle: TimerHandle) -> None:  # pragma: no cover
        """Cancel a previously armed timer (safe to call twice)."""
        ...

    def rearm_timer(
        self,
        handle: TimerHandle | None,
        delay_ms: Milliseconds,
        callback: Callable[[], None],
        label: str = "",
    ) -> TimerHandle:  # pragma: no cover
        """``cancel_timer(handle)`` (when there is one; it may have fired or
        been cancelled) then ``set_timer(delay_ms, callback, label)``, by
        definition.  A follower does this per heartbeat, so an implementation
        may do it cheaper (``flat`` moves the queued record) -- never
        observably differently, to a node or to a counter."""
        ...

    @property
    def rng(self) -> random.Random:  # pragma: no cover
        """This node's private random stream (timeout draws).  The simulator
        creates it on first read; when that happens changes no draw."""
        ...

    def trace(self, category: str, **detail: Any) -> None:  # pragma: no cover
        """Emit a structured trace event attributed to this node."""
        ...
