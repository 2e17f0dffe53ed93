"""The ``classic`` engine's scheduler: the reference ``FlatEventScheduler`` is
diffed against.

A binary heap of :class:`Timer` objects ordered by ``(time_ms, sequence)``.
The sequence number is assigned at insertion, so events scheduled for the same
instant run in the order they were scheduled -- the stable tie-break that
makes a run reproducible.  Cancelling sets a flag; a cancelled timer is
dropped when it reaches the head of the heap.  No compaction, no cancelled-
entry bookkeeping, no fast path: every ``run_*`` method is one loop over
:meth:`EventScheduler.step`, so the order events run in can be read off here.

Lazy deletion does not leak: a cancelled timer leaves the heap at the latest
when its time comes, and nothing arms a timer further ahead than one election-
timeout window, so the heap is bounded by what is scheduled inside one window.
(``flat`` compacts instead, which is why ``heap_size`` and ``compaction_count``
are engine-owned gauges; see :mod:`oracle`.)
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from repro.common.errors import SimulationError
from repro.common.types import Milliseconds
from repro.sim.clock import VirtualClock


class Timer:
    """One queued event, and the handle its scheduler hands back for it.
    ``callback`` is ``None`` once it fired or its scheduler was closed: the
    timer is then in no heap, and cancelling it counts for nothing."""

    __slots__ = ("time_ms", "sequence", "callback", "label", "cancelled", "_scheduler")

    def __init__(self, scheduler, time_ms, sequence, callback, label) -> None:
        self._scheduler: EventScheduler = scheduler
        self.time_ms: Milliseconds = time_ms
        self.sequence: int = sequence
        self.callback: Callable[[], None] | None = callback
        self.label: str = label
        self.cancelled = False

    def __lt__(self, other: "Timer") -> bool:
        return (self.time_ms, self.sequence) < (other.time_ms, other.sequence)

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self._scheduler.cancel_entry(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timer({self.time_ms:.3f}ms {self.label!r} cancelled={self.cancelled})"


class EventScheduler:
    """Priority-queue scheduler driving *clock* (a fresh one when omitted).
    *max_events* bounds how many events it will ever execute, so a runaway
    simulation raises :class:`SimulationError` instead of hanging."""

    compaction_count = 0  # never compacts

    def __init__(
        self, clock: VirtualClock | None = None, max_events: int = 10_000_000
    ) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self.scheduled_count = 0  # events ever given a sequence number
        self.executed_count = 0
        self.cancelled_count = 0  # live events that were cancelled
        self._heap: list[Timer] = []
        self._max_events = max_events
        self._interrupted = False

    def now(self) -> Milliseconds:
        """Current simulated time in milliseconds."""
        return self.clock.now()

    @property
    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued (a heap scan)."""
        return sum(1 for timer in self._heap if not timer.cancelled)

    @property
    def heap_size(self) -> int:
        """Heap entries, cancelled ones that have not reached the head included."""
        return len(self._heap)

    def call_at(
        self, time_ms: Milliseconds, callback: Callable[[], None], label: str = ""
    ) -> Timer:
        """Schedule *callback* to run at absolute simulated time *time_ms*."""
        # A NaN would corrupt heap order, an infinity wedge run_until_idle.
        if not self.now() <= time_ms < math.inf:
            raise SimulationError(
                f"cannot schedule event at {time_ms!r}: non-finite time, or in "
                f"the past of {self.now()}"
            )
        timer = Timer(self, float(time_ms), self.scheduled_count, callback, label)
        self.scheduled_count += 1
        heapq.heappush(self._heap, timer)
        return timer

    def call_after(
        self, delay_ms: Milliseconds, callback: Callable[[], None], label: str = ""
    ) -> Timer:
        """Schedule *callback* to run *delay_ms* milliseconds from now."""
        if delay_ms < 0:
            raise SimulationError(f"negative delay: {delay_ms}")
        return self.call_at(self.now() + delay_ms, callback, label)

    #: A node timer, what ``Environment.set_timer`` is bound to on either
    #: engine; its token is only ever passed back to :meth:`cancel_entry` or
    #: :meth:`rearm_timer_entry`.
    schedule_timer_entry = call_after

    def cancel_entry(self, timer: Timer) -> None:
        """Cancel a timer.  Idempotent; one that already fired is not counted."""
        if timer.cancelled:
            return
        timer.cancelled = True
        if timer.callback is not None:
            self.cancelled_count += 1

    def rearm_timer_entry(
        self,
        timer: Timer | None,
        delay_ms: Milliseconds,
        callback: Callable[[], None],
        label: str = "",
    ) -> Timer:
        """Replace a node timer: cancel *timer* (if any), arm a new one.  This
        is the definition ``flat`` must be indistinguishable from."""
        if timer is not None:
            self.cancel_entry(timer)
        return self.call_after(delay_ms, callback, label)

    def step(self) -> bool:
        """Execute the next live event; ``False`` if there is none."""
        if not self._due(math.inf):
            return False
        if self.executed_count >= self._max_events:
            raise SimulationError(
                f"event budget exhausted after {self.executed_count} events; "
                "the simulation is probably not converging"
            )
        timer = heapq.heappop(self._heap)
        self.clock.advance_to(timer.time_ms)
        self.executed_count += 1
        callback, timer.callback = timer.callback, None
        callback()
        return True

    def run_until(self, time_ms: Milliseconds) -> None:
        """Execute every event at or before *time_ms*; the clock ends there."""
        while self._due(time_ms):
            self.step()
        if time_ms > self.now():
            self.clock.advance_to(time_ms)

    def run_until_idle(self, max_time_ms: Milliseconds = math.inf) -> None:
        """Execute events until the queue drains, or up to *max_time_ms*
        (the clock ends there if anything later is still queued)."""
        while self._due(max_time_ms):
            self.step()
        if self._heap:
            self.clock.advance_to(max_time_ms)

    def run_until_condition(
        self, condition: Callable[[], bool], max_time_ms: Milliseconds
    ) -> bool:
        """Execute events until *condition()* holds: checked before the run
        and after every event.  ``False`` if the queue drained or *max_time_ms*
        elapsed first (the clock then ends at *max_time_ms*)."""
        if condition():
            return True
        while self._due(max_time_ms):
            self.step()
            if condition():
                return True
        if not self._heap:
            return False
        self.clock.advance_to(max_time_ms)
        return condition()

    def interrupt(self) -> None:
        """Make :meth:`run_until_interrupted` return after the current event."""
        self._interrupted = True

    def run_until_interrupted(self, max_time_ms: Milliseconds) -> bool:
        """Execute events until one of them calls :meth:`interrupt`: the wait
        for a condition whose every change interrupts, re-evaluated by the
        waiter between runs.  ``False`` if the queue drained or *max_time_ms*
        elapsed first (the clock then ends at *max_time_ms*)."""
        self._interrupted = False
        while self._due(max_time_ms):
            self.step()
            if self._interrupted:
                return True
        if self._heap:
            self.clock.advance_to(max_time_ms)
        return False

    def close(self) -> None:
        """Drop every queued event, callbacks included, so that a timer a
        node still holds no longer refers back to the node."""
        for timer in self._heap:
            timer.callback = None
        self._heap = []

    def _due(self, limit_ms: Milliseconds) -> bool:
        """Is a live event queued at or before *limit_ms*?  Drops cancelled heads."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        return bool(heap) and heap[0].time_ms <= limit_ms
