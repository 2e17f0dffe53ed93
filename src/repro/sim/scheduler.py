"""Deterministic discrete-event scheduler.

The scheduler owns a :class:`~repro.sim.clock.VirtualClock` and a binary heap
of :class:`~repro.sim.events.ScheduledEvent` entries.  Execution is strictly
ordered by ``(time, insertion sequence)``; cancelled events are skipped lazily
when they reach the head of the heap.

Cancellation is O(1) but leaves the entry in the heap.  Workloads that
re-arm timers constantly (election timeouts reset on every heartbeat) would
grow the heap without bound if cancelled entries were *only* dropped at the
head, so the scheduler keeps an exact count of cancelled-but-queued entries
and compacts the heap -- filter plus ``heapify`` -- whenever they outnumber
the live ones.  Compaction never reorders execution: entries are totally
ordered by ``(time, sequence)``, so rebuilding the heap from the surviving
entries pops them in exactly the same order as the lazy path would have.
The same counter makes :attr:`EventScheduler.pending_count` O(1) instead of
a full heap scan.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from repro.common.errors import SimulationError
from repro.common.types import Milliseconds
from repro.sim.clock import VirtualClock
from repro.sim.events import EventHandle, ScheduledEvent


def _closed() -> None:
    """Callback of an event dropped by :meth:`EventScheduler.close`."""


class EventScheduler:
    """Priority-queue scheduler driving a virtual clock.

    Args:
        clock: the virtual clock to advance.  A fresh clock is created when
            none is supplied.
        max_events: safety valve -- the total number of events the scheduler
            will ever execute.  Runaway simulations (for example a node
            rescheduling a zero-delay timer forever) raise
            :class:`SimulationError` instead of hanging the test suite.
        compact_min_size: heaps smaller than this are never compacted, so
            tiny simulations do not pay rebuild churn.  Above it, the heap is
            compacted as soon as cancelled entries outnumber live ones, which
            bounds the heap at ~2x the live event count.
    """

    def __init__(
        self,
        clock: VirtualClock | None = None,
        max_events: int = 10_000_000,
        compact_min_size: int = 64,
    ) -> None:
        self._clock = clock if clock is not None else VirtualClock()
        self._heap: list[ScheduledEvent] = []
        self._sequence = 0
        self._executed = 0
        self._max_events = max_events
        self._compact_min_size = compact_min_size
        self._cancelled_in_heap = 0
        self._cancellations = 0
        self._compactions = 0
        self._interrupted = False

    @property
    def clock(self) -> VirtualClock:
        """The virtual clock advanced by this scheduler."""
        return self._clock

    def now(self) -> Milliseconds:
        """Current simulated time in milliseconds."""
        return self._clock.now()

    @property
    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued.  O(1)."""
        return len(self._heap) - self._cancelled_in_heap

    @property
    def heap_size(self) -> int:
        """Total heap entries, including cancelled ones awaiting removal."""
        return len(self._heap)

    @property
    def compaction_count(self) -> int:
        """How many times the heap has been compacted (observability)."""
        return self._compactions

    @property
    def executed_count(self) -> int:
        """Total number of events executed so far."""
        return self._executed

    @property
    def scheduled_count(self) -> int:
        """Total number of events ever scheduled (executed or not)."""
        return self._sequence

    @property
    def cancelled_count(self) -> int:
        """Total number of live events that were cancelled."""
        return self._cancellations

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def call_at(
        self, time_ms: Milliseconds, callback: Callable[[], None], label: str = ""
    ) -> EventHandle:
        """Schedule *callback* to run at absolute simulated time *time_ms*."""
        # NaN passes the past-check below (every comparison against NaN is
        # false) and would silently corrupt heap ordering; infinities would
        # wedge run_until_idle.  Reject both outright.
        if not math.isfinite(time_ms):
            raise SimulationError(
                f"cannot schedule event at non-finite time: {time_ms!r}"
            )
        if time_ms < self.now():
            raise SimulationError(
                f"cannot schedule event in the past: {time_ms} < {self.now()}"
            )
        event = ScheduledEvent(
            time_ms=float(time_ms),
            sequence=self._sequence,
            callback=callback,
            label=label,
        )
        self._sequence += 1
        heapq.heappush(self._heap, event)
        return EventHandle(event, on_cancel=self._note_cancelled)

    def call_after(
        self, delay_ms: Milliseconds, callback: Callable[[], None], label: str = ""
    ) -> EventHandle:
        """Schedule *callback* to run *delay_ms* milliseconds from now."""
        if delay_ms < 0:
            raise SimulationError(f"negative delay: {delay_ms}")
        return self.call_at(self.now() + delay_ms, callback, label=label)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Execute the next pending event.

        Returns:
            ``True`` if an event was executed, ``False`` if the queue is empty.
        """
        while self._heap:
            event = heapq.heappop(self._heap)
            event.in_heap = False
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            self._check_budget()
            self._clock.advance_to(event.time_ms)
            self._executed += 1
            event.callback()
            return True
        return False

    def run_until(self, time_ms: Milliseconds) -> None:
        """Execute every event scheduled at or before *time_ms*.

        The clock ends exactly at *time_ms* even if the last event fired
        earlier, so periodic measurements line up with wall-clock sweeps.
        """
        while self._heap:
            head = self._next_pending()
            if head is None or head.time_ms > time_ms:
                break
            self.step()
        if time_ms > self.now():
            self._clock.advance_to(time_ms)

    def run_until_idle(self, max_time_ms: Milliseconds | None = None) -> None:
        """Execute events until the queue drains (or *max_time_ms* is hit)."""
        while True:
            head = self._next_pending()
            if head is None:
                return
            if max_time_ms is not None and head.time_ms > max_time_ms:
                self._clock.advance_to(max_time_ms)
                return
            self.step()

    def run_until_condition(
        self,
        condition: Callable[[], bool],
        max_time_ms: Milliseconds,
    ) -> bool:
        """Execute events until *condition()* becomes true.

        The condition is evaluated before the run starts and after every
        executed event.

        Returns:
            ``True`` if the condition became true, ``False`` if the queue
            drained or *max_time_ms* elapsed first.
        """
        if condition():
            return True
        while True:
            head = self._next_pending()
            if head is None:
                return False
            if head.time_ms > max_time_ms:
                self._clock.advance_to(max_time_ms)
                return condition()
            self.step()
            if condition():
                return True

    def interrupt(self) -> None:
        """Make :meth:`run_until_interrupted` return after the current event."""
        self._interrupted = True

    def run_until_interrupted(self, max_time_ms: Milliseconds) -> bool:
        """Execute events until one of them calls :meth:`interrupt`.

        The waiting side of a condition only some events can change: whoever
        changes it interrupts, and the waiter re-evaluates it between runs,
        instead of :meth:`run_until_condition` calling it after every event.

        Returns:
            ``True`` if an executed event interrupted the run; ``False`` if
            the queue drained first, or *max_time_ms* elapsed (the clock then
            ends at *max_time_ms*, as in :meth:`run_until_condition`).
        """
        self._interrupted = False
        while True:
            head = self._next_pending()
            if head is None:
                return False
            if head.time_ms > max_time_ms:
                self._clock.advance_to(max_time_ms)
                return False
            self.step()
            if self._interrupted:
                return True

    def close(self) -> None:
        """Drop every queued event (the end of a finished simulation).

        Events are cancelled and stripped of their callback as well as
        unqueued, so a timer handle a node still holds no longer refers back
        to the node.
        """
        for event in self._heap:
            event.cancelled = True
            event.in_heap = False
            event.callback = _closed
        self._heap = []
        self._cancelled_in_heap = 0

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _next_pending(self) -> ScheduledEvent | None:
        """Return (without removing) the earliest non-cancelled event."""
        while self._heap and self._heap[0].cancelled:
            discarded = heapq.heappop(self._heap)
            discarded.in_heap = False
            self._cancelled_in_heap -= 1
        return self._heap[0] if self._heap else None

    def _note_cancelled(self, event: ScheduledEvent) -> None:
        """Account for a cancellation and compact the heap when it pays off."""
        if not event.in_heap:
            return
        self._cancellations += 1
        self._cancelled_in_heap += 1
        if (
            len(self._heap) >= self._compact_min_size
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and rebuild the heap in place."""
        survivors = []
        for event in self._heap:
            if event.cancelled:
                event.in_heap = False
            else:
                survivors.append(event)
        self._heap = survivors
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self._compactions += 1

    def _check_budget(self) -> None:
        if self._executed >= self._max_events:
            raise SimulationError(
                f"event budget exhausted after {self._executed} events; "
                "the simulation is probably not converging"
            )
