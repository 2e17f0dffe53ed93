"""The ``flat`` engine's event core: slotted list records instead of objects.

This is the production scheduler.  It implements the contract of
:mod:`repro.sim.engines` -- the one the test suite's reference engine states
in its simplest form, a heap of timer objects -- but represents every queued
event as a plain 4-slot list ``[time_ms, sequence, fn, arg]`` on a binary
heap:

* no timer object per node timer -- arming one
  is one list allocation and one ``heappush``, re-arming a queued one
  (:meth:`FlatEventScheduler.rearm_timer_entry`) a few slot writes;
* list comparison happens element-wise in C and the unique ``sequence``
  slot guarantees ``fn`` is never compared, preserving the contract's
  strict ``(time, insertion sequence)`` execution order;
* cancellation clears the ``fn`` slot in place (``None`` marks the record
  dead); popped records clear their own ``fn`` slot before firing, so a
  callback cancelling its own just-fired record is a no-op and dead-record
  accounting can rely on ``fn is None`` alone;
* a record with an ``arg`` is dispatched as ``fn(arg)``: the flat network
  pushes its one held delivery callable plus one ``(src, dst, payload)``
  tuple per message straight onto this heap instead of building a closure;
* there is one hot run loop, :meth:`FlatEventScheduler._run` ("events at or
  before a limit until one interrupts"); ``run_until`` / ``run_until_idle``
  re-enter it when an event interrupted, ``run_until_interrupted`` adds the
  clock-to-deadline step, and ``step`` runs it for one event;
* the loop delivers a message record itself when the flat network that
  pushed it can reach the destination (not disconnected, not across a
  partition) and the destination is a dispatching node that has already
  resolved the payload's type: it calls that node's typed handler, with no
  network frame between (``docs/design-notes.md``, "One frame per
  delivery").  Every other record goes to ``fn(arg)``;
* the loop advances the clock by writing ``VirtualClock._now_ms``
  directly.  This is safe because heap pops yield non-decreasing times and
  every entry time was validated finite and non-past at scheduling time
  (the boundary advances at ``run_until*`` limits still go through the
  validating :meth:`~repro.sim.clock.VirtualClock.advance_to`).

Cancellation is lazy, but a workload that re-arms timers constantly would
grow the heap with dead records, so they are filtered out (filter plus
``heapify``; records are totally ordered by ``(time, sequence)``, so the
survivors pop in the order they would have anyway) as soon as they outnumber
the live ones in a heap of at least :data:`COMPACT_MIN_SIZE` records.  That
makes ``heap_size`` and ``compaction_count`` this engine's own gauges; the
``scheduled_count`` / ``executed_count`` / ``cancelled_count`` /
``pending_count`` counters and the ``max_events`` budget read the same as the
reference engine's for the same workload.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from repro.common.errors import SimulationError
from repro.common.types import Milliseconds
from repro.sim.clock import VirtualClock

__all__ = ["FlatEventHandle", "FlatEventScheduler"]

_INF = math.inf

#: Heaps smaller than this are never compacted, so tiny simulations pay no
#: rebuild churn; above it the heap holds at most ~2x the live records.
COMPACT_MIN_SIZE = 64

#: Record slot indices (records are plain lists for C-level heap compares).
#: A record is live when ``fn`` is set and dead when ``fn`` and ``arg`` are
#: ``None``; a node timer is *moved* (:meth:`FlatEventScheduler.rearm_timer_entry`)
#: when ``arg`` holds its callback: its two extra slots are the key it moves to.
_TIME, _SEQ, _FN, _ARG, _MOVED_TIME, _MOVED_SEQ = 0, 1, 2, 3, 4, 5


class FlatEventHandle:
    """Cancellable handle for events scheduled through the *public* API.

    Node environments bypass handles entirely (a timer token is the raw
    record), but ``call_at``/``call_after`` return an object with a timer's
    ``cancel()`` / ``cancelled`` / ``time_ms`` / ``label``.
    """

    __slots__ = ("_scheduler", "_entry", "_cancelled", "_label")

    def __init__(
        self, scheduler: "FlatEventScheduler", entry: list, label: str = ""
    ) -> None:
        self._scheduler = scheduler
        self._entry = entry
        self._cancelled = False
        self._label = label

    @property
    def time_ms(self) -> Milliseconds:
        """The simulated time this event is scheduled to fire at."""
        return self._entry[_TIME]

    @property
    def label(self) -> str:
        """Optional human-readable label (diagnostics only)."""
        return self._label

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        self._scheduler.cancel_entry(self._entry)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        return f"FlatEventHandle(t={self.time_ms:.3f}ms, {self._label!r}, {state})"


class FlatEventScheduler:
    """Array-backed scheduler behind the engine-seam scheduler contract.

    Args:
        clock: the virtual clock to advance (fresh one when omitted).
        max_events: execution budget; exceeding it raises
            :class:`SimulationError`.
    """

    def __init__(
        self, clock: VirtualClock | None = None, max_events: int = 10_000_000
    ) -> None:
        self._clock = clock if clock is not None else VirtualClock()
        self._heap: list[list] = []
        self._sequence = 0
        self._executed = 0
        self._max_events = max_events
        self._cancelled_in_heap = 0
        self._cancellations = 0
        self._compactions = 0
        self._interrupted = False
        # The flat network whose message records the run loop delivers
        # itself (it attaches on construction; close() lets it go).
        self._network = None

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
        """Total heap records, including dead ones awaiting removal."""
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
    # Scheduling -- public (handle-returning) surface
    # ------------------------------------------------------------------ #
    def call_at(
        self, time_ms: Milliseconds, callback: Callable[[], None], label: str = ""
    ) -> FlatEventHandle:
        """Schedule *callback* to run at absolute simulated time *time_ms*."""
        if not math.isfinite(time_ms):
            raise SimulationError(
                f"cannot schedule event at non-finite time: {time_ms!r}"
            )
        if time_ms < self._clock.now():
            raise SimulationError(
                f"cannot schedule event in the past: {time_ms} < {self.now()}"
            )
        entry = [float(time_ms), self._sequence, callback, None]
        self._sequence += 1
        heapq.heappush(self._heap, entry)
        return FlatEventHandle(self, entry, label)

    def call_after(
        self, delay_ms: Milliseconds, callback: Callable[[], None], label: str = ""
    ) -> FlatEventHandle:
        """Schedule *callback* to run *delay_ms* milliseconds from now."""
        if delay_ms < 0:
            raise SimulationError(f"negative delay: {delay_ms}")
        return self.call_at(self._clock.now() + delay_ms, callback, label=label)

    # ------------------------------------------------------------------ #
    # Scheduling -- node timers (no handle objects)
    # ------------------------------------------------------------------ #
    def schedule_timer_entry(
        self, delay_ms: Milliseconds, callback: Callable[[], None], label: str = ""
    ) -> list:
        """Queue a node timer and return the raw record as its handle.

        The node environment binds this method directly as its ``set_timer``
        (zero adapter frames), so the signature accepts -- and ignores -- the
        environment contract's ``label`` keyword.  Timers are cancelled via
        :meth:`cancel_entry` and moved via :meth:`rearm_timer_entry`.
        """
        if delay_ms < 0:
            raise SimulationError(f"negative delay: {delay_ms}")
        time_ms = self._clock._now_ms + delay_ms
        if not time_ms < _INF:  # rejects +inf and NaN (e.g. a NaN delay)
            raise SimulationError(
                f"cannot schedule event at non-finite time: {time_ms!r}"
            )
        seq = self._sequence
        self._sequence = seq + 1
        entry = [time_ms, seq, callback, None, 0.0, 0]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel_entry(self, entry: list) -> None:
        """Cancel a queued record in place.  Idempotent; a no-op for records
        that already fired (their ``fn`` slot is cleared on pop)."""
        if entry[_FN] is None and entry[_ARG] is None:
            return
        entry[_FN] = None
        entry[_ARG] = None
        self._note_cancelled()

    def rearm_timer_entry(
        self,
        entry: list | None,
        delay_ms: Milliseconds,
        callback: Callable[[], None],
        label: str = "",
    ) -> list:
        """``cancel_entry(entry)`` then ``schedule_timer_entry(delay_ms,
        callback)``, without the dead record when *entry* is still queued.

        The pair would push a record keyed ``(now + delay_ms, next sequence
        number)``.  A queued record sitting no later than that keeps its slot,
        remembers the key, and :meth:`_drop_head` re-queues it under it when it
        surfaces: live events pop in the pair's order and the four counters
        read the same; only ``heap_size`` / ``compaction_count`` differ.
        Any other case *is* the pair.
        """
        if entry is not None:
            deadline = self._clock._now_ms + delay_ms
            if (
                (entry[_FN] is not None or entry[_ARG] is not None)
                and 0 <= delay_ms
                and entry[_TIME] <= deadline < _INF
            ):
                seq = self._sequence
                self._sequence = seq + 1
                self._cancellations += 1
                entry[_FN] = None
                entry[_ARG] = callback
                entry[_MOVED_TIME] = deadline
                entry[_MOVED_SEQ] = seq
                return entry
            self.cancel_entry(entry)
        return self.schedule_timer_entry(delay_ms, callback)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Execute the next pending event; ``False`` if the queue is empty."""
        return self._run(_INF, once=True)

    def _run(self, limit_ms: Milliseconds, once: bool = False) -> bool:
        """The run loop: events at or before *limit_ms* until one interrupts.

        Returns ``True`` right after an event that called :meth:`interrupt`
        (after the first event, when *once* is set); ``False`` once nothing
        live is queued at or before *limit_ms* -- the heap is then empty, or
        its head is a live record later than the limit (dead and moved
        records reaching the head go through :meth:`_drop_head`).

        A message record of the attached network is delivered here when its
        destination is reachable -- not disconnected, and in the sender's
        cell if a partition is installed -- and is a node that has resolved
        the payload's type: counted as delivered, then handed to the typed
        handler if the node runs, which is what its ``fn``
        (``FlatNetwork._deliver_fast``, then the node's ``on_message``) would
        do.  The test is per destination, so after a crash only the records
        addressed to the crashed node take ``fn(arg)`` (which drops them in
        flight), and a fault hook, tested when a message is sent, sends none
        there.  Every other case is ``fn(arg)``.
        """
        self._interrupted = once
        heap = self._heap
        clock = self._clock
        pop = heapq.heappop
        max_events = self._max_events
        network = self._network
        if network is None:
            deliver = nodes = disconnected = cells = stats = None
        else:
            deliver = network._deliver
            nodes = network._nodes
            disconnected = network._disconnected
            cells = network._cells
            stats = network._stats
        while heap:
            entry = heap[0]
            fn = entry[_FN]
            if fn is None:
                self._drop_head()
                continue
            if entry[_TIME] > limit_ms:
                return False
            pop(heap)
            if self._executed >= max_events:
                self._budget_exhausted()
            clock._now_ms = entry[_TIME]
            self._executed += 1
            entry[_FN] = None
            arg = entry[_ARG]
            if arg is None:
                fn()
            elif fn is deliver:
                src, dst, payload = arg
                node = nodes.get(dst)
                if (
                    node is None  # a plain handler
                    or dst in disconnected
                    or (cells and cells[src] != cells[dst])
                ):
                    fn(arg)
                else:
                    typed = node._typed_handlers.get(type(payload))
                    if typed is None:
                        fn(arg)  # the first of its type: the node resolves it
                    else:
                        stats.delivered += 1
                        if node._running:
                            typed(node, src, payload)
            else:
                fn(arg)
            if self._interrupted:
                return True
        return False

    def run_until(self, time_ms: Milliseconds) -> None:
        """Execute every event scheduled at or before *time_ms*.

        The clock ends exactly at *time_ms* even if the last event fired
        earlier, so periodic measurements line up with wall-clock sweeps.
        """
        while self._run(time_ms):
            pass  # an interrupt is for run_until_interrupted; carry on
        if time_ms > self._clock.now():
            self._clock.advance_to(time_ms)

    def run_until_idle(self, max_time_ms: Milliseconds = _INF) -> None:
        """Execute events until the queue drains (or *max_time_ms* is hit)."""
        while self._run(max_time_ms):
            pass
        if self._heap:
            self._clock.advance_to(max_time_ms)

    def run_until_condition(  # repro: allow[U1] -- test_engine_contract, test_duplication_and_churn
        self, condition: Callable[[], bool], max_time_ms: Milliseconds
    ) -> bool:
        """Execute events until *condition()* becomes true.

        The condition is evaluated before the run starts and after every
        executed event.  Nothing in ``src/`` waits this way (see
        :meth:`run_until_interrupted`); it is the reference the interrupt
        path is tested against, written as a loop over :meth:`step`.

        Returns:
            ``True`` if the condition became true, ``False`` if the queue
            drained or *max_time_ms* elapsed first.
        """
        if condition():
            return True
        heap = self._heap
        while True:
            while heap and heap[0][_FN] is None:
                self._drop_head()
            if not heap:
                return False
            if heap[0][_TIME] > max_time_ms:
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
        if self._run(max_time_ms):
            return True
        if self._heap:
            self._clock.advance_to(max_time_ms)
        return False

    def close(self) -> None:
        """Drop every queued record (the end of a finished simulation).

        Records are cleared as well as unqueued: node timers hold their raw
        records, whose ``fn`` slot is the node's own bound method, and the
        delivery tuples hold payloads -- the references that would otherwise
        leave a finished cluster to the cycle collector.  The attached
        network is let go for the same reason (it holds the world, which
        holds this scheduler).
        """
        heap = self._heap
        for entry in heap:
            entry[_FN] = entry[_ARG] = None
        heap.clear()
        self._cancelled_in_heap = 0
        self._network = None

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _drop_head(self) -> None:
        """Take a head record with an empty ``fn`` slot off the heap: a dead
        one for good, a moved one back in under its new key.  Not an event."""
        entry = heapq.heappop(self._heap)
        callback = entry[_ARG]
        if callback is None:
            self._cancelled_in_heap -= 1
            return
        entry[_TIME] = entry[_MOVED_TIME]
        entry[_SEQ] = entry[_MOVED_SEQ]
        entry[_FN] = callback
        entry[_ARG] = None
        heapq.heappush(self._heap, entry)

    def _note_cancelled(self) -> None:
        """Account for a cancellation; compact when dead records dominate."""
        self._cancellations += 1
        self._cancelled_in_heap += 1
        heap = self._heap
        if (
            len(heap) >= COMPACT_MIN_SIZE
            and self._cancelled_in_heap * 2 > len(heap)
        ):
            # In place (slice assignment, not rebinding): the run loops hold
            # the heap list in a local, so the compacted heap must keep its
            # identity or a compaction fired from inside a callback would
            # leave the running loop draining a stale list.
            heap[:] = [e for e in heap if e[_FN] is not None or e[_ARG] is not None]
            heapq.heapify(heap)
            self._cancelled_in_heap = 0
            self._compactions += 1

    def _budget_exhausted(self) -> None:
        raise SimulationError(
            f"event budget exhausted after {self._executed} events; "
            "the simulation is probably not converging"
        )
