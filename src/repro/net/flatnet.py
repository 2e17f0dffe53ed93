"""The ``flat`` engine's network fabric: allocation-lean.

:class:`FlatNetwork` subclasses :class:`~repro.net.network.SimulatedNetwork`
-- registration, connectivity control, partition management and the
:class:`~repro.net.network.NetworkStats` counters are inherited unchanged --
and replaces the hot send/broadcast/delivery paths:

* deliveries are pushed straight onto the flat scheduler's heap as 4-slot
  records (``[time, seq, self._deliver, (src, dst, payload)]``, where
  ``_deliver`` is :meth:`FlatNetwork._deliver_fast` bound once at
  construction); no timer object, no closure, no bound method and no
  scheduler call frame per message;
* a delivery to a protocol node goes from that record straight to the node's
  handler for the message's type (see :meth:`FlatNetwork.register`): the
  scheduler's run loop does it itself when the destination is reachable
  (not disconnected, in the sender's partition cell) and the type is
  resolved, and :meth:`FlatNetwork._deliver_fast` does every other case --
  the in-flight drops, and the registered handler for a plain handler or
  the first message of a type (``docs/design-notes.md``, "One frame per
  delivery");
* the latency sampler is inlined for the model every scenario uses:
  :class:`~repro.net.latency.UniformLatency` becomes
  ``low + spread * rng.random()`` (bit-identical to ``rng.uniform`` --
  CPython computes exactly ``a + (b - a) * random()``); every other model
  goes through its ``sample`` hook;
* fault hooks that provably draw no randomness *and* always answer "don't
  drop" are skipped: :class:`~repro.net.faults.NoFault` everywhere,
  :class:`~repro.net.faults.BroadcastOmissionFault` unicasts when
  ``affect_unicast`` is off, and
  :class:`~repro.net.faults.MessageDuplicationFault` drop checks.  Anything
  else is called once per copy, preserving the fault RNG stream
  draw-for-draw;
* partition reachability is the manager's identity-stable
  :attr:`~repro.net.partition.PartitionManager.cell_map` dict, held once at
  construction and tested with ``if cells and cells[src] != cells[dst]``
  per message instead of a ``can_communicate`` call;
* a send's drop tests (disconnected, unicast fault, partition) run only
  while ``_impaired`` or that dict is set; ``_impaired`` is recomputed where
  its inputs change (``disconnect``, ``reconnect``, ``set_fault``), so a
  message on a healthy network pays two attribute tests for all three.  A
  delivery's in-flight drops are decided per destination (disconnected,
  then the partition map), so a disconnected node or a fault hook slows
  none of the other deliveries;
* a send is counted by one increment of
  :attr:`~repro.net.network.NetworkStats.sent_by_class` (keyed by the
  payload's class, no name lookup), and a broadcast of one message for every
  target by one increment for the whole broadcast;
* broadcasts run in a single pass with every per-message attribute lookup
  hoisted out of the loop.  The pass keeps the per-destination order --
  latency draw, then duplication check, then the duplicate's latency draw
  -- of one unicast per target, so the latency and fault RNG streams stay
  bit-identical.

The drop bookkeeping (stats + ``net.drop`` traces, including the in-flight
variants) is the schema of :mod:`repro.net.network`; the engine-contract and
differential suites assert equality of stats and traces with the test
suite's reference engine and across the two broadcast forms.
"""

from __future__ import annotations

import math
from heapq import heappush
from typing import Any, Callable, Iterable, Sequence

from repro.common.errors import NetworkError, SimulationError
from repro.common.types import ServerId
from repro.net.faults import (
    BroadcastOmissionFault,
    FaultInjector,
    MessageDuplicationFault,
    NoFault,
)
from repro.net.latency import LatencyModel, UniformLatency
from repro.net.network import SimulatedNetwork
from repro.sim.world import SimulationWorld

__all__ = ["FlatNetwork"]

_INF = math.inf


class FlatNetwork(SimulatedNetwork):
    """Closure-free network fabric, bit-identical to the reference one.

    Requires a world built with the ``flat`` engine: the network reaches
    into :class:`~repro.sim.flatcore.FlatEventScheduler` internals (its heap
    list and sequence counter -- both engine-owned, and the heap's identity
    is stable across compactions by design) to push delivery records without
    a call frame.  :func:`repro.cluster.builder.build_cluster` guarantees
    the pairing through the engine spec.
    """

    def __init__(
        self,
        world: SimulationWorld,
        members: Iterable[ServerId],
        latency: LatencyModel | None = None,
        fault: FaultInjector | None = None,
    ) -> None:
        super().__init__(world, members, latency=latency, fault=fault)
        self._member_set = frozenset(self._members)
        scheduler = world.scheduler
        self._flat_scheduler = scheduler
        # Engine-internal coupling: the flat scheduler compacts its heap in
        # place (slice assignment), so this list reference stays valid for
        # the scheduler's lifetime.
        self._heap: list[list] = scheduler._heap
        self._clock = world.clock
        # Identity-stable: PartitionManager mutates this dict on
        # partition()/heal(); empty means no partition installed.
        self._cells = self._partitions.cell_map
        # stats is assigned exactly once (in SimulatedNetwork.__init__), and
        # its sent_by_class is only ever mutated in place, so these aliases
        # stay valid for the network's lifetime.
        self._stats = self.stats
        self._sent_by_class = self.stats.sent_by_class
        self._nodes: dict[ServerId, Any] = {}  # see register()
        # Every delivery record's callback, bound once (not per send); the
        # run loop recognises this network's records by it.  close() drops it.
        self._deliver = self._deliver_fast
        self._configure_latency_fast_path()
        self._configure_fault_fast_path()
        # Engine-internal coupling: the run loop delivers this network's
        # records itself (see _deliver_fast); the scheduler's close() lets go.
        scheduler._network = self

    # ------------------------------------------------------------------ #
    # Fast-path configuration
    # ------------------------------------------------------------------ #
    def _configure_latency_fast_path(self) -> None:
        latency = self._latency
        self._uniform_low: float | None = None
        self._uniform_spread = 0.0
        # Exact type check: a subclass could override sample(), so only the
        # library's own model is inlined.
        if type(latency) is UniformLatency:
            self._uniform_low = latency.low_ms
            self._uniform_spread = latency.high_ms - latency.low_ms
        self._sample_latency = latency.sample

    def _configure_fault_fast_path(self) -> None:
        fault = self._fault
        fault_type = type(fault)
        # Skip flags are only set where the hook provably draws no RNG and
        # always answers "don't drop"; everything else calls the hook once
        # per copy so the fault stream stays draw-identical.
        self._skip_unicast_fault = (
            fault_type is NoFault
            or fault_type is MessageDuplicationFault
            or (fault_type is BroadcastOmissionFault and not fault.affect_unicast)
        )
        self._skip_broadcast_fault = (
            fault_type is NoFault or fault_type is MessageDuplicationFault
        )
        self._duplicator = getattr(fault, "should_duplicate", None)
        self._refresh_impaired()

    def _refresh_impaired(self) -> None:
        # Partitions stay out of the flag: the manager changes its cell map
        # in place and has no link back to this network (one would be a
        # reference cycle), so the hot paths test the map beside the flag.
        self._impaired = bool(self._disconnected) or not self._skip_unicast_fault

    def set_fault(self, fault: FaultInjector) -> None:
        """Replace the fault injector and recompute its fast-path flags."""
        super().set_fault(fault)
        self._configure_fault_fast_path()

    def disconnect(self, server_id: ServerId) -> None:
        """As :meth:`SimulatedNetwork.disconnect`; the drop tests now run."""
        super().disconnect(server_id)
        self._refresh_impaired()

    def reconnect(self, server_id: ServerId) -> None:
        """As :meth:`SimulatedNetwork.reconnect`."""
        super().reconnect(server_id)
        self._refresh_impaired()

    def register(self, server_id: ServerId, handler: Callable[..., None]) -> None:
        """As :meth:`SimulatedNetwork.register`.  A bound method marked
        ``dispatches_by_type`` (:meth:`repro.raft.node.RaftNode.on_message`)
        is a running check plus a per-type table lookup by its own promise,
        and the run loop does those two itself once the type is resolved."""
        super().register(server_id, handler)
        if getattr(handler, "dispatches_by_type", False):
            self._nodes[server_id] = handler.__self__
        else:
            self._nodes.pop(server_id, None)

    def close(self) -> None:
        """Forget every delivery callback (they hold the nodes alive), and
        the held bound method that refers back to this network."""
        super().close()
        self._nodes.clear()
        self._deliver = None

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #
    def send(self, src: ServerId, dst: ServerId, payload: Any) -> None:
        """Send one point-to-point message."""
        member_set = self._member_set
        if src not in member_set or dst not in member_set:
            self._require_member(src)
            self._require_member(dst)
        sent = self._sent_by_class
        cls = type(payload)
        try:
            sent[cls] += 1
        except KeyError:
            sent[cls] = 1
        if self._impaired or self._cells:
            stats = self._stats
            if src in self._disconnected:
                stats.dropped_disconnected += 1
                if self._trace_on:
                    self._world.trace("net.drop", node=src, dst=dst, reason="disconnected")
                return None
            if not self._skip_unicast_fault and self._fault.drop_unicast(
                self._fault_rng, src, dst
            ):
                stats.dropped_by_fault += 1
                if self._trace_on:
                    self._world.trace("net.drop", node=src, dst=dst, reason="fault")
                return None
            cells = self._cells
            if cells and cells[src] != cells[dst]:
                stats.dropped_by_partition += 1
                if self._trace_on:
                    self._world.trace("net.drop", node=src, dst=dst, reason="partition")
                return None
        low = self._uniform_low
        if low is not None:
            latency = low + self._uniform_spread * self._latency_rng.random()
        else:
            latency = self._sample_latency(self._latency_rng, src, dst)
        time_ms = self._clock._now_ms + latency
        if not time_ms < _INF:  # rejects +inf and NaN in one comparison
            raise SimulationError(
                f"cannot schedule event at non-finite time: {time_ms!r}"
            )
        scheduler = self._flat_scheduler
        seq = scheduler._sequence
        scheduler._sequence = seq + 1
        heappush(self._heap, [time_ms, seq, self._deliver, (src, dst, payload)])
        duplicator = self._duplicator
        if duplicator is not None and duplicator(self._fault_rng, src, dst):
            self._stats.duplicated += 1
            if low is not None:
                latency = low + self._uniform_spread * self._latency_rng.random()
            else:
                latency = self._sample_latency(self._latency_rng, src, dst)
            time_ms = self._clock._now_ms + latency
            if not time_ms < _INF:
                raise SimulationError(
                    f"cannot schedule event at non-finite time: {time_ms!r}"
                )
            scheduler = self._flat_scheduler
            seq = scheduler._sequence
            scheduler._sequence = seq + 1
            heappush(self._heap, [time_ms, seq, self._deliver, (src, dst, payload)])
        return None

    def broadcast(
        self,
        src: ServerId,
        targets: Sequence[ServerId],
        payload: Any | Callable[[ServerId], Any],
    ) -> None:
        """Broadcast to *targets* in one batched pass.

        *payload* is one message for every target or, when callable, a
        per-target factory (see :meth:`SimulatedNetwork.broadcast`); one loop
        serves both.  A factory's payloads are counted as they are built; the
        one message is counted once for the broadcast, after the loop -- or,
        should the loop raise, for the targets it had reached, exactly what
        counting per copy would have left.  The per-target order of RNG draws
        is latency, duplication check, duplicate latency.
        """
        member_set = self._member_set
        if src not in member_set:
            self._require_member(src)
        stats = self._stats
        stats.broadcast_count += 1
        factory = payload if callable(payload) else None
        if src in self._disconnected:
            # Mirror the unicast path: every attempted message is counted as
            # sent *and* dropped (the payload factory is pure; see
            # SimulatedNetwork.broadcast()).
            trace = self._world.trace
            for dst in targets:
                if factory is not None:
                    stats.record_sent(factory(dst))
                stats.dropped_disconnected += 1
                if self._trace_on:
                    trace("net.drop", node=src, dst=dst, reason="disconnected")
            if factory is None:
                stats.record_sent(payload, len(targets))
            return
        if self._skip_broadcast_fault:
            omitted: frozenset[ServerId] | tuple = ()
        else:
            omitted = self._fault.omitted_broadcast_targets(
                self._fault_rng, src, list(targets)
            )
        cells = self._cells
        low = self._uniform_low
        spread = self._uniform_spread
        sample = self._sample_latency
        latency_rng = self._latency_rng
        rng_random = latency_rng.random
        duplicator = self._duplicator
        fault_rng = self._fault_rng
        deliver = self._deliver
        heap = self._heap
        scheduler = self._flat_scheduler
        now = self._clock._now_ms
        sent = self._sent_by_class
        # The sequence counter can be carried in a local: payload factories
        # and fault hooks are pure reads / RNG draws (documented contract),
        # so nothing schedules events while this loop runs.
        seq = scheduler._sequence
        unreached = iter(targets)
        try:
            for dst in unreached:
                if factory is not None:
                    payload = factory(dst)
                    cls = type(payload)
                    try:
                        sent[cls] += 1
                    except KeyError:
                        sent[cls] = 1
                if dst in omitted:
                    stats.dropped_by_fault += 1
                    if self._trace_on:
                        self._world.trace(
                            "net.drop", node=src, dst=dst, reason="broadcast_omission"
                        )
                    continue
                if dst not in member_set:
                    raise NetworkError(f"unknown servers S{src} or S{dst}")
                if cells and cells[src] != cells[dst]:
                    stats.dropped_by_partition += 1
                    if self._trace_on:
                        self._world.trace(
                            "net.drop", node=src, dst=dst, reason="partition"
                        )
                    continue
                if low is not None:
                    latency = low + spread * rng_random()
                else:
                    latency = sample(latency_rng, src, dst)
                time_ms = now + latency
                if not time_ms < _INF:
                    raise SimulationError(
                        f"cannot schedule event at non-finite time: {time_ms!r}"
                    )
                heappush(heap, [time_ms, seq, deliver, (src, dst, payload)])
                seq += 1
                if duplicator is not None and duplicator(fault_rng, src, dst):
                    stats.duplicated += 1
                    if low is not None:
                        latency = low + spread * rng_random()
                    else:
                        latency = sample(latency_rng, src, dst)
                    time_ms = now + latency
                    if not time_ms < _INF:
                        raise SimulationError(
                            f"cannot schedule event at non-finite time: {time_ms!r}"
                        )
                    heappush(heap, [time_ms, seq, deliver, (src, dst, payload)])
                    seq += 1
        except BaseException:
            # Whatever raised (an unknown target, a non-finite deadline, a
            # hook), the records pushed keep their sequence numbers and the
            # targets reached count as sent; the rest were never attempted.
            scheduler._sequence = seq
            if factory is None:
                stats.record_sent(payload, len(targets) - sum(1 for _ in unreached))
            raise
        scheduler._sequence = seq
        if factory is None:
            stats.record_sent(payload, len(targets))

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #
    def _deliver_fast(self, item: tuple[ServerId, ServerId, Any]) -> None:
        """Deliver a message record the run loop handed over: to a
        disconnected or partitioned-off destination (dropped in flight), or
        to the registered handler -- a plain handler, or a node's
        ``on_message`` for the first message of its type, which the node
        resolves.  The loop delivers every other record itself
        (:meth:`~repro.sim.flatcore.FlatEventScheduler._run`, which ``step``
        runs too)."""
        src, dst, payload = item
        if dst in self._disconnected:
            self._stats.dropped_disconnected += 1
            self._stats.dropped_in_flight += 1
            if self._trace_on:
                self._world.trace(
                    "net.drop", node=src, dst=dst, reason="disconnected", in_flight=True
                )
            return
        cells = self._cells
        if cells and cells[src] != cells[dst]:
            self._stats.dropped_by_partition += 1
            self._stats.dropped_in_flight += 1
            if self._trace_on:
                self._world.trace(
                    "net.drop", node=src, dst=dst, reason="partition", in_flight=True
                )
            return
        handler = self._handlers.get(dst)
        if handler is None:
            raise NetworkError(f"no handler registered for S{dst}")
        self._stats.delivered += 1
        handler(src, payload)
