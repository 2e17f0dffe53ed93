"""The simulated network connecting protocol nodes.

The network delivers protocol messages between registered nodes with a sampled
latency, subject to fault injection (message loss), partitions, and node
disconnection (used to model crashed servers).  Delivery happens through the
shared :class:`~repro.sim.world.SimulationWorld` scheduler, so the whole run
stays deterministic.

This class is the ``classic`` engine's network -- the reference the ``flat``
engine's :class:`~repro.net.flatnet.FlatNetwork` is diffed against -- *and*
the definition of the engine-seam contract (see :mod:`repro.sim.engines`):
the public surface -- ``send``/``broadcast``/``register``, connectivity
control, ``NetworkStats``, the partition manager, and the ``net.drop`` trace
schema -- is what scenarios and nodes may rely on.  ``send`` and ``broadcast``
return nothing on either engine; ``broadcast`` takes one message for every
target or a per-target factory.  How a delivery is queued and how a send is
counted are engine-owned (here: one scheduler event and one count per copy,
in the order the copies were sent).

Every dropped message emits one ``net.drop`` trace with a ``reason`` of
``"fault"``, ``"broadcast_omission"``, ``"partition"`` or ``"disconnected"``;
drops that happen at delivery time rather than send time additionally carry
``in_flight=True``.  Stats and traces therefore account for exactly the same
set of drops (when the world traces; otherwise no trace call is made).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.common.errors import NetworkError
from repro.common.types import ServerId
from repro.net.faults import FaultInjector, NoFault
from repro.net.latency import LatencyModel, UniformLatency
from repro.net.partition import PartitionManager
from repro.sim.world import SimulationWorld

DeliveryCallback = Callable[[ServerId, Any], None]


@dataclass
class NetworkStats:
    """Counters describing what the network did during a run.

    A send is counted once per copy, in :attr:`sent_by_class` under its
    payload's class; :attr:`sent` and :attr:`per_type_sent` are read-only
    views of that one count.  Once nothing is in flight every message copy
    has ended in exactly one terminal state, so
    ``sent + duplicated == delivered + dropped``.
    """

    delivered: int = 0
    dropped_by_fault: int = 0
    dropped_by_partition: int = 0
    dropped_disconnected: int = 0
    # How many of the partition/disconnected drops happened at *delivery*
    # time (the destination crashed or was cut off while the message was on
    # the wire).  A sub-category annotation, not a new drop reason: in-flight
    # drops are already counted above, so ``dropped`` must not add this in.
    dropped_in_flight: int = 0
    duplicated: int = 0
    broadcast_count: int = 0
    # Payload class -> copies sent, in order of first send.  Mutated in place,
    # never rebound, so an engine may hold the dict.
    sent_by_class: dict[type, int] = field(default_factory=dict)

    @property
    def sent(self) -> int:
        """Message copies handed to the network (duplicates not included)."""
        return sum(self.sent_by_class.values())

    @property
    def per_type_sent(self) -> dict[str, int]:
        """Copies sent per payload class name (a fresh dict on every read)."""
        per_name: dict[str, int] = {}
        for cls, copies in self.sent_by_class.items():
            name = cls.__name__
            per_name[name] = per_name.get(name, 0) + copies
        return per_name

    @property
    def dropped(self) -> int:
        """Total messages that never reached their destination."""
        return (
            self.dropped_by_fault
            + self.dropped_by_partition
            + self.dropped_disconnected
        )

    def record_sent(self, payload: Any, copies: int = 1) -> None:
        """Count *copies* sends of *payload*'s class (none: nothing recorded)."""
        if copies:
            sent = self.sent_by_class
            cls = type(payload)
            sent[cls] = sent.get(cls, 0) + copies


class SimulatedNetwork:
    """Latency- and fault-injecting message fabric between servers.

    Args:
        world: the simulation world supplying the clock, scheduler and RNG.
        members: the full cluster membership.
        latency: per-message latency model (defaults to the paper's
            100-200 ms uniform latency).
        fault: fault injector (defaults to no faults).
    """

    def __init__(
        self,
        world: SimulationWorld,
        members: Iterable[ServerId],
        latency: LatencyModel | None = None,
        fault: FaultInjector | None = None,
    ) -> None:
        self._world = world
        # Fixed, like the tracer's flag: no drop builds a trace call unread.
        self._trace_on = world.tracer.enabled
        self._members = tuple(members)
        if not self._members:
            raise NetworkError("network requires at least one member")
        self._latency = latency if latency is not None else UniformLatency(100.0, 200.0)
        self._fault = fault if fault is not None else NoFault()
        self._latency_rng = world.seeds.stream("net", "latency")
        self._fault_rng = world.seeds.stream("net", "fault")
        self._handlers: dict[ServerId, DeliveryCallback] = {}
        self._disconnected: set[ServerId] = set()
        self._partitions = PartitionManager(self._members)
        self.stats = NetworkStats()

    # ------------------------------------------------------------------ #
    # Registration and connectivity
    # ------------------------------------------------------------------ #
    @property
    def members(self) -> tuple[ServerId, ...]:
        """The full cluster membership."""
        return self._members

    @property
    def partitions(self) -> PartitionManager:
        """The partition manager controlling reachability between cells."""
        return self._partitions

    @property
    def fault(self) -> FaultInjector:
        """The installed fault injector."""
        return self._fault

    def set_fault(self, fault: FaultInjector) -> None:
        """Replace the fault injector (e.g. to start injecting message loss)."""
        self._fault = fault

    def register(self, server_id: ServerId, handler: DeliveryCallback) -> None:
        """Register the delivery callback for a server.

        The callback receives ``(src, payload)`` when a message is delivered.
        """
        if server_id not in self._members:
            raise NetworkError(f"S{server_id} is not a cluster member")
        self._handlers[server_id] = handler

    def close(self) -> None:
        """Forget every delivery callback (they hold the nodes alive)."""
        self._handlers.clear()

    def disconnect(self, server_id: ServerId) -> None:
        """Detach a server: nothing is delivered to or accepted from it.

        Used by the harness to model a crashed server; messages already in
        flight toward the server are dropped at delivery time.
        """
        self._require_member(server_id)
        self._disconnected.add(server_id)

    def reconnect(self, server_id: ServerId) -> None:
        """Re-attach a previously disconnected server."""
        self._require_member(server_id)
        self._disconnected.discard(server_id)

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #
    def send(self, src: ServerId, dst: ServerId, payload: Any) -> None:
        """Send one point-to-point message."""
        self._require_member(src)
        self._require_member(dst)
        self.stats.record_sent(payload)
        if src in self._disconnected:
            self.stats.dropped_disconnected += 1
            if self._trace_on:
                self._world.trace("net.drop", node=src, dst=dst, reason="disconnected")
        elif self._fault.drop_unicast(self._fault_rng, src, dst):
            self.stats.dropped_by_fault += 1
            if self._trace_on:
                self._world.trace("net.drop", node=src, dst=dst, reason="fault")
        else:
            self._enqueue(src, dst, payload)

    def broadcast(
        self,
        src: ServerId,
        targets: Sequence[ServerId],
        payload: Any | Callable[[ServerId], Any],
    ) -> None:
        """Broadcast to *targets*, applying the broadcast-omission fault model.

        Args:
            src: sending server.
            targets: destination servers (normally every peer of *src*).
            payload: the one message every target receives (a candidate's
                RequestVote), or -- when callable -- a factory called once per
                target to build that target's payload, including targets the
                fault model omits or that a disconnected sender never reaches,
                whose payloads are counted as sent but not put in flight.
                Leaders use a factory to piggyback per-follower data (log
                entries, ESCAPE configurations) on one broadcast; factories
                must therefore be pure reads of node state.  Either form is
                counted per copy here; an engine may count the one message
                once per broadcast (see :class:`~repro.net.flatnet.FlatNetwork`).
        """
        self._require_member(src)
        self.stats.broadcast_count += 1
        factory = payload if callable(payload) else None
        if src in self._disconnected:
            # Mirror the unicast path: every attempted message is counted as
            # sent *and* dropped, keeping ``sent == delivered + dropped +
            # in-flight`` intact (the payload factory is pure; see send()).
            for dst in targets:
                self.stats.record_sent(payload if factory is None else factory(dst))
                self.stats.dropped_disconnected += 1
                if self._trace_on:
                    self._world.trace(
                        "net.drop", node=src, dst=dst, reason="disconnected"
                    )
            return
        omitted = self._fault.omitted_broadcast_targets(
            self._fault_rng, src, list(targets)
        )
        for dst in targets:
            if factory is not None:
                payload = factory(dst)
            self.stats.record_sent(payload)
            if dst in omitted:
                self.stats.dropped_by_fault += 1
                if self._trace_on:
                    self._world.trace(
                        "net.drop", node=src, dst=dst, reason="broadcast_omission"
                    )
                continue
            self._enqueue(src, dst, payload)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _enqueue(self, src: ServerId, dst: ServerId, payload: Any) -> None:
        if not self._partitions.can_communicate(src, dst):
            self.stats.dropped_by_partition += 1
            if self._trace_on:
                self._world.trace("net.drop", node=src, dst=dst, reason="partition")
            return
        self._schedule_delivery(src, dst, payload)
        duplicator = getattr(self._fault, "should_duplicate", None)
        if duplicator is not None and duplicator(self._fault_rng, src, dst):
            self.stats.duplicated += 1
            self._schedule_delivery(src, dst, payload)

    def _schedule_delivery(self, src: ServerId, dst: ServerId, payload: Any) -> None:
        latency = self._latency.sample(self._latency_rng, src, dst)
        self._world.scheduler.call_at(
            self._world.now() + latency, lambda: self._deliver(src, dst, payload)
        )

    def _deliver(self, src: ServerId, dst: ServerId, payload: Any) -> None:
        if dst in self._disconnected:
            # The destination crashed while the message was in flight.  Messages
            # already in flight from a server that crashes are still delivered,
            # matching a process kill on a real network (packets on the wire
            # are not recalled).
            self.stats.dropped_disconnected += 1
            self.stats.dropped_in_flight += 1
            if self._trace_on:
                self._world.trace(
                    "net.drop", node=src, dst=dst, reason="disconnected", in_flight=True
                )
            return
        if not self._partitions.can_communicate(src, dst):
            self.stats.dropped_by_partition += 1
            self.stats.dropped_in_flight += 1
            if self._trace_on:
                self._world.trace(
                    "net.drop", node=src, dst=dst, reason="partition", in_flight=True
                )
            return
        handler = self._handlers.get(dst)
        if handler is None:
            raise NetworkError(f"no handler registered for S{dst}")
        self.stats.delivered += 1
        handler(src, payload)

    def _require_member(self, server_id: ServerId) -> None:
        if server_id not in self._members:
            raise NetworkError(f"S{server_id} is not a cluster member")
