"""The simulated network connecting protocol nodes.

The network delivers protocol messages between registered nodes with a sampled
latency, subject to fault injection (message loss), partitions, and node
disconnection (used to model crashed servers).  Delivery happens through the
shared :class:`~repro.sim.world.SimulationWorld` scheduler, so the whole run
stays deterministic.

:class:`SimulatedNetwork` is the part every engine shares -- registration,
connectivity control, the partition manager and :class:`NetworkStats` -- and
names the engine-seam contract (see :mod:`repro.sim.engines`): ``send`` and
``broadcast`` return nothing, and ``broadcast`` takes one message for every
target or a per-target factory.  How a delivery is queued and how a send is
counted are engine-owned: :class:`~repro.net.flatnet.FlatNetwork` is the
send path everything runs on.

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
from repro.net.latency import PAPER_LATENCY, LatencyModel
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
    """Latency- and fault-injecting message fabric between servers; an
    engine's subclass supplies :meth:`send` and :meth:`broadcast`.

    Args:
        world: the simulation world supplying the clock, scheduler and RNG.
        members: the full cluster membership.
        latency: per-message latency model (defaults to ``PAPER_LATENCY``).
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
        self._latency = latency if latency is not None else PAPER_LATENCY
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
    # Sending: engine-owned (see :mod:`repro.sim.engines`)
    # ------------------------------------------------------------------ #
    def send(self, src: ServerId, dst: ServerId, payload: Any) -> None:
        """Send one point-to-point message."""
        raise NotImplementedError

    def broadcast(
        self,
        src: ServerId,
        targets: Sequence[ServerId],
        payload: Any | Callable[[ServerId], Any],
    ) -> None:
        """Broadcast to *targets*, applying the broadcast-omission fault model.

        *payload* is the one message every target receives (a candidate's
        RequestVote), or -- when callable -- a factory called once per
        target to build that target's payload, including targets the fault
        model omits or that a disconnected sender never reaches.  Leaders use
        a factory to piggyback per-follower data (log entries, ESCAPE
        configurations) on one broadcast; factories must therefore be pure
        reads of node state.
        """
        raise NotImplementedError

    def _require_member(self, server_id: ServerId) -> None:
        if server_id not in self._members:
            raise NetworkError(f"S{server_id} is not a cluster member")
