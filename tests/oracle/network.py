"""The ``classic`` engine's network: the reference ``FlatNetwork`` is diffed against.

:class:`ClassicNetwork` adds the send path to
:class:`~repro.net.network.SimulatedNetwork` (registration, connectivity,
partitions and :class:`~repro.net.network.NetworkStats`, all inherited) in its
plainest form: one scheduler event and one closure per message copy, one count
per copy, in the order the copies were sent, and a ``can_communicate`` call
per reachability test.  Drops are counted and traced exactly as
:mod:`repro.net.network` specifies.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.common.errors import NetworkError
from repro.common.types import ServerId
from repro.net.network import SimulatedNetwork


class ClassicNetwork(SimulatedNetwork):
    """Latency- and fault-injecting message fabric, one closure per copy."""

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

        *payload* is the one message every target receives or, when callable,
        a factory called once per target -- including targets the fault model
        omits or that a disconnected sender never reaches, whose payloads are
        counted as sent but not put in flight.  Either form is counted per
        copy here.
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
