"""Adapter between protocol nodes and the discrete-event simulator."""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Callable, Sequence

from repro.common.types import Milliseconds, ServerId
from repro.net.network import SimulatedNetwork
from repro.sim.events import EventHandle
from repro.sim.world import SimulationWorld


class SimNodeEnvironment:
    """The :class:`~repro.raft.environment.Environment` backed by the simulator.

    Each node gets its own environment instance with a private random stream
    (``seeds.stream("node", node_id)``) so adding or removing one node never
    perturbs another node's timeout draws.
    """

    def __init__(
        self,
        world: SimulationWorld,
        network: SimulatedNetwork,
        node_id: ServerId,
    ) -> None:
        self._world = world
        self._network = network
        self._node_id = node_id
        self._clock = world.clock
        self._rng = world.seeds.stream("node", node_id)
        # A Tracer's enabled flag is fixed at construction, so nodes may skip
        # building trace kwargs entirely when the world does not record them.
        self.trace_enabled = world.tracer.enabled

    @property
    def node_id(self) -> ServerId:
        """The server this environment belongs to."""
        return self._node_id

    @property
    def rng(self) -> random.Random:
        """This node's private random stream."""
        return self._rng

    def now(self) -> Milliseconds:
        return self._clock.now()

    def send(self, dst: ServerId, message: Any, inert: bool = False) -> None:
        self._network.send(self._node_id, dst, message, inert)

    def broadcast(
        self,
        targets: Sequence[ServerId],
        payload_factory: Callable[[ServerId], Any],
    ) -> None:
        self._network.broadcast(self._node_id, targets, payload_factory)

    def set_timer(
        self,
        delay_ms: Milliseconds,
        callback: Callable[[], None],
        label: str = "",
    ) -> EventHandle:
        return self._world.scheduler.call_after(
            delay_ms, callback, label=f"S{self._node_id}:{label}"
        )

    def cancel_timer(self, handle: EventHandle) -> None:
        handle.cancel()

    def trace(self, category: str, **detail: Any) -> None:
        self._world.tracer.record(
            self._world.now(), category, node=self._node_id, **detail
        )


def _noop_trace(category: str, **detail: Any) -> None:
    return None


class FlatSimNodeEnvironment(SimNodeEnvironment):
    """The ``flat`` engine's node environment: zero adapter frames.

    Nodes treat timer handles as opaque tokens -- they only ever pass them
    back to ``cancel_timer`` -- so this adapter hands out the flat
    scheduler's raw heap records directly instead of wrapping each one in an
    :class:`~repro.sim.events.EventHandle`, and skips the per-timer label
    f-string (labels are classic-engine observability).

    Every hot entry point is bound in ``__init__`` as an instance attribute
    that shadows the inherited method: ``set_timer``/``cancel_timer`` go
    straight to the scheduler, ``send``/``broadcast`` to the network (via
    :func:`functools.partial`, which dispatches in C), ``now`` to the clock,
    and ``trace`` becomes a no-op when the tracer is disabled (a Tracer's
    enabled flag is fixed at construction).  The environment contract is
    unchanged -- only the call overhead per timer/message goes away.
    """

    def __init__(
        self,
        world: SimulationWorld,
        network: SimulatedNetwork,
        node_id: ServerId,
    ) -> None:
        super().__init__(world, network, node_id)
        scheduler = world.scheduler
        self._scheduler = scheduler
        self.set_timer = scheduler.schedule_timer_entry
        self.cancel_timer = scheduler.cancel_entry
        self.send = partial(network.send, node_id)
        self.broadcast = partial(network.broadcast, node_id)
        self.now = world.clock.now
        if not world.tracer.enabled:
            self.trace = _noop_trace
