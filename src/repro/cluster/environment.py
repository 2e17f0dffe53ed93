"""Adapter between protocol nodes and the discrete-event simulator."""

from __future__ import annotations

import random
from functools import cached_property, partial
from typing import Any

from repro.common.types import ServerId
from repro.net.network import SimulatedNetwork
from repro.sim.world import SimulationWorld


def _noop_trace(category: str, **detail: Any) -> None:
    return None


class SimNodeEnvironment:
    """The :class:`~repro.raft.environment.Environment` backed by the simulator.

    Every entry point a node calls is bound in ``__init__`` as an instance
    attribute, so a call pays no adapter frame:
    ``set_timer`` / ``cancel_timer`` / ``rearm_timer`` are the scheduler's
    ``schedule_timer_entry`` / ``cancel_entry`` / ``rearm_timer_entry`` (a
    timer handle is whatever opaque token the engine's scheduler returns),
    ``send`` / ``broadcast`` are the network's with this node as the sender
    (:func:`functools.partial` dispatches in C), ``now`` is the clock's, and
    ``trace`` is a no-op when the world records nothing (a Tracer's enabled
    flag is fixed at construction).

    Each node gets a private random stream (``seeds.stream("node", node_id)``)
    so adding or removing one node never perturbs another's timeout draws.
    ``rng`` is created on first read (ESCAPE and Z-Raft nodes draw only under
    a contention script) and kept in the instance dict; the stream is fixed by
    the seed and the node id, so no draw depends on when it was created.
    """

    def __init__(
        self, world: SimulationWorld, network: SimulatedNetwork, node_id: ServerId
    ) -> None:
        self.node_id = node_id
        self._seeds = world.seeds
        # Nodes skip building trace kwargs entirely when nothing records them.
        self.trace_enabled = world.tracer.enabled
        self.now = world.clock.now
        self.set_timer = world.scheduler.schedule_timer_entry
        self.cancel_timer = world.scheduler.cancel_entry
        self.rearm_timer = world.scheduler.rearm_timer_entry
        self.send = partial(network.send, node_id)
        self.broadcast = partial(network.broadcast, node_id)
        self.trace = (
            partial(world.trace, node=node_id) if self.trace_enabled else _noop_trace
        )

    @cached_property
    def rng(self) -> random.Random:
        """This node's private stream, created on first read."""
        return self._seeds.stream("node", self.node_id)
