"""The flat run loop delivers a message itself, and nothing on the way is rebuilt.

``FlatEventScheduler._run`` hands a message record whose destination the
network reaches (not disconnected, not across a partition) straight to the
destination node's typed handler; ``FlatNetwork._deliver_fast`` keeps every
other case (an in-flight drop, a plain handler, the first message of a type),
and ``step()`` runs the same loop for one event
(``docs/design-notes.md``, "One frame per delivery").  This suite pins:

* a message in flight when its destination is disconnected, partitioned,
  crashed, recovered or re-registered ends as on the ``classic`` oracle --
  the same stats, scheduled and executed counts and node state -- run
  through ``_run`` and through ``step()``;
* which cases the loop owns: ``_deliver_fast`` is entered exactly for the
  cases it keeps, so a delivery record whose callback is not the network's
  one held callable (say, a bound method built per send) shows up here;
* the election timer is re-armed with one held callable, not a bound method
  built per re-arm;
* ``AppendEntriesRequest.new_config`` and ``AppendEntriesResponse.log_index``
  read ``None`` on Raft's messages, as class attributes, not fields.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster.builder import build_cluster
from repro.cluster.environment import SimNodeEnvironment
from repro.common.config import ClusterConfig
from repro.net.faults import BroadcastOmissionFault
from repro.net.flatnet import FlatNetwork
from repro.raft.messages import AppendEntriesRequest, AppendEntriesResponse
from repro.raft.node import RaftNode
from repro.raft.state import CANDIDATE
from repro.sim.engines import EngineSpec
from repro.sim.world import SimulationWorld

from helpers import ConstantLatency
from oracle import CLASSIC, ENGINES

MEMBERS = (1, 2, 3)
HEARTBEAT = AppendEntriesRequest(term=1, leader_id=1)


def _fresh_node_class() -> type[RaftNode]:
    """A RaftNode class with its own, empty handler memo (no type resolved)."""

    class Node(RaftNode):
        __slots__ = ()

    return Node


def advance(world: SimulationWorld, mode: str, duration_ms: float) -> None:
    """Run *duration_ms* of simulated time through ``_run`` or through ``step``."""
    if mode == "run":
        world.run_for(duration_ms)
    else:
        world.scheduler.run_until_condition(lambda: False, world.now() + duration_ms)


def _cluster(engine: EngineSpec):
    """Three started nodes of a fresh class on *engine*'s network, 10 ms a hop."""
    world = SimulationWorld(seed=5, engine=engine)
    network = world.engine.network_class()(world, MEMBERS, latency=ConstantLatency(10.0))
    node_class = _fresh_node_class()
    nodes = {}
    for member in MEMBERS:
        node = node_class(
            member, ClusterConfig.of_size(3), SimNodeEnvironment(world, network, member)
        )
        network.register(member, node.on_message)
        nodes[member] = node
        node.start()
    return world, network, nodes


# --------------------------------------------------------------------------- #
# A message in flight while its destination changes
# --------------------------------------------------------------------------- #
def _disconnected(world, network, nodes, plain):
    network.disconnect(2)
    yield
    network.reconnect(2)


def _partitioned(world, network, nodes, plain):
    network.partitions.partition([1], [2, 3])
    yield
    network.partitions.heal()


def _crashed(world, network, nodes, plain):
    nodes[2].stop()  # still attached: delivered to, ignored
    yield


def _recovered(world, network, nodes, plain):
    nodes[2].stop()
    nodes[2].recover()  # running again before the message lands
    yield


def _reregistered(world, network, nodes, plain):
    network.register(2, lambda src, payload: plain.append((world.now(), src, payload)))
    yield
    network.register(2, nodes[2].on_message)


CHANGES = {
    "disconnected": _disconnected,
    "partitioned": _partitioned,
    "crashed": _crashed,
    "recovered": _recovered,
    "re-registered": _reregistered,
}


def _in_flight_episode(engine: EngineSpec, change: str, mode: str):
    """Resolve both AppendEntries types, then change node 2 while a heartbeat
    to it is in flight, undo the change, and send another round."""
    world, network, nodes = _cluster(engine)
    plain = []
    network.broadcast(1, [2, 3], HEARTBEAT)
    advance(world, mode, 25.0)  # requests and replies: both types resolved
    network.broadcast(1, [2, 3], HEARTBEAT)
    steps = CHANGES[change](world, network, nodes, plain)
    next(steps)
    advance(world, mode, 25.0)
    next(steps, None)
    network.broadcast(1, [2, 3], HEARTBEAT)
    advance(world, mode, 25.0)
    scheduler = world.scheduler
    return (
        dataclasses.asdict(network.stats),
        scheduler.scheduled_count,
        scheduler.executed_count,
        world.now(),
        plain,
        {
            member: (node.is_running, node.current_term, node.leader_id, node.role)
            for member, node in nodes.items()
        },
    )


@pytest.mark.parametrize("mode", ("run", "step"))
@pytest.mark.parametrize("change", CHANGES)
def test_a_message_in_flight_ends_as_on_the_oracle(change, mode):
    flat = _in_flight_episode(ENGINES[0], change, mode)
    assert flat == _in_flight_episode(CLASSIC, change, mode)
    stats = flat[0]
    sent = sum(stats["sent_by_class"].values())
    assert sent == stats["delivered"] + stats["dropped_in_flight"]


# --------------------------------------------------------------------------- #
# Who delivers which record
# --------------------------------------------------------------------------- #
@pytest.fixture
def handed_over(monkeypatch):
    """The records ``FlatNetwork._deliver_fast`` is entered with, as
    ``(dst, payload type name)``; patch before building the network."""
    seen = []
    deliver = FlatNetwork._deliver_fast

    def counting(self, item):
        seen.append((item[1], type(item[2]).__name__))
        return deliver(self, item)

    monkeypatch.setattr(FlatNetwork, "_deliver_fast", counting)
    return seen


@pytest.mark.parametrize("mode", ("run", "step"))
class TestTheLoopOwnsTheCommonCase:
    def test_a_resolved_type_on_a_healthy_network_never_enters_the_network(
        self, mode, handed_over
    ):
        world, network, nodes = _cluster(ENGINES[0])
        network.broadcast(1, [2, 3], HEARTBEAT)
        advance(world, mode, 25.0)
        # The first of each type goes to the network and the node resolves
        # it, for every node of its class.
        first = [(2, "AppendEntriesRequest"), (1, "AppendEntriesResponse")]
        assert handed_over == first
        for _ in range(3):
            network.broadcast(1, [2, 3], HEARTBEAT)
            advance(world, mode, 25.0)
        assert handed_over == first
        assert network.stats.delivered == 4 * 4

    def test_only_a_record_to_an_unreachable_destination_is_handed_over(
        self, mode, handed_over
    ):
        world, network, nodes = _cluster(ENGINES[0])
        network.broadcast(1, [2, 3], HEARTBEAT)
        advance(world, mode, 25.0)
        del handed_over[:]
        network.disconnect(3)  # impaired, but 1 and 2 still reach each other
        network.send(1, 2, HEARTBEAT)
        network.send(1, 3, HEARTBEAT)
        advance(world, mode, 25.0)
        to_3 = (3, "AppendEntriesRequest")
        assert handed_over == [to_3]
        network.reconnect(3)
        network.send(1, 3, HEARTBEAT)  # in flight when the partition comes
        network.partitions.partition([1, 2], [3])
        network.send(1, 2, HEARTBEAT)
        advance(world, mode, 25.0)
        assert handed_over == [to_3, to_3]
        assert network.stats.dropped_in_flight == 2
        network.partitions.heal()
        # A unicast fault hook is tested when a message is sent, not delivered.
        network.set_fault(BroadcastOmissionFault(0.5, affect_unicast=True))
        for _ in range(4):
            network.send(1, 2, HEARTBEAT)
        advance(world, mode, 25.0)
        assert network.stats.dropped_by_fault > 0
        assert handed_over == [to_3, to_3]

    def test_a_plain_handler_is_handed_every_record(self, mode, handed_over):
        world, network, nodes = _cluster(ENGINES[0])
        inbox = []
        network.register(2, lambda src, payload: inbox.append(payload))
        for _ in range(3):
            network.send(1, 2, HEARTBEAT)
        advance(world, mode, 25.0)
        assert inbox == [HEARTBEAT] * 3
        assert handed_over == [(2, "AppendEntriesRequest")] * 3


# --------------------------------------------------------------------------- #
# The election timer's callback
# --------------------------------------------------------------------------- #
def test_every_election_timer_rearm_passes_the_same_callable():
    world = SimulationWorld(seed=5)
    network = world.engine.network_class()(world, MEMBERS, latency=ConstantLatency(10.0))
    env = SimNodeEnvironment(world, network, 2)
    callbacks = []
    rearm = env.rearm_timer

    def spy(handle, delay_ms, callback, label=""):
        if label == "election-timeout":
            callbacks.append(callback)
        return rearm(handle, delay_ms, callback, label)

    env.rearm_timer = spy
    node = RaftNode(2, ClusterConfig.of_size(3), env)
    network.register(2, node.on_message)
    for member in (1, 3):
        network.register(member, lambda src, payload: None)
    node.start()
    for _ in range(3):
        network.send(1, 2, HEARTBEAT)
        world.run_for(25.0)
    assert len(callbacks) == 4
    assert all(callback is callbacks[0] for callback in callbacks)
    # It is the node's timeout: it fires a campaign.
    world.run_for(10_000.0)
    assert node.role is CANDIDATE


def test_removing_listeners_leaves_the_election_timer_armed():
    cluster = build_cluster("raft", 3, seed=5, trace=False)
    cluster.start_all()
    node = cluster.node(1)
    node.remove_listeners()
    cluster.world.run_for(10_000.0)
    assert node.current_term > 0
    cluster.close()


# --------------------------------------------------------------------------- #
# ESCAPE's message extensions read None on Raft's messages
# --------------------------------------------------------------------------- #
def test_raft_messages_read_escape_extensions_as_none_without_the_fields():
    request = AppendEntriesRequest(3, 1, 0, 0, (), 0)
    response = AppendEntriesResponse(3, 2, True, 0)
    assert request.new_config is None and response.log_index is None
    assert "new_config" not in {field.name for field in dataclasses.fields(request)}
    assert "log_index" not in {field.name for field in dataclasses.fields(response)}
    assert "new_config" not in repr(request) and "log_index" not in repr(response)
