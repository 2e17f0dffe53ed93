"""Build a simulated cluster for a chosen protocol.

The builder wires together a :class:`~repro.sim.world.SimulationWorld`, a
:class:`~repro.net.network.SimulatedNetwork`, and one protocol node (plus its
environment and durable store) per member, and returns a
:class:`SimulatedCluster` facade the harness and examples drive.

Which protocols exist -- and how each one constructs its nodes -- is entirely
the business of the protocol registry (:mod:`repro.protocols`): the builder
looks the requested name up and delegates node construction to
:meth:`~repro.protocols.ProtocolSpec.build_node`, so registering a new
protocol spec makes it buildable here with no code change.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro import protocols
from repro.common.config import ClusterConfig, ProtocolConfig
from repro.common.errors import ClusterError
from repro.common.types import Milliseconds, ServerId
from repro.cluster.environment import SimNodeEnvironment
from repro.net.faults import FaultInjector
from repro.net.latency import LatencyModel
from repro.net.network import SimulatedNetwork
from repro.raft.listeners import NodeListener, NodeListenerBase, listener_table
from repro.raft.node import RaftNode
from repro.raft.state import LEADER
from repro.sim.engines import EngineSpec
from repro.sim.world import SimulationWorld
from repro.statemachine.kvstore import KeyValueStore
from repro.storage.persistent import InMemoryStore


class _LeaderTracker(NodeListenerBase):
    """Maintains the set of running nodes whose role is currently LEADER.

    Every role transition funnels through ``RaftNode._change_role`` (which
    notifies listeners), so this set is exactly the nodes a full scan for
    ``is_running and role is LEADER`` would find.  Crash/recover bypass
    ``_change_role`` (a stopped leader keeps its role), so
    :meth:`SimulatedCluster.crash` evicts the crashed server explicitly.

    The leadership predicates (:meth:`SimulatedCluster.has_leader`,
    :meth:`~SimulatedCluster.has_leader_other_than`) can only change when this
    set does -- a leader's term is fixed for as long as it leads -- so every
    change calls *interrupt* (the scheduler's) and the harness, waiting in
    ``run_until_interrupted``, re-evaluates its predicate then and only then.

    It is every node's first listener, so a listener that reads the set
    (:func:`repro.chaos.availability.quorum_leader`, from the availability
    observer) sees the role change that is being announced.
    """

    __slots__ = ("leader_ids", "_interrupt")

    def __init__(self, interrupt: Callable[[], None]) -> None:
        self.leader_ids: set[ServerId] = set()
        self._interrupt = interrupt

    def on_role_change(self, node_id, old_role, new_role, term, time_ms) -> None:
        if new_role is LEADER:
            self.leader_ids.add(node_id)
            self._interrupt()
        elif old_role is LEADER:
            self.evict(node_id)

    def evict(self, node_id: ServerId) -> None:
        """Stop tracking *node_id* (it stepped down or crashed)."""
        self.leader_ids.discard(node_id)
        self._interrupt()


class SimulatedCluster:
    """A set of protocol nodes connected by one simulated network."""

    def __init__(
        self,
        protocol: str,
        config: ClusterConfig,
        world: SimulationWorld,
        network: SimulatedNetwork,
        nodes: Mapping[ServerId, RaftNode],
        leader_tracker: _LeaderTracker,
    ) -> None:
        self.protocol = protocol
        self.config = config
        self.world = world
        self.network = network
        self.nodes: dict[ServerId, RaftNode] = dict(nodes)
        self._crashed: set[ServerId] = set()
        self._leader_tracker = leader_tracker
        #: The running nodes whose role is LEADER: the tracker's live set,
        #: kept current in place.  Read-only.
        self.leader_ids: set[ServerId] = leader_tracker.leader_ids

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start_all(self) -> None:
        """Start every node (each joins as a follower and arms its timer)."""
        for node in self.nodes.values():
            node.start()

    def node(self, server_id: ServerId) -> RaftNode:
        """The node object for *server_id*."""
        try:
            return self.nodes[server_id]
        except KeyError as exc:
            raise ClusterError(f"S{server_id} is not part of this cluster") from exc

    def close(self) -> None:
        """Release a finished cluster so it is freed by reference count.

        Drops what ties the object graph into cycles -- the network's delivery
        callbacks, the scheduler's queued records (pending timers and
        deliveries, and with them the nodes' timer handles), the nodes'
        listeners (observers and drivers refer back to the cluster) and their
        held timer callbacks (see :meth:`RaftNode.close`) -- without a trace
        record or a listener call.  Every counter, the tracer's records and
        the nodes' state stay readable; nothing can run afterwards.
        """
        self.network.close()
        self.world.scheduler.close()
        for node in self.nodes.values():
            node.close()

    def running_nodes(self) -> list[RaftNode]:
        """Nodes that are currently running (not crashed)."""
        return [node for node in self.nodes.values() if node.is_running]

    @property
    def crashed(self) -> frozenset[ServerId]:
        """Servers currently crashed."""
        return frozenset(self._crashed)

    # ------------------------------------------------------------------ #
    # Leadership
    # ------------------------------------------------------------------ #
    def leader(self) -> RaftNode | None:
        """The running leader with the highest term, if any."""
        leader_ids = self.leader_ids
        if not leader_ids:
            return None
        # sorted() keeps the answer deterministic if two leaders ever tie on
        # term (the old full scan iterated nodes in server-id order).
        leaders = [self.nodes[server_id] for server_id in sorted(leader_ids)]
        return max(leaders, key=lambda node: node.current_term)

    def leader_id(self) -> ServerId | None:
        """Identifier of the current leader, if any."""
        leader = self.leader()
        return leader.node_id if leader else None

    def has_leader(self) -> bool:
        """Whether a running node currently considers itself leader.  O(1)."""
        return bool(self.leader_ids)

    def has_leader_other_than(self, exclude: ServerId) -> bool:
        """Whether :meth:`leader` would return a node other than *exclude*.

        The harness's failover wait evaluates this each time the tracked
        leader set changes.  The common cases (no leader yet; a leader that
        is not *exclude*) are O(1) on the tracker set; only the ambiguous
        case -- *exclude* still among the tracked leaders -- falls back to
        the full highest-term comparison.
        """
        leader_ids = self.leader_ids
        if not leader_ids:
            return False
        if exclude not in leader_ids:
            return True
        leader = self.leader()
        return leader is not None and leader.node_id != exclude

    # ------------------------------------------------------------------ #
    # Fault injection
    # ------------------------------------------------------------------ #
    def crash(self, server_id: ServerId) -> None:
        """Crash a server: stop its timers and detach it from the network."""
        if server_id in self._crashed:
            raise ClusterError(f"S{server_id} is already crashed")
        node = self.node(server_id)
        node.stop()
        # stop() keeps the node's role (a crashed leader stays LEADER on
        # disk), so evict it from the live-leader set explicitly; recover()
        # rejoins as follower, which needs no tracker update.
        self._leader_tracker.evict(server_id)
        self.network.disconnect(server_id)
        self._crashed.add(server_id)
        self.world.trace("cluster.crash", node=server_id)

    def recover(self, server_id: ServerId) -> None:
        """Recover a crashed server: reattach it and restart it as a follower."""
        if server_id not in self._crashed:
            raise ClusterError(f"S{server_id} is not crashed")
        self.network.reconnect(server_id)
        self.node(server_id).recover()
        self._crashed.discard(server_id)
        self.world.trace("cluster.recover", node=server_id)

    def crash_leader(self) -> ServerId:
        """Crash the current leader and return its identifier."""
        leader = self.leader()
        if leader is None:
            raise ClusterError("cannot crash the leader: no leader is running")
        self.crash(leader.node_id)
        return leader.node_id

    def set_fault(self, fault: FaultInjector) -> None:
        """Install (or replace) the network fault injector."""
        self.network.set_fault(fault)

    def describe(self) -> str:
        """Multi-line summary of every node (used by the examples)."""
        lines = [f"cluster protocol={self.protocol} size={self.config.size}"]
        for server_id in self.config.server_ids:
            node = self.nodes[server_id]
            status = "CRASHED" if server_id in self._crashed else node.describe()
            lines.append(f"  {status}")
        return "\n".join(lines)


def build_cluster(
    protocol: str,
    size: int,
    seed: int = 0,
    latency: LatencyModel | None = None,
    fault: FaultInjector | None = None,
    protocol_config: ProtocolConfig | None = None,
    listeners: Iterable[NodeListener] = (),
    timeout_script: tuple[Milliseconds, ...] = (),
    trace: bool = True,
    engine: str | EngineSpec | None = None,
) -> SimulatedCluster:
    """Build a ready-to-start simulated cluster.

    Args:
        protocol: any name registered in :mod:`repro.protocols` (e.g.
            ``"raft"``, ``"escape"``, ``"zraft"``, ``"escape-noppf"``).
        size: number of servers (``S1 .. Sn``).
        seed: root seed of the run (drives every random decision).
        latency: latency model (defaults to :data:`~repro.net.latency.PAPER_LATENCY`).
        fault: fault injector (defaults to a healthy network).
        protocol_config: timing knobs (defaults to the paper's values).
        listeners: listeners attached to every node (e.g. an
            :class:`~repro.cluster.observers.ElectionObserver`).
        timeout_script: every node's contention script: its first waits
            after losing the leader, before the protocol's own timeouts (see
            :class:`~repro.raft.node.RaftNode`; used by the contention
            scenarios).
        trace: whether to record the world trace (disable in large sweeps).
        engine: simulation engine name registered in
            :mod:`repro.sim.engines`, or its spec; ``None`` means ``flat``.
    """
    spec = protocols.get(protocol)
    cluster_config = ClusterConfig.of_size(size)
    config = protocol_config or ProtocolConfig.paper_defaults()
    world = SimulationWorld(seed=seed, trace=trace, engine=engine)
    network_class = world.engine.network_class()
    network = network_class(
        world,
        cluster_config.server_ids,
        latency=latency,
        fault=fault,
    )

    nodes: dict[ServerId, RaftNode] = {}
    leader_tracker = _LeaderTracker(world.scheduler.interrupt)
    # Entered once for the whole cluster; each node copies the table.
    shared_table = listener_table([leader_tracker, *listeners])
    for server_id in cluster_config.server_ids:
        env = SimNodeEnvironment(world, network, server_id)
        node = spec.build_node(
            node_id=server_id,
            cluster=cluster_config,
            env=env,
            store=InMemoryStore(),
            state_machine=KeyValueStore(),
            protocol_config=config,
            listeners=shared_table,
            timeout_script=timeout_script,
        )
        network.register(server_id, node.on_message)
        nodes[server_id] = node

    return SimulatedCluster(
        spec.name, cluster_config, world, network, nodes, leader_tracker
    )
