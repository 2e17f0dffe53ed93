"""The objects every handler touches keep a fixed or a shared-key layout.

CPython 3.11 and 3.12 share one key table among the instance dicts of a class
only while an instance holds at most 30 attributes.  Past that, each instance
falls back to a private dict, and every ``self.*`` read and write in every
handler takes the slower lookup: four reads and a write cost 83 ns on an
instance with 29 attributes and 100 ns on one with 31 (83 ns again with 40
slots).  Bytecode counts do not see the difference.  So a protocol node, which
holds more than 30 fields, declares ``__slots__`` down its whole class chain,
and every other object built per node or per message is slotted or stays at
30 attributes or fewer.  Both are checked here on live objects, after an
election episode and after a serving window, for every registered protocol.
"""

from __future__ import annotations

import pytest

from repro import protocols
from repro.chaos.availability import quorum_leader
from repro.chaos.driver import ChaosDriver
from repro.chaos.plans import build_plan
from repro.cluster.environment import SimNodeEnvironment
from repro.cluster.scenarios import ElectionScenario
from repro.escape.ppf import ProbingPatrol
from repro.net.flatnet import FlatNetwork
from repro.net.network import NetworkStats
from repro.raft.election import VoteTally
from repro.raft.replication import PeerProgress, ReplicationProgress
from repro.sim.flatcore import FlatEventScheduler
from repro.statemachine.kvstore import KeyValueStore
from repro.storage.log import ReplicatedLog
from repro.storage.persistent import InMemoryStore
from repro.workload import WorkloadDriver
from repro.workload.scenario import ThroughputScenario

#: The most attributes an instance dict holds with its keys still shared.
SHARED_KEY_LIMIT = 30

HOT_CLASSES = (
    FlatNetwork,
    FlatEventScheduler,
    SimNodeEnvironment,
    ReplicationProgress,
    PeerProgress,
    ProbingPatrol,
    VoteTally,
    NetworkStats,
    ReplicatedLog,
    InMemoryStore,
    KeyValueStore,
)


def _election(protocol: str):
    """An s=8 failover episode; the cluster is left open."""
    cluster, harness = ElectionScenario(protocol, 8).build(7)
    cluster.start_all()
    harness.stabilize()
    harness.crash_leader_and_measure()
    return cluster


def _serving(protocol: str):
    """An s=8 serving window with two leader kills; the cluster is left open."""
    scenario = ThroughputScenario(
        protocol,
        8,
        plan=build_plan("repeated-leader-kill", 6_000.0, seed=0),
        workload="open-poisson",
    )
    cluster, harness = scenario.election_scenario().build(7)
    cluster.start_all()
    harness.stabilize()
    workload = WorkloadDriver(
        cluster, scenario.workload, seed=7, leader_selector=lambda: quorum_leader(cluster)
    )
    workload.start()
    ChaosDriver(cluster, scenario.plan).start()
    harness.run_for(scenario.plan.horizon_ms)
    assert workload.proposed > 0
    return cluster


def _hot_objects(cluster):
    """The nodes, and every per-node and per-message object they reach."""
    network = cluster.network
    yield from (network, network.stats, cluster.world.scheduler)
    for node in cluster.nodes.values():
        yield from (node, node.env, node.votes, node.log, node.store, node.state_machine)
        if node.progress is not None:
            yield node.progress
            yield from node.progress.peers.values()
        patrol = getattr(node, "patrol", None)
        if patrol is not None:
            yield patrol


EPISODES = [
    pytest.param(run, protocol, id=f"{run.__name__[1:]}-{protocol}")
    for run in (_election, _serving)
    for protocol in protocols.names()
]


@pytest.fixture(scope="module")
def clusters():
    """Each episode once, shared by the checks below."""
    built = {}

    def get(run, protocol):
        if (run, protocol) not in built:
            built[run, protocol] = run(protocol)
        return built[run, protocol]

    yield get
    for cluster in built.values():
        cluster.close()


@pytest.mark.parametrize(("run", "protocol"), EPISODES)
def test_no_protocol_node_has_an_instance_dict(clusters, run, protocol):
    cluster = clusters(run, protocol)
    with_dict = {
        type(node).__name__: sorted(vars(node))
        for node in cluster.nodes.values()
        if hasattr(node, "__dict__")
    }
    assert with_dict == {}, (
        "a node class without __slots__ (every RaftNode subclass declares its "
        "own, () when it adds no field)"
    )


@pytest.mark.parametrize(("run", "protocol"), EPISODES)
def test_hot_objects_are_slotted_or_keep_shared_keys(clusters, run, protocol):
    too_wide = {
        type(item).__name__: len(vars(item))
        for item in _hot_objects(clusters(run, protocol))
        if hasattr(item, "__dict__") and len(vars(item)) > SHARED_KEY_LIMIT
    }
    assert too_wide == {}, (
        f"{too_wide}: instance attributes past {SHARED_KEY_LIMIT} end CPython's "
        "shared-key instance dicts, so every attribute access takes the "
        "private-dict lookup; declare __slots__ or drop attributes"
    )


def test_the_episodes_reach_every_hot_class(clusters):
    seen = {
        type(item)
        for run in (_election, _serving)
        for protocol in ("escape", "raft")
        for item in _hot_objects(clusters(run, protocol))
    }
    assert set(HOT_CLASSES) <= seen, set(HOT_CLASSES) - seen
