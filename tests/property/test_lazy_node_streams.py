"""Node random streams are seeded on first read, and that changes no draw.

``SimNodeEnvironment.rng`` is created the first time it is read, as
``world.seeds.stream("node", node_id)``.  Two things follow and are checked
here: a node that never draws never pays for its stream (ESCAPE, Z-Raft and
the fixed-timeout Raft baselines never draw, a contention script included),
and a node that does draw sees exactly the stream an eagerly seeded
environment would have given it, whenever the first read happens.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.environment import SimNodeEnvironment
from repro.cluster.scenarios import ElectionScenario
from repro.common.rng import SeedSequence
from repro.net.faults import BroadcastOmissionFault
from repro.sim import engines
from repro.sim.world import SimulationWorld

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _episode(scenario: ElectionScenario, seed: int, before_start=None):
    """``scenario.run(seed)`` from its public pieces, keeping the cluster open;
    *before_start(cluster)* runs after the build."""
    cluster, harness = scenario.build(seed)
    if before_start is not None:
        before_start(cluster)
    cluster.start_all()
    harness.stabilize(max_time_ms=scenario.stabilize_ms)
    harness.run_for(scenario.pre_crash_ms)
    measurement = harness.crash_leader_and_measure(
        max_election_ms=scenario.max_election_ms, seed=seed
    )
    return measurement, cluster


# --------------------------------------------------------------------------- #
# A node that never draws never creates its stream
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "loss_rate, contention_phases",
    ((0.0, 0), (0.2, 0), (0.0, 2), (0.2, 2)),
    ids=("no-loss", "loss20", "no-loss-contention2", "loss20-contention2"),
)
@pytest.mark.parametrize("engine", engines.names())
@pytest.mark.parametrize("protocol", ("escape", "zraft", "escape-noppf", "raft-stagger"))
def test_an_episode_that_never_draws_creates_no_node_stream(
    protocol, engine, loss_rate, contention_phases
):
    scenario = ElectionScenario(
        protocol,
        16,
        fault=BroadcastOmissionFault(loss_rate) if loss_rate else None,
        contention_phases=contention_phases,
        engine=engine,
    )
    measurement, cluster = _episode(scenario, seed=5)
    assert measurement.converged
    assert [
        server_id for server_id, node in cluster.nodes.items() if "rng" in vars(node.env)
    ] == []
    cluster.close()


@pytest.mark.parametrize("engine", engines.names())
def test_raft_fixed_creates_no_node_stream(engine):
    # raft-fixed livelocks by design, so it runs for a while, not an episode.
    cluster, harness = ElectionScenario("raft-fixed", 16, engine=engine).build(seed=5)
    cluster.start_all()
    harness.run_for(20_000.0)
    assert max(node.current_term for node in cluster.nodes.values()) > 1
    assert not any("rng" in vars(node.env) for node in cluster.nodes.values())
    cluster.close()


def test_every_raft_node_creates_its_stream():
    # Control: Raft draws every election timeout.
    _, cluster = _episode(ElectionScenario("raft", 16), seed=5)
    assert all("rng" in vars(node.env) for node in cluster.nodes.values())
    cluster.close()


# --------------------------------------------------------------------------- #
# A node that draws sees the eagerly seeded stream, whenever it first reads it
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", engines.names())
@given(
    seed=SEEDS,
    node_id=st.integers(min_value=1, max_value=5),
    busy_ms=st.sampled_from([0.0, 1.0, 250.0]),
    sends=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_the_first_read_returns_the_eagerly_seeded_stream(
    engine, seed, node_id, busy_ms, sends
):
    world = SimulationWorld(seed=seed, trace=False, engine=engine)
    network = world.engine.network_class()(world, (1, 2, 3, 4, 5))
    for member in (1, 2, 3, 4, 5):
        network.register(member, lambda src, payload: None)
    env = SimNodeEnvironment(world, network, node_id)
    # Unrelated streams drawn and simulated time passed before the first read.
    for _ in range(sends):
        env.send(1 + node_id % 5, "ping")
    world.run_for(busy_ms)
    assert "rng" not in vars(env)
    eager = SeedSequence(seed).stream("node", node_id)
    assert [env.rng.random() for _ in range(5)] == [eager.random() for _ in range(5)]
    assert env.rng is env.rng


@pytest.mark.parametrize("engine", engines.names())
@given(seed=SEEDS, eager_nodes=st.sets(st.integers(min_value=1, max_value=7)))
@settings(max_examples=15, deadline=None)
def test_a_raft_episode_is_the_same_with_eagerly_seeded_streams(
    engine, seed, eager_nodes
):
    scenario = ElectionScenario("raft", 7, engine=engine)

    def seed_eagerly(cluster):
        for server_id in eager_nodes:
            env = cluster.nodes[server_id].env
            env.rng = SeedSequence(seed).stream("node", server_id)

    outcomes = []
    for before_start in (None, seed_eagerly):
        measurement, cluster = _episode(scenario, seed, before_start)
        outcomes.append(
            (
                measurement,
                cluster.world.now(),
                {sid: node.env.rng.getstate() for sid, node in cluster.nodes.items()},
            )
        )
        cluster.close()
    assert outcomes[0] == outcomes[1]
