"""Inert sends: the sender's proof obligation, checked rather than argued.

``Environment.send(dst, message, inert=True)`` lets a simulated network skip a
delivery.  That is only sound if no receiver, in any state it can reach, does
anything with the message -- and if the networks that honour the flag change
nothing else by honouring it.  Three checks, none of them through a switch in
the production code:

* the *receiver side*, exhaustively over every registered protocol's node
  class, role and term: a same-term-or-older vote refusal leaves the node,
  its environment and its listeners untouched.  A protocol that starts counting refusals
  fails here, not in a golden report;
* the *network side*, as an oracle: the same episodes with both networks'
  ``send`` patched to ignore the flag (so every refusal is delivered, as
  before the flag existed) measure the same and end at the same instant;
* a *count pin*: elision keeps removing the share of events it was added to
  remove.

Together with ``test_engine_differential.py`` (the engines agree with each
other while eliding) this is the engine contract for inert sends.
"""

from __future__ import annotations

import pytest

from helpers import FakeEnvironment, fast_protocol_config, small_cluster

from repro import protocols
from repro.chaos.plans import CHAOS_CATALOG, build_plan
from repro.chaos.scenario import ChaosScenario
from repro.cluster.catalog import CATALOG, network_specs
from repro.cluster.scenarios import ElectionScenario
from repro.net.flatnet import FlatNetwork
from repro.net.network import SimulatedNetwork
from repro.raft.messages import RequestVoteResponse
from repro.raft.state import Role
from repro.sim.engines import names as engine_names
from repro.workload.scenario import ThroughputScenario

#: Every registered protocol that can finish a measured election episode
#: (``raft-fixed`` livelocks by design).
LIVENESS_PROTOCOLS = tuple(
    name for name, spec in protocols.items() if spec.guarantees_liveness
)

CLUSTER_SIZE = 5
NODE_ID = 2


# --------------------------------------------------------------------------- #
# (i) No receiver acts on a refusal that is not newer than its own term
# --------------------------------------------------------------------------- #
class _RecordingListener:
    """Records every listener callback, whatever its name."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def __getattr__(self, name: str):
        if not name.startswith("on_"):
            raise AttributeError(name)
        return lambda *args: self.calls.append((name, *args))


def _node_in(protocol: str, role: Role, running: bool):
    """A node of *protocol* driven into *role* by the messages that get it there."""
    env = FakeEnvironment(node_id=NODE_ID, seed=7)
    node = protocols.get(protocol).build_node(
        node_id=NODE_ID,
        cluster=small_cluster(CLUSTER_SIZE),
        env=env,
        protocol_config=fast_protocol_config(),
    )
    node.start()
    if role is not Role.FOLLOWER:
        env.fire_next_timer(f"S{NODE_ID}:election-timeout")
        assert node.role is Role.CANDIDATE
    if role is Role.LEADER:
        for voter in (1, 3):
            node.on_message(
                voter,
                RequestVoteResponse(
                    term=node.current_term, voter_id=voter, vote_granted=True
                ),
            )
        assert node.role is Role.LEADER
        node.propose("x")
    if not running:
        node.stop()
    assert node.role is role
    return node, env


def _observable_state(node, env) -> tuple:
    """Everything the issue's proof obligation names, as one comparable value."""
    return (
        node.current_term,
        node.voted_for,
        node.role,
        node.leader_id,
        node.is_running,
        (node.votes.term, node.votes.votes),
        tuple(node.log.entries_from(1)),
        node.commit_index,
        node.last_applied,
        (node.store.load_term(), node.store.load_voted_for()),
        dict(node.stats),
        # Timers: which exist, which are cancelled, and which the node holds.
        [(timer.label, timer.delay_ms, timer.cancelled) for timer in env.timers],
        (
            id(node._election_timer),
            id(node._heartbeat_timer),
            id(node._vote_retry_timer),
        ),
        env.rng.getstate(),
    )


def _handle_refusal(node, env, term: int, src: int = 1, voter_id: int = 1):
    """Deliver one refusal; returns ``(state changed?, sends, traces, listener calls)``."""
    listener = _RecordingListener()
    node.add_listener(listener)
    env.clear_sent()
    env.traces.clear()
    before = _observable_state(node, env)
    node.on_message(
        src, RequestVoteResponse(term=term, voter_id=voter_id, vote_granted=False)
    )
    changed = _observable_state(node, env) != before
    return changed, list(env.sent), list(env.traces), listener.calls


@pytest.mark.parametrize("running", (True, False), ids=("running", "stopped"))
@pytest.mark.parametrize("role", list(Role), ids=str)
@pytest.mark.parametrize("protocol", protocols.names())
class TestNoReceiverActsOnAnInertRefusal:
    def test_refusal_at_or_below_the_receivers_term_changes_nothing(
        self, protocol, role, running
    ):
        # Exhaustive, not sampled: every term the refusal can carry, from
        # every peer, naming every voter.
        current_term = _node_in(protocol, role, running)[0].current_term
        for term in range(current_term + 1):
            for src in (1, 3, 4, 5):
                for voter_id in (1, 3, 4, 5):
                    node, env = _node_in(protocol, role, running)
                    assert _handle_refusal(node, env, term, src, voter_id) == (
                        False,
                        [],
                        [],
                        [],
                    )

    def test_the_observation_is_not_blind(self, protocol, role, running):
        # Control: one term newer and the same observation sees the node
        # adopt it (unless the node is stopped and hears nothing).
        node, env = _node_in(protocol, role, running)
        changed, *_ = _handle_refusal(node, env, node.current_term + 1)
        assert changed is running


# --------------------------------------------------------------------------- #
# (ii) Honouring the flag changes no result
# --------------------------------------------------------------------------- #
@pytest.fixture
def deliver_everything(monkeypatch):
    """Patch both networks' ``send`` to ignore ``inert``: the pre-flag behaviour."""

    def patch():
        for network_class in (SimulatedNetwork, FlatNetwork):
            original = network_class.send

            def send(self, src, dst, payload, inert=False, _original=original):
                return _original(self, src, dst, payload)

            monkeypatch.setattr(network_class, "send", send)

    return patch


def _outcome(scenario, seed: int) -> tuple:
    """One episode through the run template, plus what only the cluster shows."""
    measurement, cluster = scenario._run_measured(seed)
    stats = cluster.network.stats
    outcome = (
        measurement,
        cluster.world.now(),
        # Send-side accounting must not notice whether deliveries are elided.
        (
            stats.sent,
            stats.duplicated,
            stats.broadcast_count,
            stats.dropped_by_fault,
            dict(stats.per_type_sent),
        ),
        # Nor may any node's protocol state.
        [
            (
                node.current_term,
                node.voted_for,
                node.role,
                node.commit_index,
                node.log.last_index,
                dict(node.stats),
            )
            for node in cluster.nodes.values()
        ],
    )
    elided = stats.elided
    cluster.close()
    return outcome, elided


def _assert_eliding_equals_delivering(scenarios, seeds, deliver_everything) -> int:
    """Compare every episode both ways; returns how many copies were elided."""
    eliding = [_outcome(scenario, seed) for scenario in scenarios for seed in seeds]
    deliver_everything()
    delivering = [_outcome(scenario, seed) for scenario in scenarios for seed in seeds]
    assert [outcome for outcome, _ in eliding] == [
        outcome for outcome, _ in delivering
    ]
    assert all(elided == 0 for _, elided in delivering)
    return sum(elided for _, elided in eliding)


class TestElidingEqualsDelivering:
    SEEDS = (0, 7, 42)

    @pytest.mark.parametrize("size", (5, 16))
    @pytest.mark.parametrize("condition", CATALOG.names())
    def test_election_episodes_under_every_catalog_condition(
        self, condition, size, deliver_everything
    ):
        scenarios = [
            ElectionScenario(protocol, size, **network_specs(condition))
            for protocol in LIVENESS_PROTOCOLS
        ]
        elided = _assert_eliding_equals_delivering(
            scenarios, self.SEEDS, deliver_everything
        )
        # Not a vacuous comparison: at 16 servers every condition splits votes
        # (at 5, a low-latency one may not).
        assert elided > 0 or size == 5

    @pytest.mark.parametrize("engine", engine_names())
    def test_on_each_engine(self, engine, deliver_everything):
        # Both networks carry the branch; the grid above runs the default one.
        scenarios = [
            ElectionScenario(protocol, 5, engine=engine, **network_specs(condition))
            for protocol in ("raft", "escape")
            for condition in ("paper-default", "chaos-composite")
        ]
        assert _assert_eliding_equals_delivering(
            scenarios, self.SEEDS, deliver_everything
        )

    @pytest.mark.parametrize("plan_name", CHAOS_CATALOG.names())
    def test_windowed_episodes_under_every_chaos_plan(
        self, plan_name, deliver_everything
    ):
        plan = build_plan(plan_name, horizon_ms=30_000.0, seed=1)
        scenarios = [
            ChaosScenario("raft", 5, plan=plan),
            ChaosScenario("escape", 5, plan=plan),
            ThroughputScenario("raft", 5, plan=plan, workload="open-poisson"),
            ThroughputScenario("escape", 5, plan=plan, workload="closed-loop"),
        ]
        assert _assert_eliding_equals_delivering(
            scenarios, self.SEEDS[:2], deliver_everything
        )


# --------------------------------------------------------------------------- #
# (iii) Elision keeps removing the events it was added to remove
# --------------------------------------------------------------------------- #
class TestElisionCountPin:
    @pytest.mark.parametrize("seed", (1, 2, 3, 4, 5))
    def test_raft_at_64_executes_far_fewer_events_than_it_sends(self, seed):
        # Counts, never time.  Without elision every message sent is one
        # event executed, plus the timers: executed / sent read 0.89-1.00;
        # with the same-term refusals elided it reads 0.56-0.65.
        scenario = ElectionScenario("raft", 64, pre_crash_ms=0.0)
        cluster, harness = scenario.build(seed)
        cluster.start_all()
        harness.stabilize(max_time_ms=scenario.stabilize_ms)
        measurement = harness.crash_leader_and_measure(seed=seed)
        assert measurement.converged
        stats = cluster.network.stats
        assert stats.elided > 0
        assert cluster.world.scheduler.executed_count <= 0.70 * stats.sent
