"""Folding simulator-layer counters into a :class:`MetricsRegistry`.

The scheduler, the network engines and the chaos driver already keep cheap
internal counters on their hot paths; rather than threading a metrics handle
through every event (which would tax the telemetry-disabled case), these
helpers *harvest* those counters into a registry after a run.  Only protocol
node events need a live listener (:class:`TelemetryListener`), and it is
attached only when a scenario opts into telemetry.

Metric names are dotted and stable -- they are part of the snapshot contract
pinned by the engine/worker parity tests.  The table is the whole vocabulary:
``tests/unit/test_obs_telemetry.py`` checks it against what an episode emits,
name for name in both directions (``<...>`` stands for one dotted segment).
Two of the names, :data:`ENGINE_OWNED_METRICS`, describe how *one* engine
keeps its heap small and are left out of cross-engine comparison.

============================  =================================================
``sim.events.scheduled``      events given a sequence number (counter)
``sim.events.executed``       events run (counter)
``sim.events.cancelled``      live events cancelled (counter)
``sim.events.pending``        live events still queued at harvest (gauge)
``sim.heap.compactions``      heap rebuilds (counter; engine-owned)
``sim.heap.size``             heap records, dead included (gauge; engine-owned)
``net.sent``                  messages handed to the network (counter)
``net.sent.<MsgType>``        the same, per payload type
``net.delivered``             copies handed to a node
``net.duplicated``            extra copies made by a duplication fault
``net.broadcasts``            logical broadcasts
``net.dropped.fault``         copies lost to the fault injector
``net.dropped.partition``     copies lost to a partition
``net.dropped.disconnected``  copies lost to a crashed endpoint
``net.dropped.in_flight``     how many of the last two were lost at delivery
``chaos.applied``             applied disruptions
``chaos.applied.<kind>``      the same, per event kind
``chaos.skipped``             quorum-guard skips
``chaos.skipped.<kind>``      the same, per event kind
``node.election_timeouts``    election timers that fired
``node.timeout_attempts``     their attempt numbers (histogram)
``node.campaigns``            elections started
``node.votes_granted``        votes granted
``node.elections_won``        leaders elected
``node.role_changes``         role transitions
``node.commits``              entries applied, summed over nodes
``workload.proposed``         client proposals a leader accepted
``workload.rejected``         proposals abandoned after ``NotLeaderError``
``workload.dropped``          proposals dropped while leaderless
``workload.committed``        tracked ops applied to the state machine
``workload.retries``          extra attempts after ``NotLeaderError``
``workload.lost``             proposed ops that never committed (failover loss)
============================  =================================================

The ``workload.*`` counters come from :func:`harvest_workload`; the tracked
trio stays zero under the untracked ``legacy-interval`` workload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.telemetry import MetricsRegistry
from repro.raft.listeners import NodeListenerBase
from repro.raft.state import Role

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids layer cycles
    from repro.chaos.driver import ChaosDriver

__all__ = [
    "ENGINE_OWNED_METRICS",
    "TelemetryListener",
    "harvest_chaos",
    "harvest_cluster",
    "harvest_network",
    "harvest_scheduler",
    "harvest_workload",
]

#: The metrics of the table above that are *engine-owned*: ``flat`` compacts
#: dead records away, ``classic`` lets a cancelled timer sit until its time
#: comes, so the two read differently for the same episode.  Every other name
#: is bit-identical across engines (``tests/property/test_obs_parity.py``);
#: these two are compared between runs of the same engine only.
ENGINE_OWNED_METRICS: frozenset[str] = frozenset(  # repro: allow[U1] -- test_obs_parity's exclusion set
    {"sim.heap.size", "sim.heap.compactions"}
)

#: Bucket bounds for the election-timeout attempt histogram: attempts are
#: small integers, so one bucket per attempt up to 8, then overflow.
ATTEMPT_BOUNDS: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)


def harvest_scheduler(scheduler, metrics: MetricsRegistry) -> None:
    """Fold a scheduler's event/heap counters into *metrics*.

    Works for either engine's scheduler; the engine contract guarantees the
    ``sim.events.*`` counts agree (the ``sim.heap.*`` pair is engine-owned).
    """
    metrics.counter("sim.events.scheduled").inc(scheduler.scheduled_count)
    metrics.counter("sim.events.executed").inc(scheduler.executed_count)
    metrics.counter("sim.events.cancelled").inc(scheduler.cancelled_count)
    metrics.counter("sim.heap.compactions").inc(scheduler.compaction_count)
    metrics.gauge("sim.events.pending").set(scheduler.pending_count)
    metrics.gauge("sim.heap.size").set(scheduler.heap_size)


def harvest_network(network, metrics: MetricsRegistry) -> None:
    """Fold a network's :class:`~repro.net.network.NetworkStats` into *metrics*."""
    stats = network.stats
    metrics.counter("net.sent").inc(stats.sent)
    metrics.counter("net.delivered").inc(stats.delivered)
    metrics.counter("net.duplicated").inc(stats.duplicated)
    metrics.counter("net.broadcasts").inc(stats.broadcast_count)
    metrics.counter("net.dropped.fault").inc(stats.dropped_by_fault)
    metrics.counter("net.dropped.partition").inc(stats.dropped_by_partition)
    metrics.counter("net.dropped.disconnected").inc(stats.dropped_disconnected)
    metrics.counter("net.dropped.in_flight").inc(stats.dropped_in_flight)
    per_type_sent = stats.per_type_sent  # a view, built on each read
    for message_type in sorted(per_type_sent):
        metrics.counter(f"net.sent.{message_type}").inc(per_type_sent[message_type])


def harvest_chaos(driver: "ChaosDriver", metrics: MetricsRegistry) -> None:
    """Fold a chaos driver's applied/skipped records into *metrics*."""
    metrics.counter("chaos.applied").inc(len(driver.applied))
    metrics.counter("chaos.skipped").inc(len(driver.skipped))
    for record in driver.applied:
        metrics.counter(f"chaos.applied.{record.kind}").inc()
    for record in driver.skipped:
        metrics.counter(f"chaos.skipped.{record.kind}").inc()


def harvest_workload(workload, metrics: MetricsRegistry) -> None:
    """Fold a workload driver's counters into *metrics*."""
    metrics.counter("workload.proposed").inc(workload.proposed)
    metrics.counter("workload.rejected").inc(workload.rejected)
    metrics.counter("workload.dropped").inc(workload.dropped)
    metrics.counter("workload.committed").inc(workload.committed)
    metrics.counter("workload.retries").inc(workload.retries)
    metrics.counter("workload.lost").inc(workload.lost)


def harvest_cluster(cluster, metrics: MetricsRegistry) -> None:
    """Fold a simulated cluster's scheduler and network counters into *metrics*."""
    harvest_scheduler(cluster.world.scheduler, metrics)
    harvest_network(cluster.network, metrics)


class TelemetryListener(NodeListenerBase):
    """A node listener recording protocol events into a registry.

    Counter handles are resolved once at construction so each callback is a
    single attribute bump; :meth:`repro.cluster.scenarios.Scenario.build`
    attaches one when handed the episode's ``metrics`` registry (which every
    scenario's ``run`` does when it has ``telemetry=True``).
    """

    def __init__(self, metrics: MetricsRegistry) -> None:
        self._timeouts = metrics.counter("node.election_timeouts")
        self._campaigns = metrics.counter("node.campaigns")
        self._votes = metrics.counter("node.votes_granted")
        self._wins = metrics.counter("node.elections_won")
        self._role_changes = metrics.counter("node.role_changes")
        self._commits = metrics.counter("node.commits")
        self._attempts = metrics.histogram("node.timeout_attempts", ATTEMPT_BOUNDS)

    def on_role_change(
        self, node_id: int, old_role: Role, new_role: Role, term: int, time_ms: float
    ) -> None:
        self._role_changes.inc()

    def on_election_timeout(
        self, node_id: int, term: int, attempt: int, time_ms: float
    ) -> None:
        self._timeouts.inc()
        self._attempts.observe(attempt)

    def on_election_started(self, node_id: int, term: int, time_ms: float) -> None:
        self._campaigns.inc()

    def on_vote_granted(
        self, voter_id: int, candidate_id: int, term: int, time_ms: float
    ) -> None:
        self._votes.inc()

    def on_leader_elected(
        self, leader_id: int, term: int, votes: int, time_ms: float
    ) -> None:
        self._wins.inc()

    def on_entry_committed(
        self, node_id: int, index: int, term: int, time_ms: float
    ) -> None:
        self._commits.inc()
