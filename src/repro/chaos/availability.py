"""Steady-state availability measurement for chaos runs.

The paper's argument is that faster leader election matters because every
leaderless interval is downtime; this module measures exactly that over a
long, repeatedly-disrupted horizon.  The cluster counts as *available* at an
instant when some running leader can still reach a voting quorum -- a
running node in the ``LEADER`` role whose partition cell contains at least a
quorum of running members.  A leader isolated behind a partition therefore
does **not** count (it can never commit), even though it still believes it is
leader, which is what makes partition plans measurable at all.

Availability only changes at discrete instants -- role changes, crashes,
recoveries, partitions, heals -- all of which the harness observes: the
:class:`AvailabilityObserver` is attached to every node as a listener (role
changes, elections) and poked by the :class:`~repro.chaos.driver.ChaosDriver`
after every injection.  Each poke re-evaluates :func:`cluster_available` and
records a transition into an :class:`AvailabilityTimeline`, a pure
piecewise-constant state track that finalises into ordered, non-overlapping
intervals tiling the measured window exactly (a hypothesis property test pins
this for arbitrary transition sequences).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.errors import SimulationError
from repro.common.types import Milliseconds
from repro.raft.listeners import NodeListenerBase

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.cluster.builder import SimulatedCluster
    from repro.raft.node import RaftNode

__all__ = [
    "AvailabilityObserver",
    "AvailabilityReport",
    "AvailabilityTimeline",
    "cluster_available",
    "quorum_leader",
]

Interval = tuple[Milliseconds, Milliseconds]


def quorum_leader(cluster: "SimulatedCluster") -> "RaftNode | None":
    """The highest-term running leader that can currently reach a quorum.

    A crashed leader is not running; a partitioned leader only counts when
    its cell still contains a quorum of *running* members (votes and commits
    both need a majority of the full membership).  This is also the leader a
    well-behaved client would end up talking to -- requests to a stale
    isolated leader time out and the client fails over to the majority side.

    The workload's clients ask before every attempt, so this reads the
    cluster's leader tracker instead of scanning the nodes: a started
    cluster's member runs unless :meth:`SimulatedCluster.crash` stopped it.
    Ties on term go to the lowest server id.
    """
    leader_ids = cluster.leader_ids
    if not leader_ids:
        return None
    quorum = cluster.config.quorum_size
    partitions = cluster.network.partitions
    crashed = cluster.crashed
    best = None
    for leader_id in sorted(leader_ids):
        if len(partitions.cell_members(leader_id) - crashed) >= quorum:
            leader = cluster.nodes[leader_id]
            if best is None or leader.current_term > best.current_term:
                best = leader
    return best


def cluster_available(cluster: "SimulatedCluster") -> bool:
    """Whether some running leader can currently reach a voting quorum."""
    return quorum_leader(cluster) is not None


@dataclass(frozen=True)
class AvailabilityReport:
    """The finalized availability decomposition of one measured window.

    ``available_intervals`` and ``leaderless_intervals`` are each ordered and
    non-overlapping, and their union tiles ``[start_ms, end_ms]`` exactly:
    every boundary where availability flipped appears as the end of one
    interval and the start of the next.
    """

    start_ms: Milliseconds
    end_ms: Milliseconds
    available_intervals: tuple[Interval, ...]
    leaderless_intervals: tuple[Interval, ...]

    @property
    def duration_ms(self) -> Milliseconds:
        """Length of the measured window."""
        return self.end_ms - self.start_ms

    @property
    def available_ms(self) -> Milliseconds:
        """Total time with a quorum-capable leader."""
        return sum(end - start for start, end in self.available_intervals)

    @property
    def leaderless_ms(self) -> Milliseconds:
        """Total time without a quorum-capable leader."""
        return sum(end - start for start, end in self.leaderless_intervals)

    @property
    def unavailability(self) -> float:
        """Leaderless fraction of the window, clamped into ``[0, 1]``.

        The clamp only absorbs float summation noise; the interval lists
        themselves tile the window exactly.
        """
        if self.duration_ms <= 0.0:
            return 0.0
        return min(1.0, max(0.0, self.leaderless_ms / self.duration_ms))

    @property
    def availability(self) -> float:
        """Available fraction of the window (``1 - unavailability``)."""
        return 1.0 - self.unavailability

    def recovery_latencies_ms(self) -> tuple[Milliseconds, ...]:
        """Duration of each leaderless interval (one per outage, in order).

        An outage still open when the window closed is included at its
        censored length -- dropping it would make a protocol that never
        recovers look better.
        """
        return tuple(end - start for start, end in self.leaderless_intervals)


class AvailabilityTimeline:
    """A piecewise-constant available/leaderless track over simulated time.

    Transitions must arrive with non-decreasing timestamps (simulated time
    never runs backwards).  Recording the current state again is a no-op, and
    a flip at the exact same instant as the previous one collapses the
    zero-length segment instead of emitting it -- a leader elected and
    partitioned away in the same scheduler instant never existed,
    observationally.
    """

    def __init__(self, start_ms: Milliseconds, available: bool) -> None:
        self._transitions: list[tuple[Milliseconds, bool]] = [
            (float(start_ms), bool(available))
        ]

    @property
    def start_ms(self) -> Milliseconds:
        """When the measured window opened."""
        return self._transitions[0][0]

    def record(self, time_ms: Milliseconds, available: bool) -> None:
        """Record the availability state observed at *time_ms*."""
        last_time, last_state = self._transitions[-1]
        if time_ms < last_time:
            raise SimulationError(
                f"availability transition at {time_ms} ms precedes the "
                f"previous one at {last_time} ms"
            )
        if available == last_state:
            return
        if time_ms == last_time:
            # Collapse the zero-length segment; merge with the predecessor
            # when the overwrite lands back on its state.
            self._transitions.pop()
            if self._transitions and self._transitions[-1][1] == available:
                return
        self._transitions.append((float(time_ms), bool(available)))

    def finalize(self, end_ms: Milliseconds) -> AvailabilityReport:
        """Close the window at *end_ms* and emit the interval decomposition."""
        last_time, _ = self._transitions[-1]
        if end_ms < last_time:
            raise SimulationError(
                f"window end {end_ms} ms precedes the last transition at "
                f"{last_time} ms"
            )
        available: list[Interval] = []
        leaderless: list[Interval] = []
        for index, (start, state) in enumerate(self._transitions):
            end = (
                self._transitions[index + 1][0]
                if index + 1 < len(self._transitions)
                else float(end_ms)
            )
            if end == start:
                continue
            (available if state else leaderless).append((start, end))
        return AvailabilityReport(
            start_ms=self.start_ms,
            end_ms=float(end_ms),
            available_intervals=tuple(available),
            leaderless_intervals=tuple(leaderless),
        )


class AvailabilityObserver(NodeListenerBase):
    """Tracks cluster availability through a chaos run.

    Attach to every node (as a listener) *before* the cluster starts, then
    call :meth:`begin` once the pre-measurement stabilisation is done; from
    that point every role change, election, and driver injection re-evaluates
    :func:`cluster_available` and feeds the timeline.  Events before
    :meth:`begin` are ignored, so stabilisation noise never pollutes the
    measurement.
    """

    def __init__(self) -> None:
        self._cluster: "SimulatedCluster" | None = None
        self._timeline: AvailabilityTimeline | None = None

    def begin(self, cluster: "SimulatedCluster", time_ms: Milliseconds) -> None:
        """Open the measured window at *time_ms* with the current state."""
        if self._timeline is not None:
            raise SimulationError("availability measurement already began")
        self._cluster = cluster
        self._timeline = AvailabilityTimeline(time_ms, cluster_available(cluster))

    def reevaluate(self, time_ms: Milliseconds) -> None:
        """Re-query the cluster and record the state observed at *time_ms*."""
        if self._timeline is None or self._cluster is None:
            return
        self._timeline.record(time_ms, cluster_available(self._cluster))

    def finalize(self, end_ms: Milliseconds) -> AvailabilityReport:
        """Close the window and return the interval decomposition."""
        if self._timeline is None:
            raise SimulationError(
                "availability measurement never began; call begin() first"
            )
        return self._timeline.finalize(end_ms)

    # ------------------------------------------------------------------ #
    # NodeListener callbacks (leadership can only change on these)
    # ------------------------------------------------------------------ #
    def on_role_change(
        self, node_id, old_role, new_role, term, time_ms
    ) -> None:
        self.reevaluate(time_ms)

    def on_leader_elected(self, leader_id, term, votes, time_ms) -> None:
        self.reevaluate(time_ms)
