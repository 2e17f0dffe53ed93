"""Election harness: drive a cluster through a leader failure and measure it.

The harness packages the measurement procedure used for every evaluation
figure of the paper:

1. start the cluster and elect its first leader (*stabilisation*): the node
   whose first election-timeout wait is shortest fires that timeout at once,
   so a fresh cluster's first leader comes from one uncontested campaign
   instead of a cold-start split-vote storm (the paper measures elections
   after a leader fails, never this one);
2. optionally run a client workload so logs keep growing;
3. crash the leader at a randomly chosen point inside a heartbeat interval;
4. run the simulation until a new leader emerges (or the time budget runs
   out) and extract the detection/election breakdown from the
   :class:`~repro.cluster.observers.ElectionObserver`.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.builder import SimulatedCluster
from repro.cluster.observers import ElectionObserver
from repro.common.errors import ClusterError
from repro.common.types import Milliseconds, ServerId
from repro.metrics.records import ElectionMeasurement


class ElectionHarness:
    """Runs leader-failure episodes on a simulated cluster."""

    def __init__(self, cluster: SimulatedCluster, observer: ElectionObserver) -> None:
        self._cluster = cluster
        self._observer = observer

    @property
    def cluster(self) -> SimulatedCluster:
        """The cluster under test."""
        return self._cluster

    @property
    def observer(self) -> ElectionObserver:
        """The observer collecting election events."""
        return self._observer

    # ------------------------------------------------------------------ #
    # Stabilisation
    # ------------------------------------------------------------------ #
    def stabilize(self, max_time_ms: Milliseconds = 60_000.0) -> ServerId:
        """Run until the cluster has elected its first leader.

        A cluster that has not campaigned yet -- no leader, every running
        node still in term 0 -- is bootstrapped: of its running nodes, the
        one whose first election-timeout wait is shortest (the lowest server
        id on a tie) fires that timeout now, through the node's normal
        timeout path, and every other node keeps the wait it drew.  That node
        is the one whose timer would have expired first; every wait is at
        least the protocol's minimum timeout, far above a round trip, so on a
        healthy network nobody else campaigns.  A cluster that needs the
        contested cold start runs it without this method (``node.start()``
        on each node, then the world).

        Returns:
            The leader's identifier.

        Raises:
            ClusterError: if no leader emerges within *max_time_ms*.
        """
        if not self._cluster.has_leader():
            self._bootstrap_campaign()
        elected = self._run_until(
            self._cluster.has_leader, self._cluster.world.now() + max_time_ms
        )
        if not elected:
            raise ClusterError(
                f"no leader elected within {max_time_ms} ms of simulated time"
            )
        leader_id = self._cluster.leader_id()
        assert leader_id is not None
        return leader_id

    def _bootstrap_campaign(self) -> None:
        """Fire the first election timeout of a fresh cluster now."""
        nodes = self._cluster.running_nodes()
        if not nodes or any(node.current_term for node in nodes):
            return
        first = min(
            nodes, key=lambda node: (node.first_election_wait_ms, node.node_id)
        )
        first.expire_election_timer()

    def run_for(self, duration_ms: Milliseconds) -> None:
        """Advance the simulation by *duration_ms* of simulated time."""
        self._cluster.world.run_for(duration_ms)

    def _run_until(
        self, leadership: Callable[[], bool], deadline_ms: Milliseconds
    ) -> bool:
        """Run until a cluster leadership predicate holds, or the deadline.

        Returns at the same event as polling *leadership* after every event
        would: the cluster interrupts the scheduler whenever its set of
        leaders changes, which is the only time such a predicate can.
        """
        scheduler = self._cluster.world.scheduler
        while not leadership():
            if not scheduler.run_until_interrupted(deadline_ms):
                return leadership()
        return True

    # ------------------------------------------------------------------ #
    # Leader failure measurement
    # ------------------------------------------------------------------ #
    def crash_leader_and_measure(
        self,
        max_election_ms: Milliseconds = 120_000.0,
        seed: int = 0,
    ) -> ElectionMeasurement:
        """Crash the current leader and measure the ensuing election.

        The measurement decomposes the out-of-service period into the
        *detection* period (crash to first election timeout) and the
        *election* period (first timeout to the new leader's quorum), matching
        the definitions used in Figures 9 and 10.
        """
        crashed_leader = self._cluster.crash_leader()
        crash_time = self._cluster.world.now()
        converged = self._run_until(
            lambda: self._cluster.has_leader_other_than(crashed_leader),
            crash_time + max_election_ms,
        )

        first_timeout = self._observer.first_timeout_after(crash_time)
        elected = self._observer.leader_elected_after(
            crash_time, exclude=(crashed_leader,)
        )
        campaigns = self._observer.campaigns_after(crash_time)
        split_vote = self._observer.split_vote_occurred_after(crash_time)

        if converged and elected is not None:
            detection_ms = (
                first_timeout.time_ms - crash_time if first_timeout else 0.0
            )
            total_ms = elected.time_ms - crash_time
            election_ms = max(0.0, total_ms - detection_ms)
            winner_id: ServerId | None = elected.leader_id
            winner_term = elected.term
        else:
            converged = False
            detection_ms = (
                first_timeout.time_ms - crash_time if first_timeout else max_election_ms
            )
            total_ms = max_election_ms
            election_ms = max(0.0, total_ms - detection_ms)
            winner_id = None
            winner_term = None

        return ElectionMeasurement(
            protocol=self._cluster.protocol,
            cluster_size=self._cluster.config.size,
            seed=seed,
            converged=converged,
            crash_time_ms=crash_time,
            detection_ms=detection_ms,
            election_ms=election_ms,
            total_ms=total_ms,
            campaign_count=len(campaigns),
            split_vote=split_vote,
            winner_id=winner_id,
            winner_term=winner_term,
            extra={"crashed_leader": crashed_leader},
        )

    # ------------------------------------------------------------------ #
    # Invariant checks used by integration and property tests
    # ------------------------------------------------------------------ #
    def assert_at_most_one_leader_per_term(self) -> None:
        """Election safety: at most one leader is ever elected in one term."""
        leaders_by_term: dict[int, set[ServerId]] = {}
        for event in self._observer.leaders:
            leaders_by_term.setdefault(event.term, set()).add(event.leader_id)
        for term, leaders in leaders_by_term.items():
            if len(leaders) > 1:
                raise ClusterError(
                    f"election safety violated: term {term} elected {sorted(leaders)}"
                )

    def committed_prefixes_consistent(self) -> bool:
        """Log matching on committed prefixes across all running nodes."""
        nodes = self._cluster.running_nodes()
        if not nodes:
            return True
        min_commit = min(node.commit_index for node in nodes)
        for index in range(1, min_commit + 1):
            terms = {
                node.log.term_at(index)
                for node in nodes
                if node.log.has_entry(index)
            }
            if len(terms) > 1:
                return False
        return True
