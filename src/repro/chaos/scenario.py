"""The windowed episode and the chaos scenario built on it.

A *windowed* episode stabilises a first leader, opens a measurement window,
lets the :class:`~repro.chaos.driver.ChaosDriver` inject a plan while a
:class:`~repro.workload.driver.WorkloadDriver` keeps issuing client requests,
and closes the window ``plan.horizon_ms`` later.  :class:`WindowedScenario`
adds the plan to the shared condition (:class:`~repro.cluster.scenarios.Scenario`)
and runs that window once, for both episode kinds that read it:
:class:`ChaosScenario` here (the ``avail`` experiment's cluster-side
:class:`~repro.metrics.records.AvailabilityMeasurement`) and
:class:`~repro.workload.scenario.ThroughputScenario` (the client-side view of
the same disruption).

Because the condition is the shared one, every network condition from
:mod:`repro.cluster.catalog` (a latency model and a fault injector) composes
with every chaos plan -- "partition flaps over a two-region WAN" is one
scenario value, and it rides the parallel sweep engine's process pool
bit-for-bit deterministically.
"""

from __future__ import annotations

from dataclasses import field
from typing import TYPE_CHECKING, NamedTuple

from repro.chaos.availability import (
    AvailabilityObserver,
    AvailabilityReport,
    quorum_leader,
)
from repro.chaos.driver import ChaosDriver
from repro.chaos.plans import ChaosPlan
from repro.cluster.builder import SimulatedCluster
from repro.cluster.scenarios import Scenario
from repro.common.frozen import value_object
from repro.common.types import Milliseconds
from repro.metrics.records import AvailabilityMeasurement
from repro.workload import legacy_interval
from repro.workload.driver import WorkloadDriver
from repro.workload.specs import WorkloadSpec

if TYPE_CHECKING:
    from repro.obs.telemetry import MetricsRegistry

__all__ = ["ChaosScenario", "WindowedScenario"]


class Window(NamedTuple):
    """A closed measurement window, as an episode body reads it."""

    cluster: SimulatedCluster
    report: AvailabilityReport
    workload: WorkloadDriver | None
    driver: ChaosDriver
    #: Entries committed inside the window (by the furthest running node).
    committed_entries: int


def _commit_index(cluster: SimulatedCluster) -> int:
    return max((node.commit_index for node in cluster.running_nodes()), default=0)


@value_object
class WindowedScenario(Scenario):
    """The shared condition plus a chaos plan injected over a measured window.

    Attributes:
        plan: the chaos plan injected over the measured window; its
            ``horizon_ms`` is the window length and its event offsets are
            relative to the window start.  A
            :class:`~repro.chaos.specs.SwapFault` event replaces the
            scenario's *baseline* fault condition mid-run.
    """

    #: Skip crash injections that would destroy the voting quorum (see
    #: :class:`~repro.chaos.driver.ChaosDriver`).
    preserve_quorum = True

    plan: ChaosPlan = field(kw_only=True)

    def _run_window(
        self,
        seed: int,
        workload: WorkloadSpec | str | None,
        metrics: MetricsRegistry | None,
    ) -> Window:
        """Run one window under *workload* (``None`` runs without clients).

        The window opens after the initial leader stabilises and spans
        exactly ``plan.horizon_ms`` of simulated time.
        """
        observer = AvailabilityObserver()
        cluster, harness = self.build(
            seed, extra_listeners=(observer,), metrics=metrics
        )
        cluster.start_all()
        harness.stabilize(max_time_ms=self.stabilize_ms)

        observer.begin(cluster, cluster.world.now())
        commit_at_start = _commit_index(cluster)
        # A quorum-aware leader selector makes requests that fall inside a
        # partition outage (only a stale, commit-incapable leader exists)
        # count as dropped at the client instead of landing on a leader that
        # can never acknowledge them.
        clients: WorkloadDriver | None = None
        if workload is not None:
            clients = WorkloadDriver(
                cluster,
                workload,
                seed=seed,
                leader_selector=lambda: quorum_leader(cluster),
            )
            clients.start()
        driver = ChaosDriver(
            cluster, self.plan, observer=observer, preserve_quorum=self.preserve_quorum
        )
        driver.start()
        harness.run_for(self.plan.horizon_ms)

        report = observer.finalize(cluster.world.now())
        if clients is not None:
            clients.finalize()
        harness.assert_at_most_one_leader_per_term()
        if metrics is not None:
            from repro.obs.harvest import harvest_chaos, harvest_workload

            harvest_chaos(driver, metrics)
            if clients is not None:
                harvest_workload(clients, metrics)
        return Window(
            cluster, report, clients, driver, _commit_index(cluster) - commit_at_start
        )


@value_object
class ChaosScenario(WindowedScenario):
    """One experimental condition for a steady-state availability episode.

    ``protocol`` must guarantee liveness: the window opens only once a first
    leader is stable.

    Attributes:
        workload_interval_ms: client proposal period throughout the window
            (on by default -- unavailability is measured at the client, not
            just the leader flag; 0 disables the workload).  The clients
            are :func:`~repro.workload.legacy_interval`, a tracked open-loop
            spec with uniform gaps, so every op resolves as committed or
            lost when the window closes.
    """

    workload_interval_ms: Milliseconds = 250.0

    def _episode(
        self, seed: int, metrics: MetricsRegistry | None
    ) -> tuple[AvailabilityMeasurement, SimulatedCluster]:
        clients = (
            legacy_interval(self.workload_interval_ms)
            if self.workload_interval_ms > 0
            else None
        )
        cluster, report, workload, driver, committed = self._run_window(
            seed, clients, metrics
        )
        dropped = (workload.dropped + workload.rejected) if workload else 0
        measurement = AvailabilityMeasurement(
            protocol=cluster.protocol,
            cluster_size=self.cluster_size,
            seed=seed,
            plan=self.plan.name,
            start_ms=report.start_ms,
            end_ms=report.end_ms,
            available_ms=report.available_ms,
            leaderless_ms=report.leaderless_ms,
            unavailability=report.unavailability,
            disruption_count=driver.disruption_count,
            skipped_disruptions=driver.skipped_disruption_count,
            outage_count=len(report.leaderless_intervals),
            recovery_ms=report.recovery_latencies_ms(),
            proposals_proposed=workload.proposed if workload else 0,
            proposals_dropped=dropped,
            leaderless_intervals=report.leaderless_intervals,
            extra={
                "plan_events": self.plan.event_count,
                "applied_injections": len(driver.applied),
                "workload_interval_ms": self.workload_interval_ms,
                # Proposals accepted by a stale (quorum-less) leader are
                # counted as proposed but never commit; the committed-entry
                # delta is the client-side ground truth.
                "committed_entries": committed,
            },
        )
        return measurement, cluster
