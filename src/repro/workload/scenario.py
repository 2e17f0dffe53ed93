"""The throughput scenario: one client-observed serving episode from a seed.

:class:`ThroughputScenario` is to the ``throughput`` experiment what
:class:`~repro.chaos.scenario.ChaosScenario` is to ``avail``: the same
windowed episode (:class:`~repro.chaos.scenario.WindowedScenario` --
stabilise a first leader, open the window, inject the plan while a
:class:`~repro.workload.driver.WorkloadDriver` issues and tracks client
requests), closed into a :class:`~repro.workload.records.WorkloadMeasurement`
-- the client-side view (commit latencies, drops, failover losses) of the
disruption the availability experiment measures cluster-side.

This module intentionally lives outside ``repro.workload``'s package
``__init__``: the cluster layer imports the workload driver, and this
scenario imports the cluster layer, so experiments import it as
``from repro.workload.scenario import ThroughputScenario``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING

from repro.chaos.scenario import WindowedScenario
from repro.cluster.builder import SimulatedCluster
from repro.cluster.scenarios import ElectionScenario, Scenario
from repro.common.frozen import value_object
from repro.workload import specs as workload_specs
from repro.workload.records import WorkloadMeasurement

if TYPE_CHECKING:
    from repro.obs.telemetry import MetricsRegistry

__all__ = ["ThroughputScenario"]


@value_object
class ThroughputScenario(WindowedScenario):
    """One experimental condition for a client-observed serving episode.

    Attributes:
        workload: a registered workload name (validated at construction
            time against :mod:`repro.workload.specs`).  With
            ``telemetry=True`` the snapshot includes the documented
            ``workload.*`` names.
    """

    workload: str = "closed-loop"

    def __post_init__(self) -> None:
        super().__post_init__()
        workload_specs.get(self.workload)

    def election_scenario(self) -> ElectionScenario:
        """The election-layer view of this condition: the shared fields."""
        return ElectionScenario(
            **{spec.name: getattr(self, spec.name) for spec in fields(Scenario)}
        )

    def _episode(
        self, seed: int, metrics: MetricsRegistry | None
    ) -> tuple[WorkloadMeasurement, SimulatedCluster]:
        cluster, report, workload, driver, _ = self._run_window(
            seed, self.workload, metrics
        )
        measurement = WorkloadMeasurement(
            protocol=cluster.protocol,
            cluster_size=self.cluster_size,
            seed=seed,
            plan=self.plan.name,
            workload=self.workload,
            window_ms=report.end_ms - report.start_ms,
            proposed=workload.proposed,
            committed=workload.committed,
            retries=workload.retries,
            dropped=workload.dropped,
            rejected=workload.rejected,
            lost=workload.lost,
            outage_count=len(report.leaderless_intervals),
            leaderless_ms=report.leaderless_ms,
            latencies_ms=workload.latencies_ms,
            extra={
                "plan_events": self.plan.event_count,
                "applied_injections": len(driver.applied),
                "skipped_injections": len(driver.skipped),
            },
        )
        return measurement, cluster
