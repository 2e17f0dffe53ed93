"""The chaos scenario: one steady-state availability episode from a seed.

:class:`ChaosScenario` is to the ``avail`` experiment what
:class:`~repro.cluster.scenarios.ElectionScenario` is to the figure sweeps:
one frozen, picklable experimental condition (protocol, cluster size, network
specs, chaos plan, client workload) that knows how to run one measured
episode.  An episode stabilises a first leader, opens the availability
window, lets the :class:`~repro.chaos.driver.ChaosDriver` inject the plan
while a legacy-interval :class:`~repro.workload.driver.WorkloadDriver` keeps
proposing, and closes the window into an
:class:`~repro.metrics.records.AvailabilityMeasurement`.

Because the scenario reuses :class:`ElectionScenario` for cluster
construction, every network condition from :mod:`repro.cluster.catalog`
(latency and fault specs) composes with every chaos plan -- "partition flaps
over a two-region WAN" is one scenario value, and it rides the parallel
sweep engine's process pool bit-for-bit deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.chaos.availability import AvailabilityObserver, quorum_leader
from repro.chaos.driver import ChaosDriver
from repro.chaos.plans import ChaosPlan
from repro.cluster.scenarios import ElectionScenario
from repro.common.config import ScaParameters
from repro.common.types import Milliseconds
from repro.metrics.records import AvailabilityMeasurement
from repro.net.specs import FaultSpec, LatencySpec
from repro.workload import legacy_interval
from repro.workload.driver import WorkloadDriver

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.cluster.builder import SimulatedCluster

__all__ = ["ChaosScenario"]


@dataclass(frozen=True)
class ChaosScenario:
    """One experimental condition for a steady-state availability episode.

    Attributes:
        protocol: any liveness-guaranteeing protocol name registered in
            :mod:`repro.protocols` (validated at construction time through
            the underlying :class:`ElectionScenario`).
        cluster_size: number of servers.
        plan: the chaos plan injected over the measured window; its
            ``horizon_ms`` is the window length.
        raft_timeout_range / sca / heartbeat_interval_ms: timing knobs,
            exactly as on :class:`ElectionScenario`.
        latency / latency_range: declarative latency condition or the uniform
            shorthand.
        fault / loss_rate: declarative *baseline* fault condition or the
            broadcast-omission shorthand (a :class:`~repro.chaos.specs.SwapFault`
            event replaces it mid-run).
        workload_interval_ms: client proposal period throughout the window
            (on by default -- unavailability is measured at the client, not
            just the leader flag; 0 disables the workload).
        stabilize_ms: budget for electing the initial leader before the
            window opens.
        preserve_quorum: skip crash injections that would destroy the voting
            quorum (see :class:`~repro.chaos.driver.ChaosDriver`).
        trace: keep the world trace (disable for large sweeps).
        engine: simulation engine name (see
            :attr:`~repro.cluster.scenarios.ElectionScenario.engine`); the
            empty string defers to the process default.
    """

    protocol: str
    cluster_size: int
    plan: ChaosPlan
    raft_timeout_range: tuple[Milliseconds, Milliseconds] = (1500.0, 3000.0)
    sca: ScaParameters = field(default_factory=lambda: ScaParameters(1500.0, 500.0))
    heartbeat_interval_ms: Milliseconds = 150.0
    latency_range: tuple[Milliseconds, Milliseconds] = (100.0, 200.0)
    loss_rate: float = 0.0
    latency: LatencySpec | None = None
    fault: FaultSpec | None = None
    workload_interval_ms: Milliseconds = 250.0
    stabilize_ms: Milliseconds = 120_000.0
    preserve_quorum: bool = True
    trace: bool = False
    engine: str = ""

    def __post_init__(self) -> None:
        # Protocol and network validation live in ElectionScenario; building
        # the election view here fails fast at construction time.
        self.election_scenario()

    def election_scenario(self) -> ElectionScenario:
        """The election-layer view of this condition (shared build path)."""
        return ElectionScenario(
            protocol=self.protocol,
            cluster_size=self.cluster_size,
            raft_timeout_range=self.raft_timeout_range,
            sca=self.sca,
            heartbeat_interval_ms=self.heartbeat_interval_ms,
            latency_range=self.latency_range,
            loss_rate=self.loss_rate,
            latency=self.latency,
            fault=self.fault,
            stabilize_ms=self.stabilize_ms,
            trace=self.trace,
            engine=self.engine,
        )

    def with_protocol(self, protocol: str) -> "ChaosScenario":
        """The same condition for a different protocol (paired comparison)."""
        return replace(self, protocol=protocol)

    def with_engine(self, engine: str) -> "ChaosScenario":
        """The same condition on a different simulation engine."""
        return replace(self, engine=engine)

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run(self, seed: int) -> AvailabilityMeasurement:
        """Run one measured availability episode.

        The window opens after the initial leader stabilises and spans
        exactly ``plan.horizon_ms`` of simulated time; the plan's event
        offsets are relative to the window start.
        """
        observer = AvailabilityObserver()
        cluster, harness = self.election_scenario().build(
            seed, extra_listeners=(observer,)
        )
        cluster.start_all()
        harness.stabilize(max_time_ms=self.stabilize_ms)

        start_ms = cluster.world.now()
        observer.begin(cluster, start_ms)
        commit_at_start = max(
            (node.commit_index for node in cluster.running_nodes()), default=0
        )

        # The legacy-interval workload keeps the original fixed-interval
        # loop (byte-identical reports); a quorum-aware leader
        # selector makes ticks that fall inside a partition outage (only a
        # stale, commit-incapable leader exists) count as dropped at the
        # client instead of landing on a leader that can never acknowledge
        # them.
        workload: WorkloadDriver | None = None
        if self.workload_interval_ms > 0:
            workload = WorkloadDriver(
                cluster,
                legacy_interval(self.workload_interval_ms),
                seed=seed,
                leader_selector=lambda: quorum_leader(cluster),
            )
            workload.start()

        driver = ChaosDriver(
            cluster,
            self.plan,
            observer=observer,
            preserve_quorum=self.preserve_quorum,
        )
        driver.start()
        harness.run_for(self.plan.horizon_ms)

        if workload is not None:
            workload.stop()
        end_ms = cluster.world.now()
        report = observer.finalize(end_ms)
        harness.assert_at_most_one_leader_per_term()

        dropped = (workload.dropped + workload.rejected) if workload else 0
        return AvailabilityMeasurement(
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
                "committed_entries": max(
                    (node.commit_index for node in cluster.running_nodes()),
                    default=0,
                )
                - commit_at_start,
            },
        )

    def run_many(
        self, runs: int, base_seed: int = 0, label: str = "run"
    ) -> list[AvailabilityMeasurement]:
        """Run *runs* independent episodes with sweep-identical seeds."""
        from repro.common.rng import paired_seeds

        return [self.run(seed) for seed in paired_seeds(runs, base_seed, label)]
