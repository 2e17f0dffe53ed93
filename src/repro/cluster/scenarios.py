"""Reusable fault scenarios: the paper's evaluation conditions in one place.

A scenario is a self-contained, frozen, picklable value: everything one
measured episode depends on -- protocol, cluster size, timing, network
condition, simulation engine -- is a field, and ``scenario.run(seed)`` is a
pure function of the two.  :class:`Scenario` declares the condition every
episode kind shares and owns the machinery around an episode (cluster
construction, the ``with_*`` variants, the ``run``/``run_traced``/``run_many``
template and its telemetry wrapper); a concrete scenario adds its own fields
and one episode body.  :class:`ElectionScenario` is the leader-failure
episode of the paper's figures; the windowed availability and serving
episodes live in :mod:`repro.chaos.scenario` and
:mod:`repro.workload.scenario`.  Every experiment module in
:mod:`repro.experiments` is a thin sweep over these scenarios.
"""

from __future__ import annotations

import gc
from dataclasses import field, replace
from typing import TYPE_CHECKING, Self

from repro import protocols as protocol_registry
from repro.sim import engines as engine_registry
from repro.sim.engines import EngineSpec
from repro.cluster.builder import SimulatedCluster, build_cluster
from repro.cluster.harness import ElectionHarness
from repro.cluster.observers import ElectionObserver
from repro.common.config import ClusterConfig, ProtocolConfig, RaftTimeoutConfig, ScaParameters
from repro.common.errors import ConfigurationError
from repro.common.frozen import value_object
from repro.common.rng import SeedSequence, paired_seeds
from repro.common.types import Milliseconds, ServerId
from repro.metrics.records import ElectionMeasurement
from repro.net.faults import BroadcastOmissionFault, FaultInjector, NoFault, bind
from repro.net.latency import PAPER_LATENCY, GeoLatencySpec, LatencyModel

# Telemetry and the client workload are imported on their own branches, so
# an election that runs neither never loads (or compiles) them.
if TYPE_CHECKING:
    from repro.obs.telemetry import MetricsRegistry
    from repro.workload.driver import WorkloadDriver


@value_object
class Scenario:
    """The condition every episode kind shares, and the run template.

    Attributes:
        protocol: any protocol name registered in :mod:`repro.protocols`
            (e.g. ``"raft"``, ``"escape"``, ``"zraft"``);
            validated against the registry at construction time.
        cluster_size: number of servers.
        raft_timeout_range: Raft's randomized election-timeout range
            ``(min_ms, max_ms)``; Figure 3 sweeps it, Figures 9-11 fix it at
            (1500, 3000).
        sca: ESCAPE/Z-Raft SCA parameters (baseTime/k of Eq. 1).
        heartbeat_interval_ms: leader heartbeat period.
        latency: the latency condition: any :mod:`repro.net.latency` model,
            which the network then samples from as it is, or a
            :class:`~repro.net.latency.GeoLatencySpec`, bound to the
            membership at build time; ``None`` is ``PAPER_LATENCY``.
        fault: the fault condition: any :mod:`repro.net.faults` injector;
            ``None`` is a healthy network.  Section VI-D's broadcast loss Δ
            is ``BroadcastOmissionFault(Δ)``.
        trace: keep the world trace (disable for large sweeps).
        telemetry: record per-episode observability counters (scheduler,
            network, protocol events, and whatever drivers the episode
            runs) and attach the snapshot state to
            ``measurement.extra["telemetry"]``.  Off by default: sweeps pay
            nothing for the instrumentation unless they opt in.
        engine: simulation engine name from :mod:`repro.sim.engines`
            (``"flat"``), or an :class:`~repro.sim.engines.EngineSpec` (how
            the test suite selects its reference engine).  The scenario
            itself says what it runs on -- there is no process default to
            defer to -- so a sweep worker, a checkpoint fingerprint and a
            reader of ``repr()`` all see the engine.  Engines are
            bit-identical by contract, so this never changes results.
    """

    #: Budget, in simulated ms, for electing the initial leader.
    stabilize_ms = 120_000.0

    protocol: str
    cluster_size: int
    raft_timeout_range: tuple[Milliseconds, Milliseconds] = (1500.0, 3000.0)
    sca: ScaParameters = field(default_factory=lambda: ScaParameters(1500.0, 500.0))
    heartbeat_interval_ms: Milliseconds = 150.0
    latency: LatencyModel | GeoLatencySpec | None = None
    fault: FaultInjector | None = None
    trace: bool = False
    telemetry: bool = False
    engine: str | EngineSpec = "flat"

    def __post_init__(self) -> None:
        # Fail fast, with the registries' own errors (they list every
        # registered name), while the grid is built instead of inside the
        # first episode of a pool worker; unpickling skips this, so a worker
        # never re-validates what the parent already accepted.
        protocol_registry.get(self.protocol)
        engine_registry.resolve(self.engine)
        # Everything an episode derives from the fields is built here once
        # and discarded, so each piece's own checks (the cluster size, the
        # timeout and latency ranges, the rates, the membership a geo split
        # or a cut link must fit) reject a bad value with the grid, not with
        # episode one.
        self.server_ids()
        self.protocol_config()
        self.latency_model()
        self.fault_injector()

    # ------------------------------------------------------------------ #
    # Derived pieces
    # ------------------------------------------------------------------ #
    def protocol_config(self) -> ProtocolConfig:
        """The :class:`ProtocolConfig` this scenario implies."""
        return ProtocolConfig(
            heartbeat_interval_ms=self.heartbeat_interval_ms,
            raft_timeouts=RaftTimeoutConfig(*self.raft_timeout_range),
            sca=self.sca,
        )

    def server_ids(self) -> tuple[ServerId, ...]:
        """The membership the scenario's network condition is bound to."""
        return ClusterConfig.of_size(self.cluster_size).server_ids

    def latency_model(self) -> LatencyModel:
        """The latency model this scenario's network samples from: the
        explicit ``latency`` bound to the membership (see
        :func:`repro.net.faults.bind`), else the paper's uniform model."""
        if self.latency is not None:
            return bind(self.latency, self.server_ids())
        return PAPER_LATENCY

    def fault_injector(self) -> FaultInjector:
        """The fault injector this scenario's network starts with."""
        if self.fault is not None:
            return bind(self.fault, self.server_ids())
        return NoFault()

    def with_engine(self, engine: str | EngineSpec) -> Self:
        """The same condition on a different simulation engine (differential
        testing and benchmarking; results are engine-invariant by contract)."""
        return replace(self, engine=engine)

    def with_telemetry(self, enabled: bool = True) -> Self:
        """The same condition with per-episode telemetry recording toggled."""
        return replace(self, telemetry=enabled)

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def build(
        self,
        seed: int,
        extra_listeners: tuple = (),
        metrics: MetricsRegistry | None = None,
    ) -> tuple[SimulatedCluster, ElectionHarness]:
        """Build (but do not run) the cluster and harness for one episode.

        Args:
            seed: root seed of the episode.
            extra_listeners: additional node listeners attached to every node
                alongside the harness's :class:`ElectionObserver` (the
                windowed episodes attach their
                :class:`~repro.chaos.AvailabilityObserver` this way).
            metrics: the episode's telemetry registry, when it records one; a
                :class:`~repro.obs.harvest.TelemetryListener` feeding it is
                attached last.
        """
        observer = ElectionObserver()
        listeners = (observer, *extra_listeners)
        if metrics is not None:
            from repro.obs.harvest import TelemetryListener

            listeners += (TelemetryListener(metrics),)
        cluster = build_cluster(
            protocol=self.protocol,
            size=self.cluster_size,
            seed=seed,
            latency=self.latency_model(),
            fault=self.fault_injector(),
            protocol_config=self.protocol_config(),
            listeners=listeners,
            timeout_script=self._timeout_script(seed),
            trace=self.trace,
            engine=self.engine,
        )
        return cluster, ElectionHarness(cluster, observer)

    def _timeout_script(self, seed: int) -> tuple[Milliseconds, ...]:
        """Every node's contention script (none by default)."""
        return ()

    def _episode(self, seed: int, metrics: MetricsRegistry | None):
        """Run one episode; returns ``(measurement, cluster)``.

        The one method a concrete scenario must provide.  With a *metrics*
        registry the body passes it to :meth:`build` and harvests the drivers
        it ran; the template adds the cluster's own counters.
        """
        raise NotImplementedError

    def run(self, seed: int):
        """Run one measured episode.

        With ``telemetry=True`` the measurement's ``extra`` mapping
        additionally carries the episode's observability snapshot under
        ``"telemetry"`` (as plain JSON state, so measurements keep pickling
        and exporting unchanged).

        The cyclic garbage collector is paused, process-wide, for the episode
        (build, run, ``close()``) and left as found, also if it raises: an
        episode makes no reference cycles, so it would only re-scan objects.
        """
        return self._run_closed(seed)[0]

    def run_traced(self, seed: int) -> tuple[object, tuple]:
        """Run one episode with tracing forced on; returns the trace too.

        The measurement is identical to :meth:`run`'s for the same seed
        (tracing never perturbs results); the second element is the world's
        :class:`~repro.sim.tracing.TraceRecord` tuple, ready for
        :mod:`repro.obs.trace` sinks.  The collector is paused as for
        :meth:`run`.
        """
        traced = self if self.trace else replace(self, trace=True)
        return traced._run_closed(seed)

    def _run_closed(self, seed: int) -> tuple[object, tuple]:
        """One episode, closed, collector paused: ``(measurement, trace)``."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            measurement, cluster = self._run_measured(seed)
            records = cluster.world.tracer.records
            cluster.close()
            return measurement, records
        finally:
            if was_enabled:
                gc.enable()

    def _run_measured(self, seed: int) -> tuple[object, SimulatedCluster]:
        """Run one episode, attaching telemetry when the scenario opts in.

        The cluster comes back still open (the harvest above reads its queue
        gauges, ``run_traced`` its trace); the caller closes it, so no
        finished episode is left to the cycle collector.
        """
        if not self.telemetry:
            return self._episode(seed, None)
        from repro.obs.harvest import harvest_cluster
        from repro.obs.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        measurement, cluster = self._episode(seed, registry)
        harvest_cluster(cluster, registry)
        measurement.extra["telemetry"] = registry.snapshot().to_state()
        return measurement, cluster

    def run_many(self, runs: int, base_seed: int = 0, label: str = "run") -> list:
        """Run *runs* independent episodes with derived seeds.

        Seeds delegate to :func:`repro.common.rng.paired_seeds` -- the same
        single source of truth the sweep engine uses -- so
        ``run_many(runs, seed, label)`` observes exactly the seeds a
        ``run_sweep({label: scenario}, runs, seed)`` sweep would.
        """
        return [self.run(seed) for seed in paired_seeds(runs, base_seed, label)]


@value_object
class ElectionScenario(Scenario):
    """One experimental condition for a leader-failure episode.

    Adds to the shared condition (see :class:`Scenario`):

    Attributes:
        contention_phases: number of competing-candidate phases to force
            (Figure 10); 0 leaves timeouts entirely protocol-driven.
            Negative values are rejected at construction.
        workload_interval_ms: client proposal period during the pre-crash
            window (0 disables the workload).
    """

    #: How long to run after stabilisation before crashing the leader (lets
    #: the workload build up log divergence under loss).
    pre_crash_ms = 2_000.0
    #: Budget, in simulated ms, for the measured election.
    max_election_ms = 120_000.0

    contention_phases: int = 0
    workload_interval_ms: Milliseconds = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.contention_phases < 0:
            raise ConfigurationError("contention_phases must be >= 0")

    @property
    def loss_rate(self) -> float:
        """Δ of Section VI-D: a ``BroadcastOmissionFault``'s rate, else 0.0."""
        fault = self.fault
        return fault.loss_rate if isinstance(fault, BroadcastOmissionFault) else 0.0

    def _episode(
        self, seed: int, metrics: MetricsRegistry | None
    ) -> tuple[ElectionMeasurement, SimulatedCluster]:
        """One measured leader-failure episode.

        The measurement's ``extra`` mapping records the scenario parameters so
        downstream reports can re-group measurements without carrying the
        scenario object around.
        """
        cluster, harness = self.build(seed, metrics=metrics)
        cluster.start_all()
        harness.stabilize(max_time_ms=self.stabilize_ms)

        # Fixed-interval clients: a tracked open-loop spec with uniform gaps.
        workload: WorkloadDriver | None = None
        if self.workload_interval_ms > 0:
            from repro.workload import legacy_interval
            from repro.workload.driver import WorkloadDriver

            workload = WorkloadDriver(
                cluster, legacy_interval(self.workload_interval_ms), seed=seed
            )
            workload.start()
        harness.run_for(self.pre_crash_ms)

        # Crash at a random point inside a heartbeat interval so the measured
        # detection time is not synchronised with the heartbeat phase.
        crash_jitter = SeedSequence(seed).stream("scenario", "crash").uniform(
            0.0, self.heartbeat_interval_ms
        )
        harness.run_for(crash_jitter)

        measurement = harness.crash_leader_and_measure(
            max_election_ms=self.max_election_ms, seed=seed
        )
        if workload is not None:
            workload.finalize()
            if metrics is not None:
                from repro.obs.harvest import harvest_workload

                harvest_workload(workload, metrics)
        harness.assert_at_most_one_leader_per_term()
        measurement.extra.update(
            {
                "loss_rate": self.loss_rate,
                "contention_phases": self.contention_phases,
                "raft_timeout_range": self.raft_timeout_range,
                "workload_proposed": workload.proposed if workload else 0,
            }
        )
        # loss_rate names only the broadcast-omission condition; record the
        # models' reprs so downstream reports can re-group by any condition.
        if self.latency is not None:
            measurement.extra["latency_spec"] = repr(self.latency)
        if self.fault is not None:
            measurement.extra["fault_spec"] = repr(self.fault)
        return measurement, cluster

    # ------------------------------------------------------------------ #
    # Forced contention (Figure 10)
    # ------------------------------------------------------------------ #
    def _timeout_script(self, seed: int) -> tuple[Milliseconds, ...]:
        """The contention script that forces competing candidates.

        Every follower of the (future) crashed leader waits the *same*
        timeout for its first ``contention_phases`` waits, so those waits
        expire (nearly) simultaneously: in Raft each collision produces one
        phase of competing candidates, while ESCAPE's priority-driven term
        growth resolves the very first collision in a single campaign -- which
        is precisely the comparison Figure 10 draws.  After the script every
        node is back on its protocol's own timeouts.
        """
        if self.contention_phases <= 0:
            return ()
        collision_timeout = SeedSequence(seed).stream("scenario", "contention").uniform(
            *self.raft_timeout_range
        )
        return (collision_timeout,) * self.contention_phases
