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
from dataclasses import dataclass, field, replace
from typing import Callable, Self

from repro import protocols as protocol_registry
from repro.sim import engines as engine_registry
from repro.cluster.builder import SimulatedCluster, build_cluster
from repro.cluster.harness import ElectionHarness
from repro.cluster.observers import ElectionObserver
from repro.common.config import ClusterConfig, ProtocolConfig, RaftTimeoutConfig, ScaParameters
from repro.common.errors import ConfigurationError
from repro.common.rng import SeedSequence, paired_seeds
from repro.common.types import Milliseconds, ServerId
from repro.metrics.records import ElectionMeasurement
from repro.net.faults import BroadcastOmissionFault, FaultInjector, NoFault, bind
from repro.obs.harvest import TelemetryListener, harvest_cluster, harvest_workload
from repro.obs.telemetry import MetricsRegistry
from repro.workload import legacy_interval
from repro.workload.driver import WorkloadDriver
from repro.net.latency import GeoLatencySpec, LatencyModel, UniformLatency
from repro.raft.timers import (
    ElectionTimeoutPolicy,
    RandomizedTimeoutPolicy,
    ScriptOnlyPolicy,
    ScriptedTimeoutPolicy,
)

#: Per-node election-timeout policy factory (see :func:`build_cluster`).
_PolicyFactory = Callable[[ServerId], ElectionTimeoutPolicy | None]


@dataclass(frozen=True)
class Scenario:
    """The condition every episode kind shares, and the run template.

    Attributes:
        protocol: any protocol name registered in :mod:`repro.protocols`
            (e.g. ``"raft"``, ``"escape"``, ``"zraft"``, ``"escape-noppf"``);
            validated against the registry at construction time.
        cluster_size: number of servers.
        raft_timeout_range: Raft's randomized election-timeout range
            ``(min_ms, max_ms)``; Figure 3 sweeps it, Figures 9-11 fix it at
            (1500, 3000).
        sca: ESCAPE/Z-Raft SCA parameters (baseTime/k of Eq. 1).
        heartbeat_interval_ms: leader heartbeat period.
        latency_range: one-way message latency ``(low_ms, high_ms)``.
            Shorthand for ``latency=UniformLatency(low_ms, high_ms)``;
            ignored when an explicit ``latency`` is given.
        loss_rate: broadcast message-loss rate Δ (Section VI-D); 0 disables
            fault injection.  Shorthand for
            ``fault=BroadcastOmissionFault(loss_rate)``; may not be combined
            with an explicit ``fault`` (rejected at construction).
        latency: the latency condition: any :mod:`repro.net.latency` model,
            which the network then samples from as it is, or a
            :class:`~repro.net.latency.GeoLatencySpec`, bound to the
            membership at build time.  Takes precedence over
            ``latency_range``.
        fault: the fault condition: any :mod:`repro.net.faults` injector.
            Mutually exclusive with the ``loss_rate`` shorthand.
        stabilize_ms: budget for electing the initial leader.
        trace: keep the world trace (disable for large sweeps).
        telemetry: record per-episode observability counters (scheduler,
            network, protocol events, and whatever drivers the episode
            runs) and attach the snapshot state to
            ``measurement.extra["telemetry"]``.  Off by default: sweeps pay
            nothing for the instrumentation unless they opt in.
        engine: simulation engine name from :mod:`repro.sim.engines`
            (``"flat"`` or ``"classic"``).  The scenario itself says what it
            runs on -- there is no process default to defer to -- so a sweep
            worker, a checkpoint fingerprint and a reader of ``repr()`` all
            see the engine.  Engines are bit-identical by contract, so this
            never changes results -- only how fast they arrive.
    """

    protocol: str
    cluster_size: int
    raft_timeout_range: tuple[Milliseconds, Milliseconds] = (1500.0, 3000.0)
    sca: ScaParameters = field(default_factory=lambda: ScaParameters(1500.0, 500.0))
    heartbeat_interval_ms: Milliseconds = 150.0
    latency_range: tuple[Milliseconds, Milliseconds] = (100.0, 200.0)
    loss_rate: float = 0.0
    latency: LatencyModel | GeoLatencySpec | None = None
    fault: FaultInjector | None = None
    stabilize_ms: Milliseconds = 120_000.0
    trace: bool = False
    telemetry: bool = False
    engine: str = "flat"

    def __post_init__(self) -> None:
        # Fail fast, with the registries' own errors (they list every
        # registered name), while the grid is built instead of inside the
        # first episode of a pool worker; unpickling skips this, so a worker
        # never re-validates what the parent already accepted.
        protocol_registry.get(self.protocol)
        engine_registry.get(self.engine)
        if self.fault is not None and self.loss_rate != 0.0:
            raise ConfigurationError(
                "give either an explicit fault or the loss_rate shorthand, "
                "not both"
            )
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
        """The latency model this scenario's network samples from.

        An explicit ``latency`` wins (bound to the membership, see
        :func:`repro.net.faults.bind`); otherwise the ``latency_range``
        shorthand is the paper's uniform model.
        """
        if self.latency is not None:
            return bind(self.latency, self.server_ids())
        return UniformLatency(*self.latency_range)

    def fault_injector(self) -> FaultInjector:
        """The fault injector this scenario's network starts with."""
        if self.fault is not None:
            return bind(self.fault, self.server_ids())
        if self.loss_rate == 0.0:
            return NoFault()
        return BroadcastOmissionFault(self.loss_rate)

    def with_engine(self, engine: str) -> Self:
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
            listeners += (TelemetryListener(metrics),)
        timeout_policy_factory, override_factory = self._timeout_factories(seed)
        cluster = build_cluster(
            protocol=self.protocol,
            size=self.cluster_size,
            seed=seed,
            latency=self.latency_model(),
            fault=self.fault_injector(),
            protocol_config=self.protocol_config(),
            listeners=listeners,
            timeout_policy_factory=timeout_policy_factory,
            timeout_override_factory=override_factory,
            trace=self.trace,
            engine=self.engine,
        )
        return cluster, ElectionHarness(cluster, observer)

    def _timeout_factories(
        self, seed: int
    ) -> tuple[_PolicyFactory | None, _PolicyFactory | None]:
        """Per-node timeout policy and override factories (none by default)."""
        return None, None

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


@dataclass(frozen=True)
class ElectionScenario(Scenario):
    """One experimental condition for a leader-failure episode.

    Adds to the shared condition (see :class:`Scenario`):

    Attributes:
        contention_phases: number of competing-candidate phases to force
            (Figure 10); 0 leaves timeouts entirely protocol-driven.
            Negative values are rejected at construction.
        workload_interval_ms: client proposal period during the pre-crash
            window (0 disables the workload).
        pre_crash_ms: how long to run after stabilisation before crashing the
            leader (lets the workload build up log divergence under loss).
        max_election_ms: budget for the measured election.
    """

    contention_phases: int = 0
    workload_interval_ms: Milliseconds = 0.0
    pre_crash_ms: Milliseconds = 2_000.0
    max_election_ms: Milliseconds = 120_000.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.contention_phases < 0:
            raise ConfigurationError("contention_phases must be >= 0")

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

        # The legacy-interval workload keeps the original fixed-interval
        # loop, so pre-subsystem reports stay byte-identical.
        workload: WorkloadDriver | None = None
        if self.workload_interval_ms > 0:
            workload = WorkloadDriver(
                cluster, legacy_interval(self.workload_interval_ms), seed=seed
            )
            workload.start()
        if self.pre_crash_ms > 0:
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
            workload.stop()
            if metrics is not None:
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
        # An explicit network condition would otherwise be invisible here
        # (loss_rate stays 0.0 for it); record the models' reprs so
        # downstream reports can still re-group by condition.
        if self.latency is not None:
            measurement.extra["latency_spec"] = repr(self.latency)
        if self.fault is not None:
            measurement.extra["fault_spec"] = repr(self.fault)
        return measurement, cluster

    # ------------------------------------------------------------------ #
    # Forced contention (Figure 10)
    # ------------------------------------------------------------------ #
    def _timeout_factories(
        self, seed: int
    ) -> tuple[_PolicyFactory | None, _PolicyFactory | None]:
        """Build the per-node timeout policies that force competing candidates.

        Every follower of the (future) crashed leader receives the *same*
        scripted timeout for its first ``contention_phases`` waits, so those
        waits expire (nearly) simultaneously: in Raft each collision produces
        one phase of competing candidates, while ESCAPE's priority-driven term
        growth resolves the very first collision in a single campaign -- which
        is precisely the comparison Figure 10 draws.
        """
        if self.contention_phases <= 0:
            return None, None
        low, high = self.raft_timeout_range
        collision_timeout = (
            SeedSequence(seed).stream("scenario", "contention").uniform(low, high)
        )
        script = tuple([collision_timeout] * self.contention_phases)

        def policy_factory(server_id: ServerId) -> ElectionTimeoutPolicy:
            return ScriptedTimeoutPolicy(
                script=script, fallback=RandomizedTimeoutPolicy(low, high)
            )

        def override_factory(server_id: ServerId) -> ElectionTimeoutPolicy:
            return ScriptOnlyPolicy(script=script)

        return policy_factory, override_factory
