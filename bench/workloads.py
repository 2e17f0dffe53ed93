"""The four benchmark workloads and how one episode of each is run and checked.

The benchmark binds only to the simulator's public surface:
``ElectionScenario(...).with_engine().build()/run()``,
``SimulatedCluster.start_all()``, the ``ElectionHarness`` methods,
``ThroughputScenario.run()`` and the pieces its docstring names
(``AvailabilityObserver``, ``WorkloadDriver``, ``ChaosDriver``,
``quorum_leader``), ``build_plan``, ``paired_seeds``,
``fig11_message_loss.build_scenarios``, the export readers and writers, the
CLI flags, the scheduler ``*_count`` properties and
``network.stats``.  The workload *name* only ever seeds the episode list; the
program under test receives seeds and scenarios, never the name.

``repro`` is imported inside ``prepare()`` and the episode functions, not at
module import, so the set-up probe times exactly what a workload needs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

from layers import CLI, ESCAPE, RAFT, SERVE
from tracing import Tracer

ENGINE = "flat"
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class EpisodeFailure(Exception):
    """An episode ran but broke one of the benchmark's output rules."""


def require_source_tree() -> None:
    """Put the simulator on ``sys.path``; exit non-zero when it is not there."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"bench: no simulator source at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _snapshot(cluster) -> tuple[int, int, int, int, int]:
    """Public counters read at a phase boundary."""
    stats = cluster.network.stats
    votes = appends = 0
    for name, sent in stats.per_type_sent.items():
        if name.endswith("RequestVoteRequest"):
            votes += sent
        elif name.endswith("AppendEntriesRequest"):
            appends += sent
    return (
        cluster.world.scheduler.executed_count,
        stats.sent,
        stats.broadcast_count,
        votes,
        appends,
    )


class _PhaseCounts:
    """Count deltas between phase boundaries of one episode."""

    FIELDS = ("events", "sent", "broadcasts", "votes", "appends")

    def __init__(self, cluster) -> None:
        self._cluster = cluster
        self._last = _snapshot(cluster)
        self.counts: dict[str, float] = {}

    def mark(self, phase: str) -> None:
        now = _snapshot(self._cluster)
        for name, before, after in zip(self.FIELDS, self._last, now):
            self.counts[f"{phase}.{name}"] = after - before
        self._last = now

    def finish(self) -> dict[str, float]:
        scheduler = self._cluster.world.scheduler
        stats = self._cluster.network.stats
        events, sent, broadcasts, votes, appends = _snapshot(self._cluster)
        self.counts.update(
            {
                "episodes": 1,
                "events": events,
                "scheduled": scheduler.scheduled_count,
                "cancelled": scheduler.cancelled_count,
                "sent": sent,
                "dropped": stats.dropped,
                "broadcasts": broadcasts,
                "votes": votes,
                "appends": appends,
            }
        )
        return self.counts


def _check_cluster(harness) -> None:
    harness.assert_at_most_one_leader_per_term()
    if not harness.committed_prefixes_consistent():
        raise EpisodeFailure("committed prefixes diverge across running nodes")


def traced_election_episode(scenario, seed: int, tracer: Tracer, episode: int):
    """``ElectionScenario.run(seed)`` recomposed from its public pieces, with a
    span around each call into the cluster layer and counters read at the same
    boundaries.  Returns ``(measurement, counts)``; the measurement must equal
    ``scenario.run(seed)`` field for field.
    """
    from repro.common.rng import SeedSequence
    from repro.workload import WorkloadDriver, legacy_interval

    with tracer.span("episode", episode):
        with tracer.span("cluster.build", episode):
            cluster, harness = scenario.build(seed)
        phases = _PhaseCounts(cluster)
        with tracer.span("cluster.start", episode):
            cluster.start_all()
        with tracer.span("cluster.stabilize", episode):
            harness.stabilize(max_time_ms=scenario.stabilize_ms)
        phases.mark("stabilize")
        with tracer.span("cluster.steady", episode):
            workload = None
            if scenario.workload_interval_ms > 0:
                workload = WorkloadDriver(
                    cluster, legacy_interval(scenario.workload_interval_ms), seed=seed
                )
                workload.start()
            if scenario.pre_crash_ms > 0:
                harness.run_for(scenario.pre_crash_ms)
            jitter = SeedSequence(seed).stream("scenario", "crash").uniform(
                0.0, scenario.heartbeat_interval_ms
            )
            harness.run_for(jitter)
        phases.mark("steady")
        with tracer.span("cluster.failover", episode):
            measurement = harness.crash_leader_and_measure(
                max_election_ms=scenario.max_election_ms, seed=seed
            )
        phases.mark("failover")
        with tracer.span("cluster.check", episode):
            if workload is not None:
                workload.stop()
            _check_cluster(harness)
            measurement.extra.update(
                {
                    "loss_rate": scenario.loss_rate,
                    "contention_phases": scenario.contention_phases,
                    "raft_timeout_range": scenario.raft_timeout_range,
                    "workload_proposed": workload.proposed if workload else 0,
                }
            )
            if scenario.latency is not None:
                measurement.extra["latency_spec"] = repr(scenario.latency)
            if scenario.fault is not None:
                measurement.extra["fault_spec"] = repr(scenario.fault)
    counts = phases.finish()
    counts.update(election_outcome(measurement))
    return measurement, counts


def election_outcome(measurement) -> dict[str, float]:
    """The seed-pure outcome of one leader-failure episode, as counts."""
    return {
        "failovers": 1,
        "outage_ms": measurement.total_ms,
        "wins": 1 if measurement.converged else 0,
        "campaigns": measurement.campaign_count,
        "split_votes": 1 if measurement.split_vote else 0,
    }


def traced_serving_episode(scenario, seed: int, tracer: Tracer, episode: int):
    """``ThroughputScenario.run(seed)`` recomposed the same way."""
    from repro.chaos.availability import AvailabilityObserver, quorum_leader
    from repro.chaos.driver import ChaosDriver
    from repro.workload import WorkloadDriver, WorkloadMeasurement

    with tracer.span("episode", episode):
        observer = AvailabilityObserver()
        with tracer.span("cluster.build", episode):
            cluster, harness = scenario.election_scenario().build(
                seed, extra_listeners=(observer,)
            )
        phases = _PhaseCounts(cluster)
        with tracer.span("cluster.start", episode):
            cluster.start_all()
        with tracer.span("cluster.stabilize", episode):
            harness.stabilize(max_time_ms=scenario.stabilize_ms)
        phases.mark("stabilize")
        with tracer.span("workload.window", episode):
            observer.begin(cluster, cluster.world.now())
            workload = WorkloadDriver(
                cluster,
                scenario.workload,
                seed=seed,
                leader_selector=lambda: quorum_leader(cluster),
            )
            workload.start()
            driver = ChaosDriver(
                cluster,
                scenario.plan,
                observer=observer,
                preserve_quorum=scenario.preserve_quorum,
            )
            driver.start()
            harness.run_for(scenario.plan.horizon_ms)
        phases.mark("steady")
        with tracer.span("workload.finalize", episode):
            report = observer.finalize(cluster.world.now())
            workload.finalize()
        with tracer.span("cluster.check", episode):
            _check_cluster(harness)
            measurement = WorkloadMeasurement(
                protocol=cluster.protocol,
                cluster_size=scenario.cluster_size,
                seed=seed,
                plan=scenario.plan.name,
                workload=scenario.workload,
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
                    "plan_events": scenario.plan.event_count,
                    "applied_injections": len(driver.applied),
                    "skipped_injections": len(driver.skipped),
                },
            )
    counts = phases.finish()
    counts.update(serving_outcome(measurement))
    return measurement, counts


def serving_outcome(measurement) -> dict[str, float]:
    """The seed-pure outcome of one serving window, as counts."""
    return {
        "failovers": measurement.outage_count,
        "outage_ms": measurement.leaderless_ms,
        "issued": measurement.issued,
        "committed": measurement.committed,
        "window_ms": measurement.window_ms,
        "applied": measurement.extra["applied_injections"],
    }


def _episode_seeds(count: int, seed: int, name: str) -> list[int]:
    from repro.common.rng import paired_seeds

    return paired_seeds(count, seed, name)


@dataclass
class ElectionWorkload:
    """One leader-failure episode per seed, in this process, on one thread."""

    name: str
    why: str
    protocol: str
    cluster_size: int
    #: Length of the fixed episode list; never adapted at run time.
    episodes: int
    scenario: object = field(default=None, repr=False)

    outcome = staticmethod(election_outcome)

    def setup_argv(self, smoke: bool) -> list[str]:
        return _probe_argv(self.name, smoke)

    def prepare(self) -> None:
        from repro.cluster.scenarios import ElectionScenario

        self.scenario = ElectionScenario(self.protocol, self.cluster_size).with_engine(
            ENGINE
        )

    def seeds(self, seed: int) -> list[int]:
        return _episode_seeds(self.episodes, seed, self.name)

    def run(self, seed: int):
        return self.scenario.run(seed)

    def run_traced(self, seed: int, tracer: Tracer, episode: int):
        return traced_election_episode(self.scenario, seed, tracer, episode)

    def check(self, measurement) -> None:
        if not measurement.converged:
            raise EpisodeFailure("no new leader within the election budget")


@dataclass
class ServingWorkload:
    """One client-observed serving window per seed, with three leader kills.

    The open loop is in *simulated* time: Poisson arrivals keep coming while
    no leader exists, so ops due during an outage are counted as dropped.
    On the host it is a closed batch driven by one process.
    """

    name: str
    why: str
    cluster_size: int
    horizon_ms: float
    episodes: int
    scenario: object = field(default=None, repr=False)

    outcome = staticmethod(serving_outcome)

    def setup_argv(self, smoke: bool) -> list[str]:
        return _probe_argv(self.name, smoke)

    def prepare(self) -> None:
        from repro.chaos.plans import build_plan
        from repro.workload.scenario import ThroughputScenario

        self.scenario = ThroughputScenario(
            "escape",
            self.cluster_size,
            plan=build_plan("repeated-leader-kill", self.horizon_ms, seed=0),
            workload="open-poisson",
        ).with_engine(ENGINE)

    def seeds(self, seed: int) -> list[int]:
        return _episode_seeds(self.episodes, seed, self.name)

    def run(self, seed: int):
        return self.scenario.run(seed)

    def run_traced(self, seed: int, tracer: Tracer, episode: int):
        return traced_serving_episode(self.scenario, seed, tracer, episode)

    def check(self, measurement) -> None:
        if measurement.proposed != measurement.committed + measurement.lost:
            raise EpisodeFailure(
                f"op partition broken: proposed={measurement.proposed} "
                f"committed={measurement.committed} lost={measurement.lost}"
            )
        if measurement.outage_count < 1:
            raise EpisodeFailure("the chaos plan produced no leader failure")


@dataclass
class CliWorkload:
    """The user-felt path: ``python -m repro.experiments fig11`` as a subprocess,
    cold import to report and export on disk; ``--seed`` picks the CLI seed."""

    name: str
    why: str
    runs: int
    quick: bool
    workers: int = 2

    def setup_argv(self, smoke: bool) -> list[str]:
        return [sys.executable, "-m", "repro.experiments", "--list"]

    def sweep_argv(self, cli_seed: int, output: Path) -> list[str]:
        argv = [
            sys.executable, "-m", "repro.experiments", "fig11",
            "--runs", str(self.runs),
            "--seed", str(cli_seed),
            "--workers", str(self.workers),
            "--engine", ENGINE,
            "--output", str(output),
        ]  # fmt: skip
        if self.quick:
            argv.append("--quick")
        return argv

    def cli_seed(self, seed: int) -> int:
        return _episode_seeds(1, seed, self.name)[0]

    def scenarios(self) -> dict[str, object]:
        """The sweep's scenario table, as the CLI builds it for these flags."""
        from repro.experiments import fig11_message_loss as fig11

        sizes = (10,) if self.quick else fig11.PAPER_SIZES
        return {
            label: scenario.with_engine(ENGINE)
            for label, scenario in fig11.build_scenarios(sizes=sizes).items()
        }


def _probe_argv(name: str, smoke: bool) -> list[str]:
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), name]
    if smoke:
        argv.append("--smoke")
    return argv


WHY = {
    RAFT: (
        "Raft at s=128 splits votes: ~50k events an episode, nearly all in raft vote "
        "handlers, net broadcast and the sim heap; cluster.build is ~3%"
    ),
    ESCAPE: (
        "same harness, opposite profile: one campaign and ~4k events, so cluster.build "
        "and the steady heartbeat/SCA path dominate; the vote path's no-change control"
    ),
    SERVE: (
        "raft/node.py used for replication (append, commit, KV apply) beside three "
        "failovers, plus workload, chaos, storage; catches vote gains paid by appends"
    ),
    CLI: (
        "the user-felt path under the paper's loss condition: cold import, registry, "
        "2-worker pool, many small lossy episodes, report render and export on disk"
    ),
}


def build_workloads(smoke: bool = False) -> dict[str, object]:
    """The four workloads; ``smoke`` shrinks them for the under-20-second test.

    The episode counts trade two kinds of noise (see ``measure.py``): a short
    list fits more passes into ``--seconds``, which removes more host noise;
    a long list averages more episodes, which matters where per-episode cost
    varies with the seed (Raft's split votes: 0.04-0.28 s an episode).
    """
    if smoke:
        return {
            RAFT: ElectionWorkload(RAFT, WHY[RAFT], "raft", 8, episodes=2),
            ESCAPE: ElectionWorkload(ESCAPE, WHY[ESCAPE], "escape", 8, episodes=2),
            SERVE: ServingWorkload(SERVE, WHY[SERVE], 8, 20_000.0, episodes=2),
            CLI: CliWorkload(CLI, WHY[CLI], runs=1, quick=True),
        }
    return {
        RAFT: ElectionWorkload(RAFT, WHY[RAFT], "raft", 128, episodes=80),
        ESCAPE: ElectionWorkload(ESCAPE, WHY[ESCAPE], "escape", 128, episodes=32),
        SERVE: ServingWorkload(SERVE, WHY[SERVE], 16, 60_000.0, episodes=4),
        CLI: CliWorkload(CLI, WHY[CLI], runs=2, quick=False),
    }
