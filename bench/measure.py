"""How one benchmark run is measured, checked and turned into metrics.

Two kinds of run, never mixed:

* the **untraced** run gives the end-to-end metrics: set-up time (median of
  several cold interpreter starts), episodes per second from repeated passes
  over the workload's fixed episode list during ``--seconds``, and peak
  resident memory;
* the **traced** run gives the per-layer metrics: every episode of the same
  list is run twice, once through the public ``scenario.run(seed)`` and once
  recomposed with a span around each layer call and counters read at the same
  boundaries.  The two must return equal measurements; their time ratio is
  the tracing overhead.

Output checking is part of every run.  An episode fails if it raises, does not
converge, violates election safety or committed-prefix consistency, breaks the
op partition or the KV ground-truth replay, differs from a second run of the
same seed, or (CLI) is missing from the lossless JSON export.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from pathlib import Path

from layers import PER_LAYER
from probes import run_probes
from stats import percentile
from tracing import Tracer
from workloads import (
    BENCH_DIR,
    ROOT,
    SRC,
    CliWorkload,
    ElectionWorkload,
    election_outcome,
    traced_election_episode,
)

OUT_DIR = BENCH_DIR / "out"
#: Cold starts timed before and after the window: ``setup_s`` is their median.
SETUP_SAMPLES = (4, 3)
SMOKE_SETUP_SAMPLES = (2, 1)
CHILD_TIMEOUT_S = 170
#: Episodes of the list also recomposed from public pieces in the untraced run.
RECOMPOSED = 2


@dataclass
class RunResult:
    """What one run reports: metrics, failure accounting and supporting detail."""

    workload: str
    seed: int
    traced: bool
    attempted: int
    #: ``(episode index, episode seed, reason)`` of every failed check.
    failures: list[tuple[int, int, str]] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    detail: dict[str, object] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len({index for index, _, _ in self.failures})

    @property
    def correct(self) -> bool:
        return not self.failures


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def scratch_dir(tag: str) -> Path:
    """A fresh directory under ``bench/out`` private to this process."""
    path = OUT_DIR / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def peak_rss_mb(who: int) -> float:
    """High-water resident set in MiB: of this process (``RUSAGE_SELF``, the
    in-process workloads) or of the largest process among the waited-for
    descendants (``RUSAGE_CHILDREN``, the CLI and its pool workers)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def _spawn(argv: list[str], loops: int) -> tuple[float, float]:
    """Run one child process to its end.

    Returns its wall, start to exit, and how much slower than nominal the
    reference loop ran just before and just after it (*loops* times each; not
    meanwhile, or the loop would compete with the child for a processor).
    The wait blocks in ``waitpid``: ``subprocess``'s own timeout polls every
    50 ms, which would quantise a 0.2 s set-up time.  A timer kills a child
    that outlives the run's time limit instead.
    """
    loop_s = sum(reference_loop() for _ in range(loops))
    started = time.perf_counter()
    child = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        status = child.wait()
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - started
    loop_s += sum(reference_loop() for _ in range(loops))
    if status != 0:
        raise subprocess.CalledProcessError(status, argv)
    return wall, loop_s / (2 * loops) / REFERENCE_LOOP_S


#: The reference loop's time on an undisturbed core of the sandbox the
#: benchmark was built on.  It only scales results back into seconds.
REFERENCE_LOOP_S = 0.0097


def reference_loop() -> float:
    """Time a fixed piece of interpreter work shaped like the simulator's.

    The host this runs on slows down by up to 2x for seconds to minutes at a
    time, and it slows this loop together with the simulator.  Host times are
    therefore read against it: a time measured while the loop ran ``f`` times
    slower than ``REFERENCE_LOOP_S`` is divided by ``f``.  A fifth of the loop
    is integer arithmetic; the rest pushes and pops small list records on a
    heap a few thousand deep and updates a dict, because allocation- and
    memory-heavy code slows down more than arithmetic does and the simulator
    is mostly the former (measured per 1 s pass with the host up to 2.2x slow:
    Raft read against an arithmetic-only loop ranged 1.67x, against this mix
    1.40x; ESCAPE 2.37x and 1.14x).
    The collector is off meanwhile: its passes, which the loop's allocations
    would trigger, cost more the more objects the process holds, and the loop
    must read the host, not the process.
    """
    collecting = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    total = 0
    for index in range(25_000):
        total += index * index % 7
    heap: list[list] = []
    table: dict[int, int] = {}
    for index in range(8_000):
        heappush(heap, [float(index * 7919 % 1000), index, None, (index, index % 128)])
        if index % 3 == 2:
            record = heappop(heap)
            table[record[3][1]] = table.get(record[3][1], 0) + record[1]
    while heap:
        record = heappop(heap)
        table[record[3][1]] = table.get(record[3][1], 0) + 1
    elapsed = time.perf_counter() - started
    if collecting:
        gc.enable()
    return elapsed


def time_setup(workload, smoke: bool, samples: int) -> list[float]:
    """*samples* cold interpreters doing exactly the workload's set-up, each
    read against the reference loop run just before and after it."""
    argv = workload.setup_argv(smoke)
    times = []
    for _ in range(samples):
        wall, slowdown = _spawn(argv, loops=2)
        times.append(wall / slowdown)
    return times


def _reason(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def _add(totals: dict[str, float], counts: dict[str, float]) -> None:
    for name, value in counts.items():
        totals[name] = totals.get(name, 0) + value


# --------------------------------------------------------------------------- #
# Untraced: the end-to-end metrics
# --------------------------------------------------------------------------- #
# The timed window is whole passes over one fixed episode list: at least two,
# and as many more as fit into ``--seconds``.  The reference loop runs before
# every episode (for about a tenth of the episode's own time).  A pass's rate
# is its episodes over their summed time, scaled by how much slower than
# nominal the loop ran during that pass; ``episodes_per_s`` is the median of
# the passes' rates.  Every pass after the first is also the determinism
# check: each episode must return a measurement equal to its first run.  The
# episode list never adapts to the machine, so every seed-pure number of a run
# depends on ``--seed`` alone.
def measure_inprocess(workload, seed: int, seconds: float, smoke: bool) -> RunResult:
    before, after = SMOKE_SETUP_SAMPLES if smoke else SETUP_SAMPLES
    setup = time_setup(workload, smoke, before)
    workload.prepare()
    seeds = workload.seeds(seed)
    result = RunResult(workload.name, seed, traced=False, attempted=len(seeds))
    best_s = [float("inf")] * len(seeds)
    reference: list[object] = [None] * len(seeds)
    #: Reference loops before each episode: about a tenth of its own time.
    loops_before = [1] * len(seeds)
    #: Per pass: episodes per second as timed, and the host's slowdown meanwhile.
    raw_rates: list[float] = []
    slowdowns: list[float] = []

    gc.collect()
    started = time.perf_counter()
    pass_s = 0.0
    while len(raw_rates) < 2 or (
        not smoke and time.perf_counter() - started + pass_s <= seconds
    ):
        pass_started = time.perf_counter()
        episode_s = 0.0
        loop_s = 0.0
        for index, episode_seed in enumerate(seeds):
            for _ in range(loops_before[index]):
                loop_s += reference_loop()
            began = time.perf_counter()
            measurement = None
            try:
                measurement = workload.run(episode_seed)
                workload.check(measurement)
            except Exception as error:  # boundary: record the failure, keep measuring
                result.failures.append((index, episode_seed, _reason(error)))
            elapsed = time.perf_counter() - began
            episode_s += elapsed
            best_s[index] = min(best_s[index], elapsed)
            if not raw_rates:
                reference[index] = measurement
            elif measurement != reference[index]:
                result.failures.append(
                    (index, episode_seed, "differs from an earlier run of the same seed")
                )
        raw_rates.append(len(seeds) / episode_s)
        slowdowns.append(loop_s / sum(loops_before) / REFERENCE_LOOP_S)
        pass_s = time.perf_counter() - pass_started
        loops_before = [
            max(1, min(16, round(best / 10.0 / REFERENCE_LOOP_S))) for best in best_s
        ]
    window_s = time.perf_counter() - started
    setup += time_setup(workload, smoke, after)

    totals = _recompose(workload, seeds, reference, result)
    for measurement in reference:
        if measurement is not None:
            _add(totals, workload.outcome(measurement))
    result.metrics = {
        "episodes_per_s": _nominal_rate(raw_rates, slowdowns),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
        "setup_s": statistics.median(setup),
    }
    result.detail = {
        "episodes": len(seeds),
        "passes": len(raw_rates),
        "window_s": window_s,
        "raw_episodes_per_s": raw_rates,
        "host_slowdown": slowdowns,
        "setup_samples_s": setup,
        "episode_ms_p50": percentile(best_s, 50.0) * 1000.0,
        "episode_ms_p95": percentile(best_s, 95.0) * 1000.0,
        "exact": _exact(totals),
    }
    return result


def _nominal_rate(raw_rates: list[float], slowdowns: list[float]) -> float:
    """Median over passes of the rate a pass would have had on a nominal host."""
    return statistics.median(
        rate * slowdown for rate, slowdown in zip(raw_rates, slowdowns)
    )


def _recompose(workload, seeds, reference, result: RunResult) -> dict[str, float]:
    """The first episodes again, recomposed from public pieces (which is where
    committed-prefix consistency can be checked); returns their layer counts."""
    totals: dict[str, float] = {}
    tracer = Tracer()
    for index in range(min(RECOMPOSED, len(seeds))):
        try:
            again, counts = workload.run_traced(seeds[index], tracer, index)
        except Exception as error:  # boundary: record the failure, keep checking
            result.failures.append((index, seeds[index], _reason(error)))
            continue
        if again != reference[index]:
            result.failures.append(
                (index, seeds[index], "recomposed episode differs from scenario.run")
            )
        _add(totals, {f"recomposed.{name}": counts[name] for name in ("events", "sent")})
    return totals


def _exact(totals: dict[str, float]) -> dict[str, float]:
    """Seed-pure numbers of an untraced run; equal for equal ``--seed``."""
    failovers = max(1, totals.get("failovers", 0))
    return {
        "sim.outage_ms_mean": totals.get("outage_ms", 0) / failovers,
        "raft.campaigns_per_failover": totals.get("campaigns", 0) / failovers,
        "recomposed.events": totals.get("recomposed.events", 0),
        "recomposed.sent": totals.get("recomposed.sent", 0),
    }


# --------------------------------------------------------------------------- #
# CLI sweeps
# --------------------------------------------------------------------------- #
def _cli_sweep(workload: CliWorkload, cli_seed: int, output: Path, result: RunResult):
    """One cold CLI sweep, import to export on disk, and its checked export.

    Every episode of the sweep must be in the lossless JSON export, converged.
    Returns ``(wall_s, host_slowdown, metadata, cells)``.
    """
    from repro.common.rng import paired_seeds
    from repro.experiments.export import load_run

    wall, slowdown = float("inf"), 1.0
    metadata, cells = {}, {}
    try:
        wall, slowdown = _spawn(workload.sweep_argv(cli_seed, output), loops=16)
        metadata, sets = load_run("fig11", output)
        cells = {label: sets[label].measurements for label in sets}
    except Exception as error:  # boundary: a sweep without export fails its episodes
        result.failures.append((0, cli_seed, _reason(error)))
    index = 0
    for label in workload.scenarios():
        by_seed = {measurement.seed: measurement for measurement in cells.get(label, ())}
        for episode_seed in paired_seeds(workload.runs, cli_seed, label):
            measurement = by_seed.get(episode_seed)
            if measurement is None:
                result.failures.append((index, episode_seed, f"{label}: not exported"))
            elif not measurement.converged:
                result.failures.append((index, episode_seed, f"{label}: no new leader"))
            index += 1
    result.attempted = index
    return wall, slowdown, metadata, cells


def measure_cli(workload: CliWorkload, seed: int, seconds: float, smoke: bool) -> RunResult:
    """The same sweep, cold each time: at least twice, and as often as fits
    into ``--seconds``; every export must be equal.  Each sweep's wall is
    read against the reference loop run just before and after it."""
    before, after = SMOKE_SETUP_SAMPLES if smoke else SETUP_SAMPLES
    setup = time_setup(workload, smoke, before)
    cli_seed = workload.cli_seed(seed)
    result = RunResult(workload.name, seed, traced=False, attempted=0)
    scratch = scratch_dir("cli")
    raw_rates: list[float] = []
    slowdowns: list[float] = []
    reference = None
    try:
        started = time.perf_counter()
        sweep_s = 0.0
        while len(raw_rates) < 2 or (
            not smoke and time.perf_counter() - started + sweep_s <= seconds
        ):
            sweep_started = time.perf_counter()
            wall, slowdown, _, cells = _cli_sweep(
                workload, cli_seed, scratch / f"sweep-{len(raw_rates)}", result
            )
            raw_rates.append(result.attempted / wall)
            slowdowns.append(slowdown)
            if reference is None:
                reference = cells
            elif cells != reference:
                result.failures.append(
                    (0, cli_seed, "export differs from an earlier sweep of the same seed")
                )
            sweep_s = time.perf_counter() - sweep_started
        window_s = time.perf_counter() - started
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setup += time_setup(workload, smoke, after)
    totals: dict[str, float] = {}
    for measurements in reference.values():
        for measurement in measurements:
            _add(totals, election_outcome(measurement))
    result.metrics = {
        "episodes_per_s": _nominal_rate(raw_rates, slowdowns),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "setup_s": statistics.median(setup),
    }
    result.detail = {
        "episodes": result.attempted,
        "passes": len(raw_rates),
        "window_s": window_s,
        "raw_episodes_per_s": raw_rates,
        "host_slowdown": slowdowns,
        "setup_samples_s": setup,
        "exact": _exact(totals),
    }
    return result


# --------------------------------------------------------------------------- #
# Traced: the per-layer metrics
# --------------------------------------------------------------------------- #
class _TraceAccumulator:
    """Spans, counts and paired timings of a traced run."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counts: dict[str, float] = {}
        self.latencies_ms: list[float] = []
        self.untraced_ns: list[int] = []
        #: Traced episode time of the episodes that also ran untraced.
        self.paired_traced_ns = 0
        self._last_traced_ns = 0

    def traced(self, run_traced, seed: int, episode: int):
        root = len(self.tracer.spans)
        measurement, counts = run_traced(seed, self.tracer, episode)
        self._last_traced_ns = self.tracer.spans[root].duration_ns
        _add(self.counts, counts)
        self.latencies_ms.extend(getattr(measurement, "latencies_ms", ()))
        return measurement

    def pair(self, run, run_traced, seed: int, episode: int):
        """One episode both ways, alternating which goes first."""

        def plain():
            started = time.perf_counter_ns()
            measurement = run(seed)
            self.untraced_ns.append(time.perf_counter_ns() - started)
            return measurement

        if episode % 2 == 0:
            reference = plain()
            measurement = self.traced(run_traced, seed, episode)
        else:
            measurement = self.traced(run_traced, seed, episode)
            reference = plain()
        self.paired_traced_ns += self._last_traced_ns
        if measurement != reference:
            raise AssertionError("traced composition differs from scenario.run(seed)")
        return measurement


def trace_inprocess(workload, seed: int, seconds: float, smoke: bool) -> RunResult:
    """The untraced run's episode list once, every episode both ways.

    ``--seconds`` does not apply: the list is fixed, so every count and
    simulated metric is a function of ``--seed`` alone.
    """
    workload.prepare()
    seeds = workload.seeds(seed)
    result = RunResult(workload.name, seed, traced=True, attempted=len(seeds))
    accumulator = _TraceAccumulator()
    gc.collect()
    for episode, episode_seed in enumerate(seeds):
        try:
            measurement = accumulator.pair(
                workload.run, workload.run_traced, episode_seed, episode
            )
            workload.check(measurement)
        except Exception as error:  # boundary: record the failure, keep tracing
            result.failures.append((episode, episode_seed, _reason(error)))
    steady_heartbeats = (
        isinstance(workload, ElectionWorkload) and workload.protocol == "escape"
    )
    _finish_trace(result, accumulator, smoke, steady_heartbeats, extras={})
    return result


def trace_cli(workload: CliWorkload, seed: int, seconds: float, smoke: bool) -> RunResult:
    """One CLI sweep, then the same episodes serially in this process, traced.

    The export is the untraced reference every traced measurement must equal;
    run 0 of every cell is also timed untraced here, for the tracing overhead.
    """
    from repro.common.rng import paired_seeds
    from repro.experiments.export import write_measurements_csv, write_measurements_json

    cli_seed = workload.cli_seed(seed)
    result = RunResult(workload.name, seed, traced=True, attempted=0)
    accumulator = _TraceAccumulator()
    scratch = scratch_dir("cli-trace")
    extras: dict[str, float] = {}
    try:
        imports = [
            _spawn([sys.executable, "-c", "import repro.experiments.__main__"], loops=1)[0]
            for _ in range(3)
        ]
        extras["experiments.cli.import_s"] = statistics.median(imports)
        _, _, metadata, cells = _cli_sweep(workload, cli_seed, scratch, result)
        profile = metadata.get("profile", {})
        for phase in ("build", "sweep", "report"):
            extras[f"experiments.profile.{phase}_s"] = float(profile.get(phase, 0.0))

        started = time.perf_counter()
        write_measurements_csv(scratch / "again.csv", cells)
        write_measurements_json(scratch / "again.json", cells, metadata=metadata)
        extras["experiments.export_s"] = time.perf_counter() - started

        gc.collect()
        episode = 0
        for label, scenario in workload.scenarios().items():
            by_seed = {measurement.seed: measurement for measurement in cells.get(label, ())}
            run_traced = partial(traced_election_episode, scenario)
            label_seeds = paired_seeds(workload.runs, cli_seed, label)
            for run_index, episode_seed in enumerate(label_seeds):
                try:
                    if run_index == 0:
                        measurement = accumulator.pair(
                            scenario.run, run_traced, episode_seed, episode
                        )
                    else:
                        measurement = accumulator.traced(run_traced, episode_seed, episode)
                    if measurement != by_seed.get(episode_seed):
                        raise AssertionError(f"{label}: traced run differs from the export")
                except Exception as error:  # boundary: record, keep tracing
                    result.failures.append((episode, episode_seed, _reason(error)))
                episode += 1
        serial_s = accumulator.tracer.totals_ns().get("episode", 0) / 1e9
        sweep_s = extras["experiments.profile.sweep_s"]
        if sweep_s:
            extras["experiments.runner.pool_efficiency"] = serial_s / (
                workload.workers * sweep_s
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    _finish_trace(result, accumulator, smoke, steady_heartbeats=False, extras=extras)
    return result


def _finish_trace(result: RunResult, accumulator: _TraceAccumulator, smoke: bool,
                  steady_heartbeats: bool, extras: dict[str, float]) -> None:
    probes_dir = scratch_dir("probes")
    try:
        probe_values = run_probes(probes_dir, smoke)
    finally:
        shutil.rmtree(probes_dir, ignore_errors=True)
    derived = derive_layer_metrics(accumulator, probe_values, steady_heartbeats)
    derived.update(extras)
    # A layer the workload never enters did no work there: report 0.
    result.metrics = {metric.name: float(derived.get(metric.name, 0.0)) for metric in PER_LAYER}
    self_ns = accumulator.tracer.self_times_ns()
    result.detail = {
        "traced_episodes": int(accumulator.counts.get("episodes", 0)),
        "untraced_episodes": len(accumulator.untraced_ns),
        "self_time_ms": {name: ns / 1e6 for name, ns in sorted(self_ns.items())},
        "counts": dict(sorted(accumulator.counts.items())),
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    accumulator.tracer.write_chrome_trace(OUT_DIR / f"trace-{result.workload}.json")


def derive_layer_metrics(accumulator: _TraceAccumulator, probe_values: dict[str, float],
                         steady_heartbeats: bool) -> dict[str, float]:
    """Per-layer metrics from the spans, the boundary counts and the probes."""
    values = dict(probe_values)
    counts = accumulator.counts
    untraced_ns = accumulator.untraced_ns
    episodes = counts.get("episodes", 0)
    if not episodes:
        return values
    totals = accumulator.tracer.totals_ns()
    episode_ns = totals["episode"]
    serving = "issued" in counts

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    for phase in ("build", "start", "stabilize", "steady", "failover", "check"):
        values[f"cluster.{phase}.ms_per_episode"] = (
            totals.get(f"cluster.{phase}", 0) / episodes / 1e6
        )
    for phase in ("window", "finalize"):
        values[f"workload.{phase}.ms_per_episode"] = (
            totals.get(f"workload.{phase}", 0) / episodes / 1e6
        )
    values["cluster.build.share"] = totals["cluster.build"] / episode_ns
    if untraced_ns:
        values["cluster.episode.p50_ms"] = percentile(untraced_ns, 50.0) / 1e6
        values["cluster.episode.p95_ms"] = percentile(untraced_ns, 95.0) / 1e6
        values["cluster.traced_over_untraced"] = accumulator.paired_traced_ns / sum(
            untraced_ns
        )

    run_ns = sum(
        totals.get(name, 0)
        for name in ("cluster.stabilize", "cluster.steady", "cluster.failover",
                     "workload.window")
    )
    values["sim.outage_ms_mean"] = ratio(counts["outage_ms"], counts["failovers"])
    values["sim.events_per_episode"] = counts["events"] / episodes
    for phase in ("stabilize", "steady", "failover"):
        values[f"sim.events.{phase}"] = counts.get(f"{phase}.events", 0) / episodes
    values["sim.cancelled_share"] = ratio(counts["cancelled"], counts["scheduled"])
    values["sim.host_ns_per_event"] = ratio(run_ns, counts["events"])

    values["net.sent_per_episode"] = counts["sent"] / episodes
    values["net.sent.RequestVote_per_episode"] = counts["votes"] / episodes
    values["net.sent.AppendEntries_per_episode"] = counts["appends"] / episodes
    values["net.broadcasts_per_episode"] = counts["broadcasts"] / episodes
    values["net.dropped_share"] = ratio(counts["dropped"], counts["sent"])

    if "campaigns" in counts:
        values["raft.campaigns_per_failover"] = ratio(counts["campaigns"], counts["failovers"])
        values["raft.split_vote_share"] = ratio(counts["split_votes"], counts["failovers"])
        values["raft.request_votes_per_win"] = ratio(
            counts.get("failover.votes", 0), counts["wins"]
        )
    if steady_heartbeats:
        values["escape.steady_us_per_heartbeat"] = ratio(
            totals["cluster.steady"] / 1e3, counts.get("steady.broadcasts", 0)
        )
    if serving:
        window_ns = totals["workload.window"]
        values["workload.issued_per_episode"] = counts["issued"] / episodes
        values["workload.committed_share"] = ratio(counts["committed"], counts["issued"])
        values["workload.sim_commit_ms_p50"] = percentile(accumulator.latencies_ms, 50.0)
        values["workload.sim_commit_ms_p99"] = percentile(accumulator.latencies_ms, 99.0)
        values["workload.sim_ops_per_s"] = ratio(
            counts["committed"], counts["window_ms"] / 1000.0
        )
        values["workload.host_us_per_op"] = ratio(window_ns / 1e3, counts["issued"])
        values["chaos.applied_per_episode"] = counts["applied"] / episodes
        values["chaos.outages_per_episode"] = counts["failovers"] / episodes

    # The outside-in cost model: counted work priced by the probes, plus the
    # measured build.  Requests go out as broadcasts and are handled at the
    # probed handler cost; everything else sent is a unicast reply (handler
    # not probed); events that deliver no message are timers.  What is left
    # over is what no probe explains yet; below zero, the probes over-price
    # this workload's mix of operations.
    requests = counts["votes"] + counts["appends"]
    delivered = counts["sent"] - counts["dropped"]
    append_ns = probe_values[
        "raft.probe.ns_per_append_1" if serving else "raft.probe.ns_per_heartbeat"
    ]
    explained_ns = (
        totals["cluster.build"]
        + requests * probe_values["net.probe.ns_per_broadcast_dst"]
        + (counts["sent"] - requests) * probe_values["net.probe.ns_per_unicast"]
        + counts["votes"] * probe_values["raft.probe.ns_per_request_vote"]
        + counts["appends"] * append_ns
        + max(0, counts["events"] - delivered) * probe_values["sim.probe.ns_per_event"]
    )
    values["model.residual_share"] = 1.0 - explained_ns / episode_ns
    return values
