"""The committed benchmark ledger: record and compare simulator performance.

The ledger keeps the measurements the acceptance benchmark (``bench/``,
``BENCHMARK.json``) cannot produce: what the ``classic`` reference engine
costs (``core``: episodes/sec on the single-failover micro-benchmark per
cluster size and engine, plus the flat/classic speedup) and how the sweep
engine scales (``experiments``: the fig9-xl tail, the parent's memory
high-water per container kind, the task-queue weight of a work item).  A
recording run writes them to a JSON file that is committed next to the code
(``BENCH_core.json`` / ``BENCH_experiments.json``).  A compare run diffs two
ledgers and exits non-zero when any shared metric regressed by more than the
threshold (25% by default)::

    PYTHONPATH=src python benchmarks/ledger.py record core --bench-json BENCH_core.json
    PYTHONPATH=src python benchmarks/ledger.py record experiments --bench-json BENCH_experiments.json
    PYTHONPATH=src python benchmarks/ledger.py compare BENCH_core.json candidate.json

Measurement methodology (the hard-won parts):

* engines are measured *interleaved* (classic rep, flat rep, classic rep, ...)
  so thermal throttling and background load bias neither side;
* each metric is the **second-highest** rate of ``--reps`` repetitions -- the
  maximum is noise-prone, the mean punishes one slow outlier;
* episodes run with ``trace=False`` (the sweep default); benchmarking with
  tracing on understates the flat engine by a large margin.

Absolute numbers are machine-specific -- comparing a laptop's candidate
against a CI baseline says nothing.  The committed ledgers document *this
repo's* trajectory on the machine that recorded them; the compare gate is for
same-machine before/after runs (and CI compares a ledger against itself as a
self-check).  The flat/classic *speedup* entries are the
machine-portable part.

``--quick`` shrinks the size grid and episode counts for smoke runs.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

SCHEMA_VERSION = 1
DEFAULT_THRESHOLD = 0.25
DEFAULT_REPS = 6

#: Cluster sizes of the single-failover micro-benchmark (``--quick`` uses the
#: reduced grid).  The flat engine's advantage grows with size and plateaus
#: around 4.3-4.5x, so the grid spans the curve rather than one point.
CORE_SIZES = (16, 64, 128, 256)
QUICK_CORE_SIZES = (8, 16)

ENGINES = ("classic", "flat")


# --------------------------------------------------------------------------- #
# Recording
# --------------------------------------------------------------------------- #
def _entry(name: str, metric: str, value: float, unit: str, higher_is_better: bool) -> dict:
    return {
        "name": name,
        "metric": metric,
        "value": round(value, 4),
        "unit": unit,
        "higher_is_better": higher_is_better,
    }


def _episodes_for(size: int, quick: bool) -> int:
    """Episodes per repetition: enough at small sizes to beat timer noise."""
    if quick:
        return 2
    return max(2, 256 // size)


def _measure_rate(scenario, episodes: int) -> float:
    """Episodes per second for *scenario* over *episodes* fresh seeds."""
    started = time.perf_counter()
    for seed in range(episodes):
        scenario.run(seed)
    elapsed = time.perf_counter() - started
    return episodes / elapsed


def _second_highest(rates: list[float]) -> float:
    ordered = sorted(rates)
    return ordered[-2] if len(ordered) >= 2 else ordered[-1]


def record_core(reps: int, quick: bool) -> dict:
    """Episodes/sec per (size, engine) on the single-failover micro."""
    from repro.cluster.scenarios import ElectionScenario

    sizes = QUICK_CORE_SIZES if quick else CORE_SIZES
    entries: list[dict] = []
    for size in sizes:
        base = ElectionScenario(protocol="raft", cluster_size=size)
        episodes = _episodes_for(size, quick)
        rates: dict[str, list[float]] = {engine: [] for engine in ENGINES}
        # Interleave engines inside every repetition so machine-load drift
        # hits both sides equally.
        for _ in range(reps):
            for engine in ENGINES:
                rates[engine].append(
                    _measure_rate(base.with_engine(engine), episodes)
                )
        best = {engine: _second_highest(rates[engine]) for engine in ENGINES}
        for engine in ENGINES:
            entries.append(
                _entry(
                    f"single-failover/size={size}/engine={engine}",
                    "episodes_per_s",
                    best[engine],
                    "1/s",
                    higher_is_better=True,
                )
            )
            print(
                f"  size={size:>4} engine={engine:<7} "
                f"{best[engine]:8.2f} episodes/s",
                flush=True,
            )
        speedup = best["flat"] / best["classic"]
        entries.append(
            _entry(
                f"single-failover/size={size}/speedup",
                "flat_over_classic",
                speedup,
                "x",
                higher_is_better=True,
            )
        )
        print(f"  size={size:>4} speedup {speedup:18.2f}x", flush=True)
    return _ledger("core", quick, reps, entries)


def _sweep_bench(argv: list[str]) -> dict:
    """Run benchmarks/bench_sweep_streaming.py in a fresh interpreter.

    A subprocess per measurement because the parent-memory metric is a
    process-wide RSS *high-water* mark: only a fresh interpreter can attribute
    it to one sweep.
    """
    import subprocess

    script = Path(__file__).resolve().parent / "bench_sweep_streaming.py"
    completed = subprocess.run(
        [sys.executable, str(script), *argv],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout)


def record_experiments(reps: int, quick: bool) -> dict:
    """Sweep-engine metrics: scale throughput, parent RSS, IPC weight.

    Three stories, each measurement its own subprocess:

    * ``sweep/scale`` -- episodes/sec on the fig9-xl tail (s=1024; the quick
      grid substitutes s=64), swept into aggregates as fig9-xl does;
    * ``sweep/memory`` -- parent high-water RSS over a many-episode sweep,
      where collecting sets grow O(runs) and mergeable aggregates stay
      O(labels);
    * ``sweep/work-item`` -- task-queue pickle bytes per episode for the lean
      (label, index, seed) items vs embedding the scenario in every item.
    """
    entries: list[dict] = []
    scale_sizes = "64" if quick else "1024"
    memory_runs = "200" if quick else "3000"

    scale = _sweep_bench(
        ["measure", "--sizes", scale_sizes, "--runs", "2", "--workers", "1",
         "--engine", "flat"]
    )
    entries.append(
        _entry(
            f"sweep/scale/s={scale_sizes}",
            "episodes_per_s",
            scale["episodes_per_s"],
            "1/s",
            higher_is_better=True,
        )
    )
    print(
        f"  sweep scale   s={scale_sizes:<4} "
        f"{scale['episodes_per_s']:8.2f} episodes/s",
        flush=True,
    )
    for container in ("sets", "aggregate"):
        memory = _sweep_bench(
            ["measure", "--container", container, "--sizes", "16", "--runs",
             memory_runs, "--workers", "1", "--engine", "flat"]
        )
        entries.append(
            _entry(
                f"sweep/memory/s=16/runs={memory_runs}/container={container}",
                "parent_max_rss_mb",
                memory["parent_max_rss_mb"],
                "MiB",
                higher_is_better=False,
            )
        )
        print(
            f"  sweep memory  runs={memory_runs:<5} container={container:<9} "
            f"{memory['parent_max_rss_mb']:8.2f} MiB high-water",
            flush=True,
        )

    weight = _sweep_bench(["pickle-bytes"])
    entries.append(
        _entry(
            "sweep/work-item/lean",
            "pickle_bytes_per_item",
            weight["lean_bytes_per_item"],
            "B",
            higher_is_better=False,
        )
    )
    entries.append(
        _entry(
            "sweep/work-item/embedded-scenario",
            "pickle_bytes_per_item",
            weight["embedded_bytes_per_item"],
            "B",
            higher_is_better=False,
        )
    )
    entries.append(
        _entry(
            "sweep/work-item/reduction",
            "embedded_over_lean",
            weight["reduction_x"],
            "x",
            higher_is_better=True,
        )
    )
    print(
        f"  sweep work-item {weight['lean_bytes_per_item']:.1f} B lean vs "
        f"{weight['embedded_bytes_per_item']:.1f} B embedded "
        f"({weight['reduction_x']:.2f}x lighter)",
        flush=True,
    )
    return _ledger("experiments", quick, reps, entries)


def _ledger(suite: str, quick: bool, reps: int, entries: list[dict]) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "quick": quick,
        "reps": reps,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "entries": entries,
    }


# --------------------------------------------------------------------------- #
# Comparing
# --------------------------------------------------------------------------- #
def compare(baseline: dict, candidate: dict, threshold: float) -> int:
    """Report per-metric deltas; return the number of >threshold regressions."""
    baseline_by_key = {
        (entry["name"], entry["metric"]): entry for entry in baseline["entries"]
    }
    regressions = 0
    for entry in candidate["entries"]:
        key = (entry["name"], entry["metric"])
        before = baseline_by_key.pop(key, None)
        if before is None:
            print(f"  NEW        {entry['name']} ({entry['metric']})")
            continue
        old, new = before["value"], entry["value"]
        if old == 0:
            delta = 0.0
        elif entry["higher_is_better"]:
            delta = (new - old) / old
        else:
            delta = (old - new) / old  # positive == faster (improvement)
        regressed = delta < -threshold
        regressions += regressed
        marker = "REGRESSION" if regressed else ("improved" if delta > threshold else "ok")
        print(
            f"  {marker:<10} {entry['name']} ({entry['metric']}): "
            f"{old:g} -> {new:g} ({delta:+.1%})"
        )
    for name, metric in sorted(baseline_by_key):
        print(f"  MISSING    {name} ({metric}) -- present in baseline only")
    return regressions


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/ledger.py",
        description="Record or compare the committed benchmark ledger.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    record = commands.add_parser("record", help="measure and write a ledger")
    record.add_argument("suite", choices=("core", "experiments"))
    record.add_argument(
        "--bench-json",
        metavar="PATH",
        required=True,
        help="ledger file to write (e.g. BENCH_core.json)",
    )
    record.add_argument(
        "--reps",
        type=int,
        default=DEFAULT_REPS,
        help=f"repetitions per core metric (default {DEFAULT_REPS}); the "
        "experiments suite measures each entry once, in its own subprocess",
    )
    record.add_argument(
        "--quick",
        action="store_true",
        help="reduced grid for smoke runs (CI); do not commit quick ledgers",
    )

    diff = commands.add_parser(
        "compare", help="diff two ledgers; exit 1 on >threshold regressions"
    )
    diff.add_argument("baseline", metavar="BASELINE_JSON")
    diff.add_argument("candidate", metavar="CANDIDATE_JSON")
    diff.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"relative regression tolerance (default {DEFAULT_THRESHOLD})",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "record":
        print(f"recording {args.suite} ledger (reps={args.reps}, quick={args.quick})")
        recorder = record_core if args.suite == "core" else record_experiments
        ledger = recorder(args.reps, args.quick)
        Path(args.bench_json).write_text(json.dumps(ledger, indent=2) + "\n")
        print(f"wrote {args.bench_json} ({len(ledger['entries'])} entries)")
        return 0

    baseline = json.loads(Path(args.baseline).read_text())
    candidate = json.loads(Path(args.candidate).read_text())
    if baseline.get("suite") != candidate.get("suite"):
        print(
            f"cannot compare suites {baseline.get('suite')!r} and "
            f"{candidate.get('suite')!r}"
        )
        return 2
    print(
        f"comparing {args.candidate} against {args.baseline} "
        f"(threshold {args.threshold:.0%})"
    )
    regressions = compare(baseline, candidate, args.threshold)
    if regressions:
        print(f"{regressions} metric(s) regressed by more than {args.threshold:.0%}")
        return 1
    print("no regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
