"""The benchmark's one command.

As the acceptance gate runs it, one workload per process::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  The exit code is
non-zero when any episode failed a check (each is named on standard error as
``(workload, index, seed)``).

As a person runs it, every workload in its own fresh interpreter::

    python3 bench/run.py [--seed N] [--seconds S] [--trace] [--aa | --repeat R] [--smoke]

``--trace`` adds the separate traced run and prints the per-layer metrics and
the tracing overhead; ``--aa`` runs everything twice, A-B per workload, and
fails when two runs of the same code disagree by more than a metric's bound
or when any seed-pure number does not repeat exactly; ``--repeat R`` runs
seeds N..N+R-1 and prints each end-to-end metric's median, quartiles and
spread beside its bound; ``--smoke`` shrinks the workloads (s=8, two
episodes, ``fig11 --quick --runs 1``) for the tests.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from layers import END_TO_END, PER_LAYER
from manifest import RUN_SECONDS
from measure import (
    CHILD_TIMEOUT_S,
    OUT_DIR,
    RunResult,
    measure_cli,
    measure_inprocess,
    trace_cli,
    trace_inprocess,
)
from stats import iqr_share, quartiles, worsening
from workloads import CliWorkload, build_workloads, require_source_tree

UNITS = {metric.name: metric.unit for metric in (*END_TO_END, *PER_LAYER)}
SEED_PURE = sorted(metric.name for metric in PER_LAYER if metric.clock in ("sim", "count"))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(build_workloads()), default=None,
                        help="run this one workload in this process (default: all, "
                             "each in a fresh interpreter)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the episode list / the CLI --seed; nothing else")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="length of the timed window")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                        help="1: the traced run (per-layer metrics); 0: end-to-end")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--aa", action="store_true",
                      help="run twice, A-B per workload, and compare against the bounds")
    mode.add_argument("--repeat", type=int, default=1, metavar="R",
                      help="run R seeds and report median, quartiles and spread")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads, two episodes each")
    return parser.parse_args(argv)


# --------------------------------------------------------------------------- #
# One workload, in this process
# --------------------------------------------------------------------------- #
def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> RunResult:
    workload = build_workloads(smoke)[name]
    if isinstance(workload, CliWorkload):
        procedure = trace_cli if traced else measure_cli
    else:
        procedure = trace_inprocess if traced else measure_inprocess
    return procedure(workload, seed, seconds, smoke)


def result_line(result: RunResult) -> str:
    """The one JSON object the gate reads from the last line of stdout."""
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in result.metrics.items()
            },
        }
    )


def record(result: RunResult) -> None:
    """Merge this run into ``bench/out/metrics-<seed>.json``."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"metrics-{result.seed}.json"
    try:
        merged = json.loads(path.read_text())
    except (OSError, ValueError):
        merged = {}
    merged.setdefault(result.workload, {})["traced" if result.traced else "untraced"] = {
        "attempted": result.attempted,
        "failures": result.failures,
        "metrics": result.metrics,
        "detail": result.detail,
    }
    path.write_text(json.dumps(merged, indent=2, sort_keys=True))


def main_single(args: argparse.Namespace) -> int:
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    record(result)
    for index, episode_seed, reason in result.failures:
        print(
            f"FAILED ({result.workload}, {index}, {episode_seed}): {reason}",
            file=sys.stderr,
        )
    for name, value in result.metrics.items():
        print(f"{name:48s} {value:16.6g} {UNITS[name]}")
    print(result_line(result))
    return 0 if result.correct else 1


# --------------------------------------------------------------------------- #
# Every workload, each in a fresh interpreter
# --------------------------------------------------------------------------- #
def run_child(name: str, seed: int, args: argparse.Namespace, traced: bool):
    """Run one workload in a fresh interpreter.

    Returns its parsed result line (plus ``values``: metric name -> number)
    and the detail it recorded in ``bench/out/metrics-<seed>.json``.
    """
    argv = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", "1" if traced else "0",
    ]  # fmt: skip
    if args.smoke:
        argv.append("--smoke")
    child = subprocess.run(
        argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = child.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench: {name} printed no result (exit {child.returncode})")
    outcome = json.loads(lines[-1])
    outcome["values"] = {
        metric: entry["value"] for metric, entry in outcome["metrics"].items()
    }
    merged = json.loads((OUT_DIR / f"metrics-{seed}.json").read_text())
    return outcome, merged[name]["traced" if traced else "untraced"]["detail"]


def print_end_to_end(name: str, seed: int, outcome, detail) -> None:
    samples = {
        "episodes_per_s": f"median of {detail['passes']} passes over "
                          f"{detail['episodes']} episodes in {detail['window_s']:.1f} s; "
                          f"as timed {statistics.median(detail['raw_episodes_per_s']):.4f} "
                          f"with the host "
                          f"{statistics.median(detail['host_slowdown']):.2f}x slow",
        "peak_rss_mb": "1 process tree",
        "setup_s": f"median of {len(detail['setup_samples_s'])} cold starts",
    }
    print(
        f"== {name} (seed {seed}): {outcome['attempted']} attempted, "
        f"{outcome['failed']} failed =="
    )
    for metric in END_TO_END:
        print(
            f"  {metric.name:20s} {outcome['values'][metric.name]:12.4f} {metric.unit:5s}"
            f" ({metric.clock}; {metric.better} is better; n = {samples[metric.name]};"
            f" regression bound {metric.bound:.0%})"
        )
    for key in ("episode_ms_p50", "episode_ms_p95"):
        if key in detail:
            print(f"  {key:20s} {detail[key]:12.4f} ms    (host; per-episode latency)")
    for key, value in detail["exact"].items():
        print(f"  {key:34s} {value!r} (seed-pure)")


def print_per_layer(name: str, outcome, detail) -> None:
    print(
        f"-- {name}: traced run, {detail['traced_episodes']} episodes traced, "
        f"{detail['untraced_episodes']} also untraced --"
    )
    for metric in PER_LAYER:
        value = outcome["values"][metric.name]
        applies = "" if name in metric.where else "  (control: no change expected here)"
        print(f"  {metric.name:46s} {value:16.6g} {metric.unit:6s} {metric.clock:5s}{applies}")
    print("  self time per span (ms): " + ", ".join(
        f"{span}={ms:.1f}" for span, ms in detail["self_time_ms"].items()
    ))


def compare_aa(name: str, first, second) -> bool:
    """Print each end-to-end metric's A/B gap beside its bound; True when within."""
    within = True
    for metric in END_TO_END:
        a, b = first["values"][metric.name], second["values"][metric.name]
        gap = worsening(a, b, metric.better)
        within &= abs(gap) <= metric.bound
        print(
            f"  A/A {name:22s} {metric.name:16s} A={a:.4f} B={b:.4f} gap={gap:+.2%} "
            f"bound={metric.bound:.0%} {'ok' if abs(gap) <= metric.bound else 'BEYOND BOUND'}"
        )
    return within


def print_spread(name: str, outcomes) -> bool:
    """Median, quartiles and spread of each end-to-end metric over the seeds
    run; True when every spread but set-up's stays within its bound."""
    within = True
    for metric in END_TO_END:
        values = [outcome["values"][metric.name] for outcome in outcomes]
        q1, median, q3 = quartiles(values)
        spread = iqr_share(values)
        if spread <= metric.bound / 3:
            verdict = "steady (under a third of the bound)"
        elif spread <= metric.bound:
            verdict = "within the bound"
        else:
            verdict = "BEYOND BOUND"
            within &= metric.name == "setup_s"
        print(
            f"  spread {name:22s} {metric.name:16s} n={len(values)} q1={q1:.4f} "
            f"median={median:.4f} q3={q3:.4f} spread={spread:.2%} "
            f"bound={metric.bound:.0%} {verdict}"
        )
    return within


def mismatches(first: dict[str, float], second: dict[str, float], names) -> list[str]:
    return [
        f"{metric}: {first[metric]!r} != {second[metric]!r}"
        for metric in names
        if first[metric] != second[metric]
    ]


def main_all(args: argparse.Namespace) -> int:
    status = 0
    sets = 2 if args.aa else 1
    seeds = range(args.seed, args.seed + args.repeat)
    for name in build_workloads():
        runs, traces = [], []
        for seed in seeds:
            for _ in range(sets):
                outcome, detail = run_child(name, seed, args, traced=False)
                print_end_to_end(name, seed, outcome, detail)
                runs.append((outcome, detail["exact"]))
            for _ in range(sets if args.trace else 0):
                outcome, detail = run_child(name, seed, args, traced=True)
                print_per_layer(name, outcome, detail)
                traces.append(outcome)
        outcomes = [outcome for outcome, _ in runs]
        if not all(outcome["correct"] for outcome in (*outcomes, *traces)):
            status = 1
        if args.aa:
            (first, exact_a), (second, exact_b) = runs
            if not compare_aa(name, first, second):
                status = 1
            unequal = mismatches(exact_a, exact_b, exact_a)
            if traces:
                unequal += mismatches(traces[0]["values"], traces[1]["values"], SEED_PURE)
            for line in unequal:
                print(f"  A/A {name}: seed-pure metric did not repeat: {line}")
            if unequal:
                status = 1
            else:
                print(f"  A/A {name}: every seed-pure metric repeated exactly")
        elif args.repeat >= 2 and not print_spread(name, outcomes):
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    require_source_tree()
    if args.workload is not None:
        return main_single(args)
    return main_all(args)


if __name__ == "__main__":
    sys.exit(main())
