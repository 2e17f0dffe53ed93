"""Measure the sweep engine: throughput, parent memory, IPC weight.

Subprocess-runnable on purpose: ``resource.getrusage`` reports a process-wide
*high-water* RSS, so the only clean way to compare a sweep into collecting
sets with one into mergeable aggregates is to run each in a fresh interpreter
and read its own high-water mark at exit.  ``benchmarks/ledger.py record
experiments`` invokes this script once per config and folds the JSON it
prints into the committed ``BENCH_experiments.json``.

Modes::

    # One sweep into one container type; prints episodes/sec + parent max RSS.
    python benchmarks/bench_sweep_streaming.py measure \
        --container aggregate --sizes 256 --runs 2 --workers 1 --engine flat

    # Task-queue pickle weight of the lean (label, index, seed) work items
    # vs embedding the scenario in every item (what the engine used to ship).
    python benchmarks/bench_sweep_streaming.py pickle-bytes --sizes 8,16,1024
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))


def _parse_sizes(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _max_rss_mb() -> float:
    """This process's high-water RSS in MiB (Linux reports KiB)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return peak_kb / divisor


def measure(args: argparse.Namespace) -> dict:
    """Run one fig9-xl-shaped sweep into one container type and time it."""
    from repro.experiments.fig09_scale import build_scenarios
    from repro.experiments.runner import run_sweep
    from repro.metrics.records import MeasurementSet
    from repro.metrics.streaming import ElectionAggregate

    scenarios = {
        label: scenario.with_engine(args.engine)
        for label, scenario in build_scenarios(
            sizes=_parse_sizes(args.sizes), protocols=args.protocols.split(",")
        ).items()
    }
    episodes = args.runs * len(scenarios)

    started = time.perf_counter()
    run_sweep(
        scenarios,
        runs=args.runs,
        seed=args.seed,
        workers=args.workers,
        container=MeasurementSet if args.container == "sets" else ElectionAggregate,
        checkpoint=args.checkpoint,
    )
    elapsed = time.perf_counter() - started
    return {
        "container": args.container,
        "sizes": list(_parse_sizes(args.sizes)),
        "runs": args.runs,
        "workers": args.workers,
        "engine": args.engine,
        "episodes": episodes,
        "elapsed_s": round(elapsed, 4),
        "episodes_per_s": round(episodes / elapsed, 4),
        "parent_max_rss_mb": round(_max_rss_mb(), 2),
    }


def pickle_bytes(args: argparse.Namespace) -> dict:
    """Task-queue bytes per episode: lean work items vs embedded scenarios."""
    from repro.experiments.fig09_scale import build_scenarios
    from repro.experiments.runner import build_work_items

    scenarios = build_scenarios(
        sizes=_parse_sizes(args.sizes), protocols=args.protocols.split(",")
    )
    items = build_work_items(scenarios, runs=args.runs, seed=0)
    lean = sum(len(pickle.dumps(item)) for item in items)
    # What each item would weigh if it still carried its scenario (the
    # pre-streaming engine pickled one scenario per episode into the queue).
    embedded = sum(
        len(pickle.dumps((item.label, scenarios[item.label], item.index, item.seed)))
        for item in items
    )
    return {
        "items": len(items),
        "lean_bytes_per_item": round(lean / len(items), 1),
        "embedded_bytes_per_item": round(embedded / len(items), 1),
        "reduction_x": round(embedded / lean, 2),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/bench_sweep_streaming.py",
        description="Sweep engine micro-benchmarks (JSON to stdout).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("measure", help="time one sweep")
    run.add_argument("--container", choices=("sets", "aggregate"), default="aggregate")
    run.add_argument("--sizes", default="256", help="comma-separated cluster sizes")
    run.add_argument("--runs", type=int, default=2)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--engine", default="flat", choices=("classic", "flat"))
    run.add_argument("--protocols", default="raft,escape")
    run.add_argument("--checkpoint", default=None, metavar="DIR")

    weigh = commands.add_parser("pickle-bytes", help="work-item queue weight")
    weigh.add_argument("--sizes", default="8,16,32,64,128,256,512,1024")
    weigh.add_argument("--runs", type=int, default=4)
    weigh.add_argument("--protocols", default="raft,escape")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    result = measure(args) if args.command == "measure" else pickle_bytes(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
