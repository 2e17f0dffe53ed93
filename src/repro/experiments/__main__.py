"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.experiments --list                          # registry table
    python -m repro.experiments fig9 --runs 200 --seed 1
    python -m repro.experiments fig11 --runs 1000 --workers 0   # paper-scale sweep
    python -m repro.experiments wan --scenario chaos-composite  # catalog condition
    python -m repro.experiments wan --protocols raft-stagger,zraft,escape
    python -m repro.experiments avail --plan partition-flap     # chaos plan
    python -m repro.experiments fig3 --output results/          # persist raw + report
    python -m repro.experiments all --runs 20                   # quick smoke pass

The CLI is generated from the experiment registry
(:mod:`repro.experiments.registry`): the experiment choices, the help text,
which experiments accept ``--scenario``/``--protocols``/``--plan``, and the
quick-mode parameter overrides all come from the registered
:class:`~repro.experiments.sweep.SweepExperiment` declarations -- registering
another experiment extends the CLI without touching this module.

``--workers N`` fans the episodes of a sweep out over N processes
(``--workers 0`` uses every CPU); results are bit-for-bit identical to a
sequential run with the same seed.  ``--scenario NAME`` selects a single
named network condition from :mod:`repro.cluster.catalog` instead of the
experiment's default grid.  ``--protocols a,b,c`` replaces a
protocol-capable experiment's default comparison with any protocols
registered in :mod:`repro.protocols` (unknown names are rejected with the
list of registered ones; so are protocols that do not guarantee leader
election, since every sweep must stabilise one).  ``--plan NAME`` selects
the chaos fault timeline from :data:`repro.chaos.plans.CHAOS_CATALOG`.
``--engine NAME`` names the simulation engine from :mod:`repro.sim.engines`
(``flat``, the only one and the default).
``--checkpoint DIR`` makes a checkpoint-capable experiment's sweep resumable:
completed chunks persist to a JSON-lines file in DIR and a re-run of the same
command continues bit-identically where the killed one stopped.
``--output DIR`` saves every experiment's measurements (CSV: the episodes of
a collecting sweep, one row per cell otherwise), a lossless JSON export with
the run metadata, and the rendered report.
``--trace-out DIR`` makes trace-capable experiments archive one traced
episode per scenario label (JSONL + manifest + telemetry snapshots; see
:mod:`repro.obs.trace`).  ``--heartbeat FILE`` keeps a machine-readable
progress heartbeat up to date during the sweep and ``--ticker`` adds a
self-overwriting stderr progress line (per-label completion, episodes/sec,
ETA) -- both come from :class:`repro.obs.progress.ProgressReporter`.

Every experiment prints the same rows/series the corresponding paper figure
plots; see EXPERIMENTS.md for the paper-vs-measured comparison.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.chaos.plans import CHAOS_CATALOG
from repro.cluster.catalog import CATALOG
from repro.common.errors import ConfigurationError
from repro.experiments import registry
from repro.experiments.export import save_run
from repro.obs.profiling import Profiler
from repro.obs.progress import ProgressReporter, progress_printer
from repro.sim import engines as engine_registry


def _run_count(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"--runs must be >= 1, got {count}")
    return count


def _worker_count(value: str) -> int:
    count = int(value)
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"--workers must be >= 0 (0 means one per CPU), got {count}"
        )
    return count


def _protocol_list(value: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in value.split(",") if part.strip())
    if not names:
        raise argparse.ArgumentTypeError(
            "--protocols needs at least one protocol name"
        )
    try:
        return registry.validate_sweep_protocols(names)
    except ConfigurationError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser, generated from the experiment registry."""
    from repro import protocols as protocol_registry

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the evaluation figures of the ESCAPE paper (ICDCS 2022).",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=[*registry.names(), "all"],
        help="which experiment to run ('all' runs every registered one)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the experiment registry table and exit",
    )
    parser.add_argument(
        "--runs",
        type=_run_count,
        default=None,
        help=(
            "independent runs per data point (default: the experiment's "
            "registered default, see --list; the paper uses 1000)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help=(
            "worker processes for the sweep engine (0 = one per CPU); "
            "results are identical for every worker count"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "apply each experiment's registered quick-mode overrides "
            "(small cluster sizes / short horizons) for a fast smoke pass"
        ),
    )

    def capability(option: str, summary: str, **kwargs: object) -> None:
        """One sweep-wide option, under the flag the registry names for it."""
        supported = ", ".join(sorted(registry.supporting(option)))
        parser.add_argument(
            registry.CAPABILITIES[option],
            dest=option,
            default=None,
            help=f"{summary} (supported by: {supported})",
            **kwargs,
        )

    capability(
        "scenario",
        "run under a single named network condition from the scenario catalog",
        choices=CATALOG.names(),
    )
    capability(
        "protocols",
        "comma-separated protocols from the registry "
        f"({', '.join(protocol_registry.names())}) replacing the "
        "experiment's default comparison",
        type=_protocol_list,
        metavar="NAME[,NAME...]",
    )
    capability(
        "plan",
        "run under a named chaos plan from the chaos catalog",
        choices=CHAOS_CATALOG.names(),
    )
    capability(
        "checkpoint",
        "persist completed sweep chunks to a JSON-lines checkpoint in DIR; "
        "re-running the same sweep with the same DIR resumes bit-identically "
        "after a kill",
        metavar="DIR",
    )
    parser.add_argument(
        "--engine",
        choices=engine_registry.names(),
        default=None,
        help="simulation engine (default: 'flat')",
    )
    parser.add_argument(
        "--output",
        metavar="DIR",
        default=None,
        help=(
            "persist each experiment's raw measurements (CSV), a lossless "
            "JSON export with the run metadata, and the rendered report "
            "into DIR"
        ),
    )
    capability(
        "trace",
        "archive one traced episode per scenario label into DIR as JSONL, "
        "with a manifest and per-label telemetry snapshots",
        metavar="DIR",
    )
    parser.add_argument(
        "--heartbeat",
        metavar="FILE",
        default=None,
        help=(
            "rewrite FILE (atomically, about once per second) with a JSON "
            "progress heartbeat: per-label completion, episodes/sec, ETA, "
            "worker utilization"
        ),
    )
    parser.add_argument(
        "--ticker",
        action="store_true",
        help="show a live single-line sweep progress ticker on stderr",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.experiments``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        print(registry.registry_table())
        return 0
    if args.experiment is None:
        parser.error("an experiment name (or 'all') is required unless --list is given")
    names = (
        list(registry.names()) if args.experiment == "all" else [args.experiment]
    )
    for option in registry.CAPABILITIES:
        if getattr(args, option) is not None:
            message = registry.unsupported_option_message(option, names)
            if message:
                parser.error(message)
    workers = None if args.workers == 0 else args.workers
    output_dir = Path(args.output) if args.output else None
    for name in names:
        option_note = "".join(
            f", {option}={','.join(value) if option == 'protocols' else value}"
            for option in (*registry.CAPABILITIES, "engine")
            if (value := getattr(args, option))
        )
        runs_note = "default" if args.runs is None else args.runs
        print(
            f"== {name} (runs={runs_note}, seed={args.seed}, "
            f"workers={args.workers or 'auto'}{option_note}) ==",
            flush=True,
        )
        # A ProgressReporter doubles as the plain progress callback; it is
        # built per experiment so each run's totals and ETA start fresh.
        reporter: ProgressReporter | None = None
        if args.heartbeat is not None or args.ticker:
            reporter = ProgressReporter(
                heartbeat_path=args.heartbeat, ticker=args.ticker
            )
        progress = reporter
        if progress is None:
            progress = None if args.quick else progress_printer()
        try:
            run = registry.run_experiment(
                name,
                runs=args.runs,
                seed=args.seed,
                quick=args.quick,
                workers=workers,
                progress=progress,
                scenario=args.scenario,
                protocols=args.protocols,
                plan=args.plan,
                checkpoint=args.checkpoint,
                trace=args.trace,
                engine=args.engine,
            )
        finally:
            if reporter is not None:
                reporter.finish()
        print(run.report)
        if output_dir is not None:
            profiler = Profiler()
            with profiler.phase("export"):
                paths = save_run(run, output_dir)
            print(
                f"   saved: {paths['csv']}, {paths['json']}, {paths['report']} "
                f"({profiler.elapsed('export'):.2f} s)"
            )
        print(f"-- completed in {run.elapsed_s:.1f} s\n", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
