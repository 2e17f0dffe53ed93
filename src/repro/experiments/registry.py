"""The experiment registry and the one programmatic entry point.

Mirrors :mod:`repro.protocols`: every experiment module registers one frozen
:class:`~repro.experiments.sweep.SweepExperiment` at import time and the
registry stores that declaration itself.  Everything else consumes it: the
CLI derives its choices, help text, capability validation and quick-mode
overrides from it; the ``all`` runner iterates :func:`names`; ``--output``
archives any result by its declared container
(:mod:`repro.experiments.export`); EXPERIMENTS.md embeds
:func:`registry_table_markdown`.

The programmatic surface is :func:`run_experiment`::

    from repro.experiments import run_experiment

    run = run_experiment("fig9", runs=100, workers=0, sizes=(8, 16))
    print(run.report)            # the table the CLI prints
    run.result.cell(protocol="escape", size=16).mean_total_ms()
    run.elapsed_s, run.parameters          # run metadata

It resolves the declaration, applies quick-mode and caller overrides to the
declared parameter set, validates the sweep-wide options against the derived
capabilities, builds the scenario grid, runs it, renders the report, and wraps
everything in a picklable :class:`~repro.experiments.spec.ExperimentRun`
envelope.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import ConfigurationError
from repro.common.registry import Registry
from repro.obs.profiling import Profiler
from repro.obs.trace import archive_election_traces
from repro.sim import engines as engine_registry
from repro.experiments.spec import CAPABILITIES, ExperimentRun
from repro.experiments.sweep import (
    GridResult,
    SweepExperiment,
    validate_sweep_protocols,
)
from repro.metrics.tables import render_table

__all__ = [
    "CAPABILITIES",
    "get",
    "items",
    "names",
    "register",
    "registry_table",
    "registry_table_markdown",
    "run_experiment",
    "supporting",
    "unsupported_option_message",
    "validate_sweep_protocols",
]

_REGISTRY: Registry[SweepExperiment] = Registry("experiment")

register = _REGISTRY.register
get = _REGISTRY.get
names = _REGISTRY.names
items = _REGISTRY.items


def supporting(option: str) -> tuple[str, ...]:
    """The registered experiments that understand one sweep-wide *option*."""
    if option not in CAPABILITIES:
        raise ConfigurationError(
            f"unknown capability {option!r}; capabilities: "
            f"{', '.join(CAPABILITIES)}"
        )
    return tuple(name for name, spec in items() if option in spec.capabilities)


def unsupported_option_message(
    option: str, experiment_names: Sequence[str]
) -> str | None:
    """CLI-style error for capability *option* given to unsupporting experiments.

    Returns ``None`` when every experiment in *experiment_names* supports the
    option, otherwise the registry-derived message the CLI (and
    :func:`run_experiment`) report, naming the option's real CLI flag.
    """
    supported = supporting(option)
    unsupported = [
        name for name in experiment_names if name not in supported
    ]
    if not unsupported:
        return None
    return (
        f"{CAPABILITIES[option]} is not supported by: {', '.join(unsupported)} "
        f"(supported: {', '.join(sorted(supported))})"
    )


def run_experiment(
    name: str,
    *,
    runs: int | None = None,
    seed: int = 0,
    quick: bool = False,
    workers: int | None = 1,
    progress=None,
    scenario: str | None = None,
    protocols: Sequence[str] | None = None,
    plan: str | None = None,
    checkpoint: str | None = None,
    trace: str | None = None,
    engine: str | None = None,
    **param_overrides: object,
) -> ExperimentRun:
    """Run one registered experiment and return its structured envelope.

    Args:
        name: a registered experiment name (see :func:`names`).
        runs: independent runs per data point; ``None`` uses the spec's
            default.
        seed: root random seed (results are deterministic per seed).
        quick: apply the spec's quick-mode parameter overrides (small
            cluster sizes / short horizons for smoke passes).
        workers: sweep-engine worker processes (``None`` = one per CPU).
        progress: optional progress callback forwarded to the sweep engine.
        scenario: named network condition (scenario-capable experiments).
        protocols: protocol names replacing the experiment's default
            comparison (protocol-capable experiments).
        plan: named chaos plan (plan-capable experiments).
        checkpoint: directory for the sweep's JSON-lines chunk checkpoint
            (checkpoint-capable experiments); a killed run re-invoked with
            the same checkpoint resumes bit-identically.
        trace: directory into which trace-capable experiments archive one
            traced episode per scenario label (JSONL + manifest + telemetry
            snapshots; see :func:`repro.obs.trace.archive_election_traces`).
        engine: simulation engine name from :mod:`repro.sim.engines`
            (``None`` means ``flat``).  Engines are bit-identical by
            contract, so this changes wall-clock time only.  The name is
            stamped onto every scenario of the built grid
            (``scenario.with_engine``) -- so sweep workers, the checkpoint
            fingerprint and the trace archive all read it off the scenario
            -- and recorded on the returned envelope.
        **param_overrides: overrides for the spec's declared parameters
            (e.g. ``sizes=(8, 16)`` for ``fig9``).

    Raises:
        ConfigurationError: for unknown experiments or engines, a run count
            below 1, unsupported sweep-wide options, unknown parameter
            overrides, or unsweepable protocols.
    """
    spec = get(name)
    if runs is not None and runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {runs}")
    engine_name = engine_registry.resolve(engine).name
    # The sweep-wide options the caller actually supplied, by capability.
    options = {
        "scenario": scenario,
        "protocols": None if protocols is None else tuple(protocols),
        "plan": plan,
        "checkpoint": checkpoint,
        "trace": trace,
    }
    supplied = {option: value for option, value in options.items() if value is not None}
    for option in supplied:
        if option not in spec.capabilities:
            raise ConfigurationError(unsupported_option_message(option, [name]))

    profiler = Profiler()
    resolved_runs = spec.default_runs if runs is None else runs

    # Phase timings are run *metadata* (how long each stage took on this
    # machine), never an input to the simulation; the Profiler lives in the
    # wall-clock-allowlisted repro.obs.profiling module.  ``build`` covers the
    # whole scenario grid (so a bad condition, plan or workload name fails
    # before any worker starts); elapsed_s keeps its historical meaning: the
    # sweep itself, excluding the traced re-runs and report rendering.
    with profiler.phase("build"):
        params = spec.resolved_params(quick=quick, **param_overrides)
        axes, context, scenarios = spec.build(
            params, seed, scenario=scenario, protocols=protocols, plan=plan
        )
        scenarios = {
            label: built.with_engine(engine_name)
            for label, built in scenarios.items()
        }
        # The archived metadata must not claim a grid the run never
        # executed: an axis a capability value narrowed is dropped.
        for axis in spec.axes:
            if axis.narrowed_by in supplied:
                del params[axis.name]
    with profiler.phase("sweep"):
        # Imported here so --list and the registry never load
        # multiprocessing.
        from repro.experiments.runner import run_sweep

        by_label = run_sweep(
            scenarios,
            runs=resolved_runs,
            seed=seed,
            progress=progress,
            workers=workers,
            container=spec.container,
            checkpoint=checkpoint,
        )
        result = GridResult(axes, resolved_runs, by_label, context, spec.label)
    if trace is not None:
        with profiler.phase("trace"):
            archive_election_traces(scenarios, seed, trace)
    with profiler.phase("report"):
        report = spec.reporter(result)
    elapsed_s = profiler.elapsed("sweep")

    # Recorded provenance: the resolved parameters, plus the capability
    # values that were actually passed.
    parameters = dict(params, **supplied)
    return ExperimentRun(
        name=name,
        title=spec.title,
        result=result,
        report=report,
        runs=resolved_runs,
        seed=seed,
        quick=quick,
        workers=workers,
        elapsed_s=elapsed_s,
        parameters=parameters,
        engine=engine_name,
        profile=profiler.snapshot(),
    )


# ---------------------------------------------------------------------- #
# Registry tables (--list, EXPERIMENTS.md)
# ---------------------------------------------------------------------- #
#: Column headers shared by the --list table and the Markdown docs table.
_TABLE_HEADERS = (
    "name",
    "title",
    "paper ref",
    "capabilities",
    "default runs",
    "quick overrides",
)


def _params_cell(params) -> str:
    if not params:
        return "-"
    return ", ".join(f"{key}={value!r}" for key, value in sorted(params.items()))


def _table_rows() -> list[list[str]]:
    """One row of cells per registered spec (shared by both renderers)."""
    return [
        [
            spec.name,
            spec.title,
            spec.paper_ref,
            ", ".join(spec.capabilities) or "-",
            str(spec.default_runs),
            _params_cell(spec.quick_params),
        ]
        for _, spec in items()
    ]


def registry_table() -> str:
    """The plain-text registry table printed by ``--list``."""
    rows = _table_rows()
    return render_table(
        headers=list(_TABLE_HEADERS),
        rows=rows,
        title=f"Registered experiments ({len(rows)})",
    )


def registry_table_markdown() -> str:  # repro: allow[U1] -- test pins EXPERIMENTS.md
    """The registry as a Markdown table (embedded in EXPERIMENTS.md).

    A test pins the EXPERIMENTS.md copy against this output, so the docs
    cannot drift from the registry.
    """
    lines = [
        "| " + " | ".join(_TABLE_HEADERS) + " |",
        "| " + " | ".join("---" for _ in _TABLE_HEADERS) + " |",
    ]
    for name, *cells in _table_rows():
        escaped = [cell.replace("|", "\\|") for cell in cells]
        lines.append("| " + " | ".join([f"`{name}`", *escaped]) + " |")
    return "\n".join(lines)
