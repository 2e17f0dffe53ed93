"""The experiment registry and the one programmatic entry point.

Mirrors :mod:`repro.protocols`: every experiment module registers a frozen
:class:`~repro.experiments.spec.ExperimentSpec` at import time, and everything
that used to hard-code the experiment list consumes the registry instead --
the CLI derives its choices, help text, capability validation and quick-mode
overrides from it; the ``all`` runner iterates :func:`names`; ``--output``
persists any result through the spec's exporter binding; EXPERIMENTS.md
embeds :func:`registry_table_markdown`.

The programmatic surface is :func:`run_experiment`::

    from repro.experiments import run_experiment

    run = run_experiment("fig9", runs=100, workers=0, sizes=(8, 16))
    print(run.report)            # the table the CLI prints
    run.result.average_for("escape", 16)   # the raw result object
    run.elapsed_s, run.parameters          # run metadata

It resolves the spec, applies quick-mode and caller overrides to the declared
parameter set, validates the sweep-wide options against the spec's capability
flags (and protocol names against :mod:`repro.protocols`), executes the run,
and wraps everything in a picklable
:class:`~repro.experiments.spec.ExperimentRun` envelope.
"""

from __future__ import annotations

from typing import Sequence

from repro import protocols as protocol_registry
from repro.common.errors import ConfigurationError
from repro.obs.profiling import Profiler
from repro.sim import engines as engine_registry
from repro.experiments.spec import (
    CAPABILITIES,
    ExperimentRun,
    ExperimentSpec,
)
from repro.metrics.tables import render_table

__all__ = [
    "CAPABILITIES",
    "get",
    "is_registered",
    "names",
    "register",
    "registered_specs",
    "registry_table",
    "registry_table_markdown",
    "run_experiment",
    "specs",
    "supporting",
    "titles",
    "unregister",
    "unsupported_option_message",
    "validate_sweep_protocols",
]

_REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec, *, replace: bool = False) -> ExperimentSpec:
    """Register *spec* under its name and return it.

    Args:
        spec: the experiment descriptor.
        replace: allow overwriting an existing registration (tests and
            notebooks re-registering tweaked variants).

    Raises:
        ConfigurationError: when the name is already registered and *replace*
            is false.
    """
    if spec.name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"experiment {spec.name!r} is already registered; "
            "pass replace=True to overwrite it"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> ExperimentSpec:
    """Remove a registration (plugin teardown, test hygiene) and return it."""
    spec = get(name)
    del _REGISTRY[name]
    return spec


def get(name: str) -> ExperimentSpec:
    """The spec registered under *name*.

    Raises:
        ConfigurationError: listing every registered name when *name* is
            unknown.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; registered: {', '.join(_REGISTRY)}"
        ) from None


def is_registered(name: str) -> bool:
    """Whether *name* is a registered experiment."""
    return name in _REGISTRY


def names() -> tuple[str, ...]:
    """Every registered experiment name, in registration order."""
    return tuple(_REGISTRY)


def specs() -> tuple[ExperimentSpec, ...]:
    """Every registered spec, in registration order."""
    return tuple(_REGISTRY.values())


def registered_specs() -> tuple[tuple[str, ExperimentSpec], ...]:
    """``(name, spec)`` pairs for introspection tooling (``repro.lint`` S1/S2)."""
    return tuple(_REGISTRY.items())


def titles() -> dict[str, str]:
    """Mapping of every registered name to its display title."""
    return {name: spec.title for name, spec in _REGISTRY.items()}


def supporting(option: str) -> tuple[str, ...]:
    """The registered experiments that understand one sweep-wide *option*."""
    if option not in CAPABILITIES:
        raise ConfigurationError(
            f"unknown capability {option!r}; capabilities: "
            f"{', '.join(CAPABILITIES)}"
        )
    return tuple(
        name
        for name, spec in _REGISTRY.items()
        if getattr(spec, f"supports_{option}")
    )


def unsupported_option_message(
    option: str, experiment_names: Sequence[str]
) -> str | None:
    """CLI-style error for ``--<option>`` given to unsupporting experiments.

    Returns ``None`` when every experiment in *experiment_names* supports the
    option, otherwise the registry-derived message the CLI (and
    :func:`run_experiment`) report.
    """
    supported = supporting(option)
    unsupported = [
        name for name in experiment_names if name not in supported
    ]
    if not unsupported:
        return None
    return (
        f"--{option} is not supported by: {', '.join(unsupported)} "
        f"(supported: {', '.join(sorted(supported))})"
    )


def validate_sweep_protocols(protocol_names: Sequence[str]) -> tuple[str, ...]:
    """Check *protocol_names* can run in an experiment sweep.

    Every experiment stabilises a leader before measuring, so beyond being
    registered in :mod:`repro.protocols` each protocol must guarantee
    liveness (``raft-fixed`` livelocks by design and can only abort a sweep).

    Raises:
        ConfigurationError: naming the offending protocol, with the list of
            registered (or sweepable) ones.
    """
    sweepable = [
        spec.name
        for spec in protocol_registry.specs()
        if spec.guarantees_liveness
    ]
    for name in protocol_names:
        if not protocol_registry.is_registered(name):
            raise ConfigurationError(
                f"unknown protocol {name!r}; registered: "
                f"{', '.join(protocol_registry.names())}"
            )
        if not protocol_registry.get(name).guarantees_liveness:
            raise ConfigurationError(
                f"protocol {name!r} does not guarantee leader election (it "
                "livelocks by design) and cannot run in an experiment sweep; "
                f"sweepable protocols: {', '.join(sweepable)}"
            )
    return tuple(protocol_names)


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
            default (raised to the spec's ``min_runs`` floor, with a note).
        seed: root random seed (results are deterministic per seed).
        quick: apply the spec's quick-mode parameter overrides (small
            cluster sizes / short horizons for smoke passes).
        workers: sweep-engine worker processes (``None`` = one per CPU);
            ignored, with a note, by specs that do not support workers.
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
            (``None`` keeps the process default).  Engines are bit-identical
            by contract, so this changes wall-clock time only; the resolved
            name is recorded on the returned envelope.  The selection is
            installed as the process default for the duration of the run, so
            sweep workers and scenario builds inherit it.
        **param_overrides: overrides for the spec's declared parameters
            (e.g. ``sizes=(8, 16)`` for ``fig9``).

    Raises:
        ConfigurationError: for unknown experiments, unsupported sweep-wide
            options, unknown parameter overrides, or unsweepable protocols.
    """
    spec = get(name)
    # The sweep-wide options the caller actually supplied, by capability.
    supplied = {
        option: value
        for option, value in (
            ("scenario", scenario),
            ("protocols", protocols),
            ("plan", plan),
            ("checkpoint", checkpoint),
            ("trace", trace),
        )
        if value is not None
    }
    for option in supplied:
        if not getattr(spec, f"supports_{option}"):
            raise ConfigurationError(
                unsupported_option_message(option, [name])
            )
    if protocols is not None:
        supplied["protocols"] = validate_sweep_protocols(tuple(protocols))

    profiler = Profiler()
    notes: list[str] = []
    resolved_runs = spec.default_runs if runs is None else runs
    if spec.min_runs is not None and resolved_runs < spec.min_runs:
        notes.append(
            f"runs raised from {resolved_runs} to {spec.min_runs} "
            f"({name} needs at least {spec.min_runs} runs for stable rates)"
        )
        resolved_runs = spec.min_runs
    if not spec.supports_workers and workers != 1:
        notes.append(
            f"--workers ignored ({name} runs in-process; a pool would only "
            "pay start-up cost)"
        )

    with profiler.phase("build"):
        params = spec.resolved_params(quick=quick, **param_overrides)
    call_kwargs: dict[str, object] = dict(params, runs=resolved_runs, seed=seed)
    if spec.supports_workers:
        call_kwargs["progress"] = progress
        call_kwargs["workers"] = workers
    call_kwargs.update(supplied)

    # Phase timings are run *metadata* (how long each stage took on this
    # machine), never an input to the simulation; the Profiler lives in the
    # wall-clock-allowlisted repro.obs.profiling module.  elapsed_s keeps its
    # historical meaning: the sweep itself, excluding report rendering.
    with profiler.phase("sweep"):
        with engine_registry.using_engine(engine) as resolved_engine:
            result = spec.run(**call_kwargs)
    with profiler.phase("report"):
        report = spec.reporter(result)
    elapsed_s = profiler.elapsed("sweep")

    # Recorded provenance: the declared defaults, with any parameter a
    # supplied capability value supersedes dropped (the archived metadata
    # must not claim a grid the run never executed), and capability values
    # recorded only when they were actually passed.
    parameters = dict(params)
    for option, value in supplied.items():
        superseded = spec.capability_overrides.get(option)
        if superseded is not None:
            parameters.pop(superseded, None)
        parameters[option] = value
    return ExperimentRun(
        name=name,
        title=spec.title,
        result=result,
        report=report,
        runs=resolved_runs,
        seed=seed,
        quick=quick,
        workers=workers if spec.supports_workers else None,
        elapsed_s=elapsed_s,
        parameters=parameters,
        notes=tuple(notes),
        engine=resolved_engine,
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


def _capabilities_cell(spec: ExperimentSpec) -> str:
    extras = list(spec.capabilities)
    if not spec.supports_workers:
        extras.append("no-workers")
    return ", ".join(extras) if extras else "-"


def _table_rows() -> list[list[str]]:
    """One row of cells per registered spec (shared by both renderers)."""
    rows = []
    for spec in specs():
        runs_cell = str(spec.default_runs)
        if spec.min_runs is not None:
            runs_cell += f" (min {spec.min_runs})"
        rows.append(
            [
                spec.name,
                spec.title,
                spec.paper_ref,
                _capabilities_cell(spec),
                runs_cell,
                _params_cell(spec.quick_params),
            ]
        )
    return rows


def registry_table() -> str:
    """The plain-text registry table printed by ``--list``."""
    rows = _table_rows()
    return render_table(
        headers=list(_TABLE_HEADERS),
        rows=rows,
        title=f"Registered experiments ({len(rows)})",
    )


def registry_table_markdown() -> str:
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
