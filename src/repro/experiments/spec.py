"""The :class:`ExperimentSpec` descriptor and the :class:`ExperimentRun` envelope.

The registry holds two kinds of frozen declaration.  A sweep -- a grid of
seeded scenarios reduced to a table, which is every paper figure -- is a
:class:`repro.experiments.sweep.SweepExperiment`: it declares axes, a label
and a scenario function, a container and a table, and its run, capabilities
and exporter are derived.  Anything else (the in-process ``adapter-redis``
model) is an :class:`ExperimentSpec`: a run callable, the reporter that
renders its result, the default and quick-mode parameter sets and an exporter
binding, with no sweep-wide capability.

Both are frozen dataclasses whose callable fields are module-level functions
(pickled by reference), mirroring :class:`repro.protocols.ProtocolSpec`; the
CLI, the ``all`` runner, the export path and the docs table read whichever
the registry holds through the same attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.common.errors import ConfigurationError
from repro.common.frozen import FrozenDict

__all__ = [
    "CAPABILITIES",
    "DeclaredParameters",
    "EXPORT_KINDS",
    "ExperimentRun",
    "ExperimentSpec",
    "ExporterBinding",
    "Reporter",
    "RunCallable",
    "validate_experiment_name",
]

#: Executes the experiment.  Must be a module-level callable accepting keyword
#: arguments: always ``runs`` and ``seed``; ``progress`` and ``workers`` when
#: the spec declares ``supports_workers``; plus every key of the spec's
#: parameter set.
RunCallable = Callable[..., object]

#: Renders a run's result object as the plain-text report the CLI prints.
Reporter = Callable[[object], str]

#: The sweep-wide options a sweep can understand, in CLI order, each with the
#: CLI flag that supplies it (the one spelling the parser and every
#: "not supported" message use); which of them a sweep understands is derived
#: from its declaration (see
#: :attr:`repro.experiments.sweep.SweepExperiment.capabilities`).
#: ``scenario`` names a network condition from :mod:`repro.cluster.catalog`,
#: ``protocols`` replaces the swept protocols, ``plan`` names a chaos plan.
#: ``checkpoint`` accepts a directory in which the sweep persists completed
#: chunks so a killed run resumes bit-identically.  ``trace`` accepts a
#: directory into which the sweep archives one traced episode per scenario
#: label as JSONL (see :func:`repro.obs.trace.archive_election_traces`).
CAPABILITIES = {
    "scenario": "--scenario",
    "protocols": "--protocols",
    "plan": "--plan",
    "checkpoint": "--checkpoint",
    "trace": "--trace-out",
}

#: How an exporter binding's extracted payload is persisted:
#: ``"election"`` -- a mapping of label -> :class:`~repro.metrics.records.MeasurementSet`;
#: ``"availability"`` -- a mapping of label -> :class:`~repro.metrics.records.AvailabilitySet`;
#: ``"rows"`` -- a flat sequence of scalar-valued dicts (aggregate cells).
EXPORT_KINDS = ("election", "availability", "rows")


@dataclass(frozen=True)
class ExporterBinding:
    """How one experiment's result is reduced to a persistable payload.

    Attributes:
        kind: one of :data:`EXPORT_KINDS`; selects the CSV/JSON writers.
        extract: module-level function mapping the experiment's result object
            to the payload the *kind*'s writers accept.
    """

    kind: str
    extract: Callable[[object], object]

    def __post_init__(self) -> None:
        if self.kind not in EXPORT_KINDS:
            raise ConfigurationError(
                f"exporter kind {self.kind!r} must be one of {EXPORT_KINDS}"
            )
        if not callable(self.extract):
            raise ConfigurationError("exporter extract must be callable")


def validate_experiment_name(name: str) -> None:
    """Reject names the export path (``<name>.csv``) cannot carry.

    What the CLI cannot carry (whitespace, commas) the registry rejects, as
    it does for every kind of spec.
    """
    if "/" in name or "\\" in name or ".." in name:
        raise ConfigurationError(
            f"experiment name {name!r} must not contain path separators or '..'"
        )


class DeclaredParameters:
    """What both declaration kinds share: ``params`` resolved for one run."""

    name: str
    params: Mapping[str, object]
    quick_params: Mapping[str, object]

    def resolved_params(
        self, quick: bool = False, **overrides: object
    ) -> dict[str, object]:
        """The parameter set a run with these settings receives.

        Raises:
            ConfigurationError: listing the declared parameters when an
                override names an unknown one.
        """
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise ConfigurationError(
                f"experiment {self.name!r} has no parameter(s) "
                f"{', '.join(sorted(repr(key) for key in unknown))}; "
                f"declared: {', '.join(sorted(self.params)) or '(none)'}"
            )
        resolved = dict(self.params)
        if quick:
            resolved.update(self.quick_params)
        resolved.update(overrides)
        return resolved


@dataclass(frozen=True)
class ExperimentSpec(DeclaredParameters):
    """Descriptor for one registered experiment that is not a sweep.

    Attributes:
        name: registry key, CLI name and export file stem (e.g.
            ``"adapter-redis"``); must be free of path syntax.
        title: display label used in the registry table.
        paper_ref: the paper figure/section this experiment reproduces
            (``"--"`` for extensions the paper only implies).
        description: one-line summary shown in ``--list`` help output.
        run: the run callable (see :data:`RunCallable`).
        reporter: renders the result as the report the CLI prints.
        default_runs: the run count ``run_experiment`` uses when the caller
            does not pass one (the module's documented default).
        params: default parameter set forwarded to *run* as keyword
            arguments; the only keys ``run_experiment`` accepts as overrides.
        quick_params: overrides applied on top of *params* in quick mode
            (must be a subset of *params*' keys).
        supports_workers: whether *run* takes the sweep engine's
            ``progress``/``workers`` keywords; ``False`` for in-process
            models that would only pay pool start-up (the CLI notes that
            ``--workers`` is ignored).
        min_runs: optional floor on the run count (e.g. the Redis adapter
            needs enough runs for stable collision rates); requests below it
            are raised with a note in the envelope.
        exporter: binding consumed by the generic export path; every
            built-in experiment has one so ``--output DIR`` works uniformly.
    """

    name: str
    title: str
    run: RunCallable
    reporter: Reporter
    paper_ref: str = "--"
    description: str = ""
    default_runs: int = 30
    params: Mapping[str, object] = field(default_factory=FrozenDict)
    quick_params: Mapping[str, object] = field(default_factory=FrozenDict)
    supports_workers: bool = True
    min_runs: int | None = None
    exporter: ExporterBinding | None = None

    #: A plain spec understands no sweep-wide option.
    capabilities = ()

    def __post_init__(self) -> None:
        validate_experiment_name(self.name)
        if not callable(self.run) or not callable(self.reporter):
            raise ConfigurationError(
                f"experiment {self.name!r} needs callable run and reporter"
            )
        if self.default_runs < 1:
            raise ConfigurationError(
                f"experiment {self.name!r}: default_runs must be >= 1"
            )
        if self.min_runs is not None and self.min_runs < 1:
            raise ConfigurationError(
                f"experiment {self.name!r}: min_runs must be >= 1"
            )
        # Freeze the parameter mappings: a caller-held dict cannot mutate the
        # spec after registration, and the spec stays hashable/picklable for
        # the sweep engine's process pool (the lint S1 contract).
        object.__setattr__(self, "params", FrozenDict(self.params))
        object.__setattr__(self, "quick_params", FrozenDict(self.quick_params))
        stray = set(self.quick_params) - set(self.params)
        if stray:
            raise ConfigurationError(
                f"experiment {self.name!r}: quick_params {sorted(stray)} do "
                "not override any declared default parameter"
            )


@dataclass(frozen=True)
class ExperimentRun:
    """Structured envelope returned by one programmatic experiment run.

    Everything is plain data (the raw result object, the rendered report and
    the run metadata), so envelopes pickle cleanly and can be archived next
    to the exported measurements.
    """

    name: str
    title: str
    result: object
    report: str
    runs: int
    seed: int
    quick: bool
    workers: int | None
    elapsed_s: float
    parameters: Mapping[str, object] = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    #: The resolved simulation engine the run executed on (engines are
    #: bit-identical by contract, so this is provenance for the *timing*
    #: metadata, never for the results).
    engine: str = "flat"
    #: Wall-clock seconds per pipeline phase (``build``/``sweep``/``report``)
    #: recorded by :class:`repro.obs.profiling.Profiler`; timing metadata
    #: only, like ``elapsed_s`` (which equals the ``sweep`` phase).
    profile: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameters", dict(self.parameters))
        object.__setattr__(self, "profile", dict(self.profile))

    def metadata(self) -> dict[str, object]:
        """The run's metadata as one JSON-friendly dict (export headers)."""
        return {
            "experiment": self.name,
            "title": self.title,
            "runs": self.runs,
            "seed": self.seed,
            "quick": self.quick,
            "workers": self.workers,
            "engine": self.engine,
            "elapsed_s": round(self.elapsed_s, 3),
            "profile": {
                phase: round(seconds, 3)
                for phase, seconds in self.profile.items()
            },
            "parameters": {
                key: value for key, value in sorted(self.parameters.items())
            },
            "notes": list(self.notes),
        }
