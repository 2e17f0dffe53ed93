"""The :class:`ExperimentSpec` descriptor and the :class:`ExperimentRun` envelope.

A spec bundles everything the rest of the codebase needs to know about one
experiment: a uniform run callable, the reporter that renders its result, the
default and quick-mode parameter sets, which sweep-wide options it understands
(``--scenario`` / ``--protocols`` / ``--plan``), and how its result is
persisted (the exporter binding consumed by
:func:`repro.experiments.export.save_run`).

Specs are frozen dataclasses whose callable fields are module-level functions
(pickled by reference), mirroring :class:`repro.protocols.ProtocolSpec`:
registering an eleventh experiment is a one-module change and the CLI, the
``all`` runner, the export path and the docs table pick it up automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.common.errors import ConfigurationError
from repro.common.frozen import FrozenDict

__all__ = [
    "CAPABILITIES",
    "EXPORT_KINDS",
    "ExperimentRun",
    "ExperimentSpec",
    "ExporterBinding",
    "Reporter",
    "RunCallable",
]

#: Executes the sweep.  Must be a module-level callable accepting keyword
#: arguments: always ``runs`` and ``seed``; ``progress`` and ``workers`` when
#: the spec declares ``supports_workers``; ``scenario`` / ``protocols`` /
#: ``plan`` when the corresponding capability flag is set (and the caller
#: supplied one); plus every key of the spec's parameter set.
RunCallable = Callable[..., object]

#: Renders a run's result object as the plain-text report the CLI prints.
Reporter = Callable[[object], str]

#: The sweep-wide options an experiment can opt into, in CLI order.
#: ``checkpoint`` accepts a directory (CLI ``--checkpoint``) in which the
#: sweep persists completed chunks so a killed run resumes bit-identically.
#: ``trace`` accepts a directory (CLI ``--trace-out``) into which the
#: experiment archives one traced episode per scenario label as JSONL (see
#: :func:`repro.obs.trace.archive_election_traces`).
CAPABILITIES = ("scenario", "protocols", "plan", "checkpoint", "trace")

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


@dataclass(frozen=True)
class ExperimentSpec:
    """Descriptor for one registered experiment.

    Attributes:
        name: registry key and CLI name (e.g. ``"fig9"``); must be non-empty
            and free of whitespace and commas.
        title: display label used in the registry table.
        paper_ref: the paper figure/section this experiment reproduces
            (``"--"`` for extensions the paper only implies).
        description: one-line summary shown in ``--list`` help output.
        run: the uniform run callable (see :data:`RunCallable`).
        reporter: renders the result as the report the CLI prints.
        default_runs: the run count ``run_experiment`` uses when the caller
            does not pass one (the module's documented default).
        params: default parameter set forwarded to *run* as keyword
            arguments; the only keys ``run_experiment`` accepts as overrides.
        quick_params: overrides applied on top of *params* in quick mode
            (must be a subset of *params*' keys).
        supports_scenario: understands the ``scenario`` keyword (a named
            network condition from :mod:`repro.cluster.catalog`).
        supports_protocols: understands the ``protocols`` keyword (names
            from :mod:`repro.protocols`).
        supports_plan: understands the ``plan`` keyword (a chaos plan from
            :data:`repro.chaos.plans.CHAOS_CATALOG`).
        supports_checkpoint: understands the ``checkpoint`` keyword (CLI
            ``--checkpoint DIR``): the experiment sweeps into a container
            with ``to_state``/``from_state``, so the sweep is resumable from
            a JSON-lines checkpoint (see :mod:`repro.experiments.runner`).
        supports_trace: understands the ``trace_out`` keyword (CLI
            ``--trace-out DIR``): after the sweep the experiment archives
            one traced episode per label as JSONL plus a manifest and
            telemetry snapshots (see :mod:`repro.obs.trace`).
        supports_workers: whether *run* takes the sweep engine's
            ``progress``/``workers`` keywords; ``False`` for in-process
            models that would only pay pool start-up (the CLI notes that
            ``--workers`` is ignored).
        min_runs: optional floor on the run count (e.g. the Redis adapter
            needs enough runs for stable collision rates); requests below it
            are raised with a note in the envelope.
        capability_overrides: which declared parameter a capability value
            supersedes at run time (e.g. ``{"scenario": "conditions"}`` for
            the WAN experiment, whose adapter narrows the condition grid to
            the one named scenario) -- the run envelope's recorded
            parameters drop the superseded default so archived metadata
            never claims a grid the run did not execute.
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
    supports_scenario: bool = False
    supports_protocols: bool = False
    supports_plan: bool = False
    supports_checkpoint: bool = False
    supports_trace: bool = False
    supports_workers: bool = True
    min_runs: int | None = None
    capability_overrides: Mapping[str, str] = field(default_factory=FrozenDict)
    exporter: ExporterBinding | None = None

    def __post_init__(self) -> None:
        if not self.name or any(ch.isspace() or ch == "," for ch in self.name):
            raise ConfigurationError(
                f"experiment name {self.name!r} must be non-empty and free of "
                "whitespace and commas"
            )
        # Names become file names in the generic export path (--output DIR
        # writes <name>.csv etc.), so path syntax is rejected outright.
        if "/" in self.name or "\\" in self.name or ".." in self.name:
            raise ConfigurationError(
                f"experiment name {self.name!r} must not contain path "
                "separators or '..'"
            )
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
        object.__setattr__(
            self, "capability_overrides", FrozenDict(self.capability_overrides)
        )
        stray = set(self.quick_params) - set(self.params)
        if stray:
            raise ConfigurationError(
                f"experiment {self.name!r}: quick_params {sorted(stray)} do "
                "not override any declared default parameter"
            )
        for option, superseded in self.capability_overrides.items():
            if option not in CAPABILITIES:
                raise ConfigurationError(
                    f"experiment {self.name!r}: capability_overrides key "
                    f"{option!r} is not one of {CAPABILITIES}"
                )
            if superseded not in self.params:
                raise ConfigurationError(
                    f"experiment {self.name!r}: capability_overrides[{option!r}] "
                    f"names unknown parameter {superseded!r}"
                )

    @property
    def capabilities(self) -> tuple[str, ...]:
        """The sweep-wide options this spec opted into, in CLI order."""
        return tuple(
            option
            for option in CAPABILITIES
            if getattr(self, f"supports_{option}")
        )

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
