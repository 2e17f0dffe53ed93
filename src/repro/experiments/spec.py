"""Around the one declaration kind: capabilities, the name check, the envelope.

The registry holds one kind of frozen declaration, the
:class:`repro.experiments.sweep.SweepExperiment` -- a grid of seeded scenarios
reduced to a table, which is every paper figure and every extension.  This
module holds the data-only pieces around it: the sweep-wide
:data:`CAPABILITIES` a declaration may derive, the name check the export path
relies on, and the :class:`ExperimentRun` envelope one run returns.
"""

from __future__ import annotations

from dataclasses import field
from typing import Mapping

from repro.common.errors import ConfigurationError
from repro.common.frozen import value_object

__all__ = [
    "CAPABILITIES",
    "ExperimentRun",
    "validate_experiment_name",
]

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


def validate_experiment_name(name: str) -> None:
    """Reject names the export path (``<name>.csv``) cannot carry.

    What the CLI cannot carry (whitespace, commas) the registry rejects, as
    it does for every kind of spec.
    """
    if "/" in name or "\\" in name or ".." in name:
        raise ConfigurationError(
            f"experiment name {name!r} must not contain path separators or '..'"
        )


@value_object
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
        }
