"""Figure 10: election time under 0/1/2/3 phases of competing candidates.

Setup (Section VI-C): clusters of 8, 16, 32, 64 and 128 servers are driven
into a controlled number of competing-candidate phases.  The harness forces
the contention by giving every follower the same scripted election timeout for
its first *k* waits (the canonical cause of a split vote); ESCAPE, under the
*same* simultaneous timeouts, resolves the collision in a single campaign
because priorities scatter the campaigns into different terms.

The paper reports that Raft's election time grows roughly linearly with the
number of forced phases (≈ phases x election timeout, about 6.5-7.5 s at three
phases) while ESCAPE stays under 2 s regardless, a reduction of 44.9 %, 64.2 %
and 74.3 % under one, two and three phases in the 128-server cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import protocols as protocol_registry
from repro.cluster.scenarios import ElectionScenario
from repro.experiments.base import ProgressCallback
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec, ExporterBinding
from repro.metrics.records import MeasurementSet
from repro.metrics.stats import reduction_percent
from repro.metrics.tables import render_table

#: Cluster sizes evaluated by the paper.
PAPER_SIZES: tuple[int, ...] = (8, 16, 32, 64, 128)

#: Numbers of forced competing-candidate phases.
PAPER_PHASES: tuple[int, ...] = (0, 1, 2, 3)

#: The protocols compared in Figure 10 (validated against the registry).
PROTOCOLS: tuple[str, ...] = protocol_registry.RAFT_VS_ESCAPE


@dataclass(frozen=True)
class CompetingCandidatesResult:
    """Measurements per (protocol, cluster size, forced phases)."""

    sizes: tuple[int, ...]
    phases: tuple[int, ...]
    runs: int
    by_label: Mapping[str, MeasurementSet]
    protocols: tuple[str, ...] = PROTOCOLS

    def measurements_for(self, protocol: str, size: int, phases: int) -> MeasurementSet:
        """Measurements for one cell of Figure 10."""
        return self.by_label[cell_label(protocol, size, phases)]

    def average_for(self, protocol: str, size: int, phases: int) -> float:
        """Average total election time for one cell."""
        return self.measurements_for(protocol, size, phases).mean_total_ms()

    def detection_election_for(
        self, protocol: str, size: int, phases: int
    ) -> tuple[float, float]:
        """Average (detection, election) decomposition for one cell."""
        measurements = self.measurements_for(protocol, size, phases).converged
        detections = measurements.detections_ms()
        elections = measurements.elections_ms()
        return (
            sum(detections) / len(detections),
            sum(elections) / len(elections),
        )

    def reduction_for(self, size: int, phases: int) -> float:
        """ESCAPE's percentage reduction vs Raft for one (size, phases) cell."""
        return reduction_percent(
            self.average_for("raft", size, phases),
            self.average_for("escape", size, phases),
        )


def cell_label(protocol: str, size: int, phases: int) -> str:
    """Label for one cell, e.g. ``"raft@32/2cc"``."""
    return f"{protocol}@{size}/{phases}cc"


def build_scenarios(
    sizes: Sequence[int] = PAPER_SIZES,
    phases: Sequence[int] = PAPER_PHASES,
    protocols: Sequence[str] = PROTOCOLS,
) -> dict[str, ElectionScenario]:
    """One scenario per (protocol, size, phases) cell."""
    scenarios: dict[str, ElectionScenario] = {}
    for size in sizes:
        for phase_count in phases:
            for protocol in protocols:
                scenarios[cell_label(protocol, size, phase_count)] = ElectionScenario(
                    protocol=protocol,
                    cluster_size=size,
                    contention_phases=phase_count,
                )
    return scenarios


def run(
    runs: int = 30,
    seed: int = 0,
    sizes: Sequence[int] = PAPER_SIZES,
    phases: Sequence[int] = PAPER_PHASES,
    protocols: Sequence[str] = PROTOCOLS,
    progress: ProgressCallback | None = None,
    workers: int | None = 1,
) -> CompetingCandidatesResult:
    """Execute the Figure 10 sweep (optionally fanned out over *workers*)."""
    from repro.experiments.runner import run_sweep

    scenarios = build_scenarios(sizes, phases, protocols)
    by_label = run_sweep(
        scenarios, runs=runs, seed=seed, progress=progress, workers=workers
    )
    return CompetingCandidatesResult(
        sizes=tuple(sizes),
        phases=tuple(phases),
        runs=runs,
        by_label=by_label,
        protocols=tuple(protocols),
    )


def report(result: CompetingCandidatesResult) -> str:
    """Render detection/election breakdown per (size, phases) cell.

    Columns adapt to the protocols actually swept (display labels come from
    the protocol registry); the reduction column only appears when both Raft
    and ESCAPE are present.
    """
    with_reduction = {"raft", "escape"} <= set(result.protocols)
    headers: list[str] = ["servers", "C.C. phases"]
    for protocol in result.protocols:
        label = protocol_registry.title(protocol)
        headers += [
            f"{label} detect (ms)",
            f"{label} elect (ms)",
            f"{label} total (ms)",
        ]
    if with_reduction:
        headers.append("reduction")
    rows = []
    for size in result.sizes:
        for phase_count in result.phases:
            row: list[object] = [size, phase_count]
            for protocol in result.protocols:
                detection, election = result.detection_election_for(
                    protocol, size, phase_count
                )
                row += [
                    f"{detection:.0f}",
                    f"{election:.0f}",
                    f"{result.average_for(protocol, size, phase_count):.0f}",
                ]
            if with_reduction:
                row.append(f"{result.reduction_for(size, phase_count):.1f}%")
            rows.append(row)
    return render_table(
        headers=headers,
        rows=rows,
        title=(
            "Figure 10 — election time under forced competing-candidate phases "
            f"({result.runs} runs per cell)"
        ),
    )


def _export_measurements(
    result: CompetingCandidatesResult,
) -> Mapping[str, MeasurementSet]:
    """Exporter binding: the per-(protocol, size, phases) measurement sets."""
    return result.by_label


SPEC = register(
    ExperimentSpec(
        name="fig10",
        title="Election time under forced competing-candidate phases",
        paper_ref="Figure 10 / Section VI-C",
        description=(
            "scripted simultaneous timeouts force 0-3 split-vote phases; "
            "Raft pays ~one timeout per phase, ESCAPE stays flat"
        ),
        run=run,
        reporter=report,
        default_runs=30,
        params={"sizes": PAPER_SIZES, "phases": PAPER_PHASES},
        quick_params={"sizes": (8, 16)},
        supports_protocols=True,
        exporter=ExporterBinding(kind="election", extract=_export_measurements),
    )
)
