"""Figure 9: ESCAPE vs Raft leader-election time at increasing cluster sizes.

Setup (Section VI-B): clusters of 8, 16, 32, 64 and 128 servers, 100-200 ms
latency, repeated leader crashes.  Raft uses the recommended 1500-3000 ms
timeout range; ESCAPE uses baseTime 1500 ms with k = 500 ms.  The paper plots
the CDF of the election time for each protocol and scale (left and middle
panels) plus the averages (right panel), and reports that ESCAPE finishes
every election under 2000 ms with no split votes, shortening the average
election time by 11.6 % (s=8) to 21.3 % (s=128).
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
from repro.metrics.stats import cumulative_distribution, reduction_percent, summarize
from repro.metrics.tables import render_table
from repro.obs.trace import archive_election_traces

#: Cluster sizes evaluated by the paper.
PAPER_SIZES: tuple[int, ...] = (8, 16, 32, 64, 128)

#: The protocols compared in Figure 9 (validated against the registry).
PROTOCOLS: tuple[str, ...] = protocol_registry.RAFT_VS_ESCAPE


@dataclass(frozen=True)
class ScaleResult:
    """Measurements per (protocol, cluster size)."""

    sizes: tuple[int, ...]
    runs: int
    by_label: Mapping[str, MeasurementSet]
    protocols: tuple[str, ...] = PROTOCOLS

    def measurements_for(self, protocol: str, size: int) -> MeasurementSet:
        """Measurements for one protocol at one scale."""
        return self.by_label[scale_label(protocol, size)]

    def cdf_for(self, protocol: str, size: int) -> list[tuple[float, float]]:
        """CDF series (left/middle panels of Figure 9)."""
        return cumulative_distribution(self.measurements_for(protocol, size).totals_ms())

    def average_for(self, protocol: str, size: int) -> float:
        """Average election time (right panel of Figure 9)."""
        return self.measurements_for(protocol, size).mean_total_ms()

    def reduction_for(self, size: int) -> float:
        """ESCAPE's percentage reduction vs Raft at one scale."""
        return reduction_percent(
            self.average_for("raft", size), self.average_for("escape", size)
        )


def scale_label(protocol: str, size: int) -> str:
    """Label for one protocol/scale cell, e.g. ``"escape@32"``."""
    return f"{protocol}@{size}"


def build_scenarios(
    sizes: Sequence[int] = PAPER_SIZES,
    protocols: Sequence[str] = PROTOCOLS,
) -> dict[str, ElectionScenario]:
    """One scenario per (protocol, size) cell of Figure 9."""
    scenarios: dict[str, ElectionScenario] = {}
    for size in sizes:
        for protocol in protocols:
            scenarios[scale_label(protocol, size)] = ElectionScenario(
                protocol=protocol, cluster_size=size
            )
    return scenarios


def run(
    runs: int = 50,
    seed: int = 0,
    sizes: Sequence[int] = PAPER_SIZES,
    protocols: Sequence[str] = PROTOCOLS,
    progress: ProgressCallback | None = None,
    workers: int | None = 1,
    trace: str | None = None,
) -> ScaleResult:
    """Execute the Figure 9 sweep (optionally fanned out over *workers*).

    With *trace* set to a directory, one traced episode per (protocol, size)
    cell is re-run afterwards and archived there as JSONL (plus telemetry
    snapshots); see :func:`repro.obs.trace.archive_election_traces`.
    """
    from repro.experiments.runner import run_sweep

    scenarios = build_scenarios(sizes, protocols)
    by_label = run_sweep(
        scenarios, runs=runs, seed=seed, progress=progress, workers=workers
    )
    if trace is not None:
        archive_election_traces(scenarios, seed, trace)
    return ScaleResult(
        sizes=tuple(sizes),
        runs=runs,
        by_label=by_label,
        protocols=tuple(protocols),
    )


def report(result: ScaleResult) -> str:
    """Render the averages, tail behaviour and split-vote rates per scale.

    Columns adapt to the protocols actually swept (display labels come from
    the protocol registry); the reduction column only appears when both Raft
    and ESCAPE are present.
    """
    with_reduction = {"raft", "escape"} <= set(result.protocols)
    labels = {
        protocol: protocol_registry.title(protocol)
        for protocol in result.protocols
    }
    headers = ["servers"]
    headers += [f"{labels[protocol]} mean (ms)" for protocol in result.protocols]
    if with_reduction:
        headers.append("reduction")
    headers += [f"{labels[protocol]} max (ms)" for protocol in result.protocols]
    headers += [f"{labels[protocol]} split votes" for protocol in result.protocols]
    rows = []
    for size in result.sizes:
        summaries = {
            protocol: summarize(result.measurements_for(protocol, size).totals_ms())
            for protocol in result.protocols
        }
        row: list[object] = [size]
        row += [f"{summaries[protocol].mean:.0f}" for protocol in result.protocols]
        if with_reduction:
            row.append(f"{result.reduction_for(size):.1f}%")
        row += [f"{summaries[protocol].maximum:.0f}" for protocol in result.protocols]
        row += [
            f"{100 * result.measurements_for(protocol, size).split_vote_fraction():.1f}%"
            for protocol in result.protocols
        ]
        rows.append(row)
    return render_table(
        headers=headers,
        rows=rows,
        title=(
            "Figure 9 — leader election time vs cluster size "
            f"({result.runs} runs per cell)"
        ),
    )


def _export_measurements(result: ScaleResult) -> Mapping[str, MeasurementSet]:
    """Exporter binding: the per-(protocol, size) measurement sets."""
    return result.by_label


SPEC = register(
    ExperimentSpec(
        name="fig9",
        title="ESCAPE vs Raft at increasing cluster sizes",
        paper_ref="Figure 9 / Section VI-B",
        description=(
            "clusters of 8-128 servers under repeated leader crashes; the "
            "paper's headline 11.6-21.3 % election-time reduction"
        ),
        run=run,
        reporter=report,
        default_runs=50,
        params={"sizes": PAPER_SIZES},
        quick_params={"sizes": (8, 16, 32)},
        supports_protocols=True,
        supports_trace=True,
        exporter=ExporterBinding(kind="election", extract=_export_measurements),
    )
)
