"""fig9-xl: the Figure 9 scale curve extended to data-center sizes (s <= 1024).

The paper's scale experiment (Section VI-B) stops at 128 servers.  This
extension pushes the same ESCAPE-vs-Raft comparison to s = 256, 512 and 1024
by sweeping into mergeable per-label aggregates
(:class:`~repro.metrics.streaming.ElectionAggregate`) instead of episode
sets, so the parent's memory stays O(labels) no matter how many episodes run,
and ``--checkpoint DIR`` makes the multi-minute large-``s`` sweeps resumable
bit-identically after a kill.  The default ``flat`` engine covers the
s >= 256 cells several times faster than ``classic`` (see BENCH_core.json).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import protocols as protocol_registry
from repro.experiments.base import ProgressCallback
from repro.experiments.export import aggregate_to_row
from repro.experiments.fig09_scale import build_scenarios, scale_label
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec, ExporterBinding
from repro.metrics.stats import reduction_percent
from repro.metrics.streaming import ElectionAggregate
from repro.metrics.tables import render_table

#: The extended size grid: the paper's five sizes plus the data-center tail.
XL_SIZES: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512, 1024)

#: The protocols compared (same pair as Figure 9).
PROTOCOLS: tuple[str, ...] = protocol_registry.RAFT_VS_ESCAPE


@dataclass(frozen=True)
class XlScaleResult:
    """Mergeable aggregates per (protocol, cluster size) cell."""

    sizes: tuple[int, ...]
    runs: int
    by_label: Mapping[str, ElectionAggregate]
    protocols: tuple[str, ...] = PROTOCOLS

    def aggregate_for(self, protocol: str, size: int) -> ElectionAggregate:
        """The aggregate for one protocol at one scale."""
        return self.by_label[scale_label(protocol, size)]

    def cdf_for(self, protocol: str, size: int) -> list[tuple[float, float]]:
        """CDF of the converged election times (exact at paper run counts)."""
        return self.aggregate_for(protocol, size).total_cdf()

    def average_for(self, protocol: str, size: int) -> float:
        """Average total election time for one cell."""
        return self.aggregate_for(protocol, size).mean_total_ms()

    def reduction_for(self, size: int) -> float:
        """ESCAPE's percentage reduction vs Raft at one scale."""
        return reduction_percent(
            self.average_for("raft", size), self.average_for("escape", size)
        )


def run(
    runs: int = 20,
    seed: int = 0,
    sizes: Sequence[int] = XL_SIZES,
    protocols: Sequence[str] = PROTOCOLS,
    progress: ProgressCallback | None = None,
    workers: int | None = 1,
    checkpoint: str | None = None,
) -> XlScaleResult:
    """Execute the extended scale sweep.

    ``checkpoint`` (a directory) persists completed chunks so a killed sweep
    resumes bit-identically.
    """
    from repro.experiments.runner import run_sweep

    scenarios = build_scenarios(sizes, protocols)
    by_label = run_sweep(
        scenarios,
        runs=runs,
        seed=seed,
        progress=progress,
        workers=workers,
        container=ElectionAggregate,
        checkpoint=checkpoint,
    )
    return XlScaleResult(
        sizes=tuple(sizes),
        runs=runs,
        by_label=by_label,
        protocols=tuple(protocols),
    )


def report(result: XlScaleResult) -> str:
    """Render mean/p99/max/reduction/split-vote rows per scale.

    Derived from the aggregates alone: the sweep never retains episodes.
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
    headers += [f"{labels[protocol]} p99 (ms)" for protocol in result.protocols]
    headers += [f"{labels[protocol]} max (ms)" for protocol in result.protocols]
    headers += [f"{labels[protocol]} split votes" for protocol in result.protocols]
    rows = []
    for size in result.sizes:
        summaries = {
            protocol: result.aggregate_for(protocol, size).total_summary()
            for protocol in result.protocols
        }
        row: list[object] = [size]
        row += [f"{summaries[protocol].mean:.0f}" for protocol in result.protocols]
        if with_reduction:
            row.append(f"{result.reduction_for(size):.1f}%")
        row += [f"{summaries[protocol].p99:.0f}" for protocol in result.protocols]
        row += [f"{summaries[protocol].maximum:.0f}" for protocol in result.protocols]
        row += [
            f"{100 * result.aggregate_for(protocol, size).split_vote_fraction():.1f}%"
            for protocol in result.protocols
        ]
        rows.append(row)
    return render_table(
        headers=headers,
        rows=rows,
        title=(
            "Figure 9 XL — election time vs cluster size, extended to "
            f"s={result.sizes[-1]} ({result.runs} runs per cell)"
        ),
    )


def _export_rows(result: XlScaleResult) -> list[dict[str, object]]:
    """Exporter binding: one aggregate row per (protocol, size) cell."""
    return [
        aggregate_to_row(label, aggregate)
        for label, aggregate in result.by_label.items()
    ]


SPEC = register(
    ExperimentSpec(
        name="fig9-xl",
        title="Figure 9 extended to data-center scale (streaming sweep)",
        paper_ref="Figure 9 / Section VI-B (extended)",
        description=(
            "ESCAPE vs Raft to 1024 servers, swept into mergeable "
            "aggregates: O(labels) parent memory, checkpoint/resume"
        ),
        run=run,
        reporter=report,
        default_runs=20,
        params={"sizes": XL_SIZES},
        quick_params={"sizes": (8, 16)},
        supports_protocols=True,
        supports_checkpoint=True,
        exporter=ExporterBinding(kind="rows", extract=_export_rows),
    )
)
