"""Figure 11: leader-election time under broadcast message loss.

Setup (Section VI-D): clusters of 10, 50 and 100 servers; broadcast loss rates
Δ of 0, 10, 20, 30 and 40 % (every broadcast misses a random Δ fraction of the
peers); three protocols -- Raft, Z-Raft (ZooKeeper-style static priorities)
and ESCAPE.  A client workload keeps the log growing before the crash so the
loss actually leaves some followers behind, creating the "unqualified
candidates" the paper describes.

The paper reports that Z-Raft and ESCAPE track each other at low loss, that
Raft degrades badly at high loss, and that ESCAPE's dynamic rearrangement
pays off as loss grows: at s=100 ESCAPE cuts election time by 21.4 % (Δ=10 %)
and 49.3 % (Δ=40 %) versus Raft.
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
PAPER_SIZES: tuple[int, ...] = (10, 50, 100)

#: Broadcast loss rates Δ evaluated by the paper.
PAPER_LOSS_RATES: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4)

#: The protocols compared in Figure 11 (validated against the registry).
PROTOCOLS: tuple[str, ...] = protocol_registry.PAPER_PROTOCOLS


@dataclass(frozen=True)
class MessageLossResult:
    """Measurements per (protocol, cluster size, loss rate)."""

    sizes: tuple[int, ...]
    loss_rates: tuple[float, ...]
    runs: int
    by_label: Mapping[str, MeasurementSet]
    protocols: tuple[str, ...] = PROTOCOLS

    def measurements_for(
        self, protocol: str, size: int, loss_rate: float
    ) -> MeasurementSet:
        """Measurements for one cell of Figure 11."""
        return self.by_label[cell_label(protocol, size, loss_rate)]

    def average_for(self, protocol: str, size: int, loss_rate: float) -> float:
        """Average election time for one cell."""
        return self.measurements_for(protocol, size, loss_rate).mean_total_ms()

    def reduction_vs_raft(self, protocol: str, size: int, loss_rate: float) -> float:
        """Percentage reduction of *protocol* vs Raft for one cell."""
        return reduction_percent(
            self.average_for("raft", size, loss_rate),
            self.average_for(protocol, size, loss_rate),
        )


def cell_label(protocol: str, size: int, loss_rate: float) -> str:
    """Label for one cell, e.g. ``"zraft@50/loss20"``."""
    return f"{protocol}@{size}/loss{int(round(loss_rate * 100))}"


def build_scenarios(
    sizes: Sequence[int] = PAPER_SIZES,
    loss_rates: Sequence[float] = PAPER_LOSS_RATES,
    protocols: Sequence[str] = PROTOCOLS,
    workload_interval_ms: float = 50.0,
) -> dict[str, ElectionScenario]:
    """One scenario per (protocol, size, loss) cell of Figure 11."""
    scenarios: dict[str, ElectionScenario] = {}
    for size in sizes:
        for loss_rate in loss_rates:
            for protocol in protocols:
                scenarios[cell_label(protocol, size, loss_rate)] = ElectionScenario(
                    protocol=protocol,
                    cluster_size=size,
                    loss_rate=loss_rate,
                    workload_interval_ms=workload_interval_ms,
                    pre_crash_ms=2_000.0,
                )
    return scenarios


def run(
    runs: int = 30,
    seed: int = 0,
    sizes: Sequence[int] = PAPER_SIZES,
    loss_rates: Sequence[float] = PAPER_LOSS_RATES,
    protocols: Sequence[str] = PROTOCOLS,
    progress: ProgressCallback | None = None,
    workers: int | None = 1,
) -> MessageLossResult:
    """Execute the Figure 11 sweep (optionally fanned out over *workers*)."""
    from repro.experiments.runner import run_sweep

    scenarios = build_scenarios(sizes, loss_rates, protocols)
    by_label = run_sweep(
        scenarios, runs=runs, seed=seed, progress=progress, workers=workers
    )
    return MessageLossResult(
        sizes=tuple(sizes),
        loss_rates=tuple(loss_rates),
        runs=runs,
        by_label=by_label,
        protocols=tuple(protocols),
    )


def report(result: MessageLossResult) -> str:
    """Render averages for every protocol per (size, loss) cell.

    Columns adapt to the protocols actually swept (the historical hardcoded
    raft/zraft/escape triple lives in the registry-backed ``PROTOCOLS``
    default now); reduction-vs-Raft columns appear for every other protocol
    when Raft is part of the sweep.
    """
    labels = {
        protocol: protocol_registry.title(protocol)
        for protocol in result.protocols
    }
    compared = [
        protocol for protocol in result.protocols if protocol != "raft"
    ] if "raft" in result.protocols else []
    headers = ["servers", "loss Δ"]
    headers += [f"{labels[protocol]} (ms)" for protocol in result.protocols]
    headers += [f"{labels[protocol]} vs Raft" for protocol in compared]
    rows = []
    for size in result.sizes:
        for loss_rate in result.loss_rates:
            row: list[object] = [size, f"{loss_rate * 100:.0f}%"]
            for protocol in result.protocols:
                row.append(f"{result.average_for(protocol, size, loss_rate):.0f}")
            for protocol in compared:
                row.append(
                    f"{result.reduction_vs_raft(protocol, size, loss_rate):.1f}%"
                )
            rows.append(row)
    return render_table(
        headers=headers,
        rows=rows,
        title=(
            "Figure 11 — leader election time under broadcast message loss "
            f"({result.runs} runs per cell)"
        ),
    )


def _export_measurements(result: MessageLossResult) -> Mapping[str, MeasurementSet]:
    """Exporter binding: the per-(protocol, size, loss) measurement sets."""
    return result.by_label


SPEC = register(
    ExperimentSpec(
        name="fig11",
        title="Election time under broadcast message loss",
        paper_ref="Figure 11 / Section VI-D",
        description=(
            "Raft vs Z-Raft vs ESCAPE while every broadcast misses a Δ "
            "fraction of peers; dynamic rearrangement pays off as Δ grows"
        ),
        run=run,
        reporter=report,
        default_runs=30,
        params={"sizes": PAPER_SIZES, "loss_rates": PAPER_LOSS_RATES},
        quick_params={"sizes": (10,)},
        supports_protocols=True,
        exporter=ExporterBinding(kind="election", extract=_export_measurements),
    )
)
