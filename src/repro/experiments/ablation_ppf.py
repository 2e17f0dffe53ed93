"""Ablation: how much of ESCAPE's benefit comes from the PPF?

This experiment is not a paper figure; it isolates the design choice the paper
motivates in Section IV-B.  The registry makes the ablation first-class: the
``escape-noppf`` protocol is full ESCAPE with the Probing Patrol disabled, so
the cleanest comparison is ``escape-noppf`` vs ``escape`` under increasing
broadcast loss with an active client workload.  Z-Raft rides along as the
historical stand-in ("SCA without PPF" with plain Raft wire messages).  The
expectation (and the paper's narrative in Section VI-D) is that the variants
are indistinguishable at Δ=0 and diverge as the statically privileged servers
fall behind in log replication.
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

DEFAULT_SIZE = 20
DEFAULT_LOSS_RATES: tuple[float, ...] = (0.0, 0.2, 0.4)

#: The ablation grid: two no-PPF baselines against full ESCAPE.
PROTOCOLS: tuple[str, ...] = protocol_registry.validated(
    "zraft", "escape-noppf", "escape"
)


@dataclass(frozen=True)
class PpfAblationResult:
    """Measurements per (protocol, loss rate) at one cluster size."""

    cluster_size: int
    loss_rates: tuple[float, ...]
    runs: int
    by_label: Mapping[str, MeasurementSet]
    protocols: tuple[str, ...] = PROTOCOLS

    def measurements_for(self, protocol: str, loss_rate: float) -> MeasurementSet:
        return self.by_label[cell_label(protocol, loss_rate)]

    def average_for(self, protocol: str, loss_rate: float) -> float:
        return self.measurements_for(protocol, loss_rate).mean_total_ms()

    def no_ppf_baseline(self) -> str:
        """The no-PPF protocol the benefit is measured against.

        ``escape-noppf`` when it is part of the sweep (the exact ablation),
        otherwise ``zraft`` (the historical stand-in).
        """
        return "escape-noppf" if "escape-noppf" in self.protocols else "zraft"

    def ppf_benefit_percent(self, loss_rate: float) -> float:
        """Reduction of full ESCAPE vs the no-PPF baseline."""
        return reduction_percent(
            self.average_for(self.no_ppf_baseline(), loss_rate),
            self.average_for("escape", loss_rate),
        )


def cell_label(protocol: str, loss_rate: float) -> str:
    return f"{protocol}/loss{int(round(loss_rate * 100))}"


def build_scenarios(
    cluster_size: int = DEFAULT_SIZE,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    protocols: Sequence[str] = PROTOCOLS,
) -> dict[str, ElectionScenario]:
    scenarios: dict[str, ElectionScenario] = {}
    for loss_rate in loss_rates:
        for protocol in protocols:
            scenarios[cell_label(protocol, loss_rate)] = ElectionScenario(
                protocol=protocol,
                cluster_size=cluster_size,
                loss_rate=loss_rate,
                workload_interval_ms=50.0,
                pre_crash_ms=2_000.0,
            )
    return scenarios


def run(
    runs: int = 30,
    seed: int = 0,
    cluster_size: int = DEFAULT_SIZE,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    protocols: Sequence[str] = PROTOCOLS,
    progress: ProgressCallback | None = None,
    workers: int | None = 1,
) -> PpfAblationResult:
    """Execute the PPF ablation sweep (optionally fanned out over *workers*)."""
    from repro.experiments.runner import run_sweep

    scenarios = build_scenarios(cluster_size, loss_rates, protocols)
    by_label = run_sweep(
        scenarios, runs=runs, seed=seed, progress=progress, workers=workers
    )
    return PpfAblationResult(
        cluster_size=cluster_size,
        loss_rates=tuple(loss_rates),
        runs=runs,
        by_label=by_label,
        protocols=tuple(protocols),
    )


def report(result: PpfAblationResult) -> str:
    headers = ["loss Δ"]
    headers += [
        f"{protocol_registry.title(protocol)} (ms)"
        for protocol in result.protocols
    ]
    with_benefit = "escape" in result.protocols and (
        result.no_ppf_baseline() in result.protocols
    )
    if with_benefit:
        headers.append("PPF benefit")
    rows = []
    for loss_rate in result.loss_rates:
        row = [f"{loss_rate * 100:.0f}%"]
        row += [
            f"{result.average_for(protocol, loss_rate):.0f}"
            for protocol in result.protocols
        ]
        if with_benefit:
            row.append(f"{result.ppf_benefit_percent(loss_rate):.1f}%")
        rows.append(row)
    return render_table(
        headers=headers,
        rows=rows,
        title=(
            f"Ablation — contribution of the PPF at {result.cluster_size} servers "
            f"({result.runs} runs per cell)"
        ),
    )


def _export_measurements(result: PpfAblationResult) -> Mapping[str, MeasurementSet]:
    """Exporter binding: the per-(protocol, loss) measurement sets."""
    return result.by_label


SPEC = register(
    ExperimentSpec(
        name="ablation-ppf",
        title="Ablation: contribution of the Probing Patrol (PPF)",
        paper_ref="Section IV-B (ablation)",
        description=(
            "escape-noppf and zraft vs full ESCAPE under growing broadcast "
            "loss: how much of the win is the patrol"
        ),
        run=run,
        reporter=report,
        default_runs=30,
        params={"cluster_size": DEFAULT_SIZE, "loss_rates": DEFAULT_LOSS_RATES},
        supports_protocols=True,
        exporter=ExporterBinding(kind="election", extract=_export_measurements),
    )
)
