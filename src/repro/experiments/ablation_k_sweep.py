"""Ablation: sensitivity of ESCAPE to the priority-gap constant ``k`` (Eq. 1).

The paper recommends setting ``k`` to at least twice the network latency so
the groomed future leader can finish its campaign before the next server times
out.  This sweep varies ``k`` and measures the election time and the number of
campaigns per episode: with a very small ``k``, neighbouring priorities time
out within one network round-trip of each other and extra campaigns appear
(they still resolve quickly -- terms differ -- but cost messages); with a large
``k`` the second-best candidate's timeout is far away and the election time is
simply the base timeout plus one campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.cluster.scenarios import ElectionScenario
from repro.common.config import ScaParameters
from repro.experiments.base import ProgressCallback
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec, ExporterBinding
from repro.metrics.records import MeasurementSet
from repro.metrics.tables import render_table

DEFAULT_SIZE = 16
DEFAULT_K_VALUES: tuple[float, ...] = (50.0, 100.0, 200.0, 500.0, 1000.0)


@dataclass(frozen=True)
class KSweepResult:
    """Measurements per value of the priority-gap constant ``k``."""

    cluster_size: int
    k_values: tuple[float, ...]
    runs: int
    by_label: Mapping[str, MeasurementSet]

    def measurements_for(self, k_ms: float) -> MeasurementSet:
        return self.by_label[k_label(k_ms)]

    def average_for(self, k_ms: float) -> float:
        return self.measurements_for(k_ms).mean_total_ms()

    def mean_campaigns_for(self, k_ms: float) -> float:
        measurements = self.measurements_for(k_ms).converged
        counts = measurements.values(lambda m: float(m.campaign_count))
        return sum(counts) / len(counts)


def k_label(k_ms: float) -> str:
    return f"k={k_ms:.0f}ms"


def build_scenarios(
    cluster_size: int = DEFAULT_SIZE,
    k_values: Sequence[float] = DEFAULT_K_VALUES,
) -> dict[str, ElectionScenario]:
    return {
        k_label(k_ms): ElectionScenario(
            protocol="escape",
            cluster_size=cluster_size,
            sca=ScaParameters(base_time_ms=1500.0, k_ms=k_ms),
        )
        for k_ms in k_values
    }


def run(
    runs: int = 30,
    seed: int = 0,
    cluster_size: int = DEFAULT_SIZE,
    k_values: Sequence[float] = DEFAULT_K_VALUES,
    progress: ProgressCallback | None = None,
    workers: int | None = 1,
) -> KSweepResult:
    """Execute the ``k`` sensitivity sweep (optionally over *workers*)."""
    from repro.experiments.runner import run_sweep

    scenarios = build_scenarios(cluster_size, k_values)
    by_label = run_sweep(
        scenarios, runs=runs, seed=seed, progress=progress, workers=workers
    )
    return KSweepResult(
        cluster_size=cluster_size,
        k_values=tuple(k_values),
        runs=runs,
        by_label=by_label,
    )


def report(result: KSweepResult) -> str:
    rows = []
    for k_ms in result.k_values:
        measurements = result.measurements_for(k_ms)
        rows.append(
            [
                k_label(k_ms),
                f"{result.average_for(k_ms):.0f}",
                f"{result.mean_campaigns_for(k_ms):.2f}",
                f"{100 * measurements.split_vote_fraction():.1f}%",
            ]
        )
    return render_table(
        headers=["priority gap k", "mean election (ms)", "campaigns/run", "split votes"],
        rows=rows,
        title=(
            f"Ablation — ESCAPE sensitivity to k (Eq. 1) at {result.cluster_size} servers "
            f"({result.runs} runs per value)"
        ),
    )


def _export_measurements(result: KSweepResult) -> Mapping[str, MeasurementSet]:
    """Exporter binding: the per-k measurement sets."""
    return result.by_label


SPEC = register(
    ExperimentSpec(
        name="ablation-k",
        title="Ablation: ESCAPE sensitivity to the priority gap k",
        paper_ref="Eq. 1 / Section IV-A",
        description=(
            "sweep the Eq. 1 priority-gap constant: small k costs extra "
            "campaigns, large k just adds the base timeout"
        ),
        run=run,
        reporter=report,
        default_runs=30,
        params={"cluster_size": DEFAULT_SIZE, "k_values": DEFAULT_K_VALUES},
        exporter=ExporterBinding(kind="election", extract=_export_measurements),
    )
)
