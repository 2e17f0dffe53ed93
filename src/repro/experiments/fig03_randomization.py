"""Figure 3: Raft leader-election time vs election-timeout randomness.

Setup (Section III of the paper): a 5-server Raft cluster, 100-200 ms network
latency, leader crash, 1000 runs for each of six election-timeout ranges
(1500-1800, 1500-2000, 1500-3000, 1500-4000, 1500-5000, 1500-6000 ms).  The
figure plots the cumulative distribution of the election time for each range;
with little randomness a noticeable fraction of elections split votes and take
longer than 3500 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.cluster.scenarios import ElectionScenario
from repro.common.types import Milliseconds
from repro.experiments.base import ProgressCallback
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec, ExporterBinding
from repro.metrics.records import MeasurementSet
from repro.metrics.stats import cumulative_distribution, fraction_at_or_below, summarize
from repro.metrics.tables import render_table
from repro.obs.trace import archive_election_traces

#: The six timeout ranges swept by the paper.
PAPER_TIMEOUT_RANGES: tuple[tuple[Milliseconds, Milliseconds], ...] = (
    (1500.0, 1800.0),
    (1500.0, 2000.0),
    (1500.0, 3000.0),
    (1500.0, 4000.0),
    (1500.0, 5000.0),
    (1500.0, 6000.0),
)

#: Cluster size used in Section III.
CLUSTER_SIZE = 5


@dataclass(frozen=True)
class RandomizationResult:
    """Result of the Figure 3 sweep: one measurement set per timeout range."""

    timeout_ranges: tuple[tuple[Milliseconds, Milliseconds], ...]
    runs: int
    by_range: Mapping[str, MeasurementSet]

    def measurements_for(self, timeout_range: tuple[Milliseconds, Milliseconds]) -> MeasurementSet:
        """Measurements collected for one timeout range."""
        return self.by_range[range_label(timeout_range)]

    def cdf_for(
        self, timeout_range: tuple[Milliseconds, Milliseconds]
    ) -> list[tuple[float, float]]:
        """The cumulative-distribution series plotted by Figure 3."""
        return cumulative_distribution(self.measurements_for(timeout_range).totals_ms())


def range_label(timeout_range: tuple[Milliseconds, Milliseconds]) -> str:
    """Label used for one timeout range, e.g. ``"1500-3000"``."""
    low, high = timeout_range
    return f"{low:.0f}-{high:.0f}"


def build_scenarios(
    timeout_ranges: Sequence[tuple[Milliseconds, Milliseconds]] = PAPER_TIMEOUT_RANGES,
    cluster_size: int = CLUSTER_SIZE,
) -> dict[str, ElectionScenario]:
    """One Raft scenario per timeout range."""
    return {
        range_label(timeout_range): ElectionScenario(
            protocol="raft",
            cluster_size=cluster_size,
            raft_timeout_range=timeout_range,
        )
        for timeout_range in timeout_ranges
    }


def run(
    runs: int = 100,
    seed: int = 0,
    timeout_ranges: Sequence[tuple[Milliseconds, Milliseconds]] = PAPER_TIMEOUT_RANGES,
    cluster_size: int = CLUSTER_SIZE,
    progress: ProgressCallback | None = None,
    workers: int | None = 1,
    trace: str | None = None,
) -> RandomizationResult:
    """Execute the Figure 3 sweep (optionally fanned out over *workers*).

    With *trace* set to a directory, one traced episode per timeout range is
    re-run afterwards and archived there as JSONL (plus telemetry snapshots);
    see :func:`repro.obs.trace.archive_election_traces`.
    """
    from repro.experiments.runner import run_sweep

    scenarios = build_scenarios(timeout_ranges, cluster_size)
    by_range = run_sweep(
        scenarios, runs=runs, seed=seed, progress=progress, workers=workers
    )
    if trace is not None:
        archive_election_traces(scenarios, seed, trace)
    return RandomizationResult(
        timeout_ranges=tuple(timeout_ranges), runs=runs, by_range=by_range
    )


def report(result: RandomizationResult) -> str:
    """Render the Figure 3 series (plus split-vote rates) as a table."""
    rows = []
    for timeout_range in result.timeout_ranges:
        measurements = result.measurements_for(timeout_range)
        totals = measurements.totals_ms()
        summary = summarize(totals)
        rows.append(
            [
                range_label(timeout_range),
                f"{summary.mean:.0f}",
                f"{summary.median:.0f}",
                f"{summary.p95:.0f}",
                f"{100 * measurements.split_vote_fraction():.1f}%",
                f"{100 * (1 - fraction_at_or_below(totals, 3500.0)):.1f}%",
            ]
        )
    return render_table(
        headers=[
            "timeout range (ms)",
            "mean (ms)",
            "p50 (ms)",
            "p95 (ms)",
            "split votes",
            "> 3500 ms",
        ],
        rows=rows,
        title=(
            "Figure 3 — Raft leader election time in a "
            f"{CLUSTER_SIZE}-server cluster vs timeout randomness "
            f"({result.runs} runs per range)"
        ),
    )


def _export_measurements(result: RandomizationResult) -> Mapping[str, MeasurementSet]:
    """Exporter binding: the per-range measurement sets."""
    return result.by_range


SPEC = register(
    ExperimentSpec(
        name="fig3",
        title="Raft election-time CDF vs timeout randomness",
        paper_ref="Figure 3 / Section III",
        description=(
            "5-server Raft cluster, leader crash, six election-timeout "
            "ranges; the split-vote tail the paper motivates ESCAPE with"
        ),
        run=run,
        reporter=report,
        default_runs=100,
        params={
            "timeout_ranges": PAPER_TIMEOUT_RANGES,
            "cluster_size": CLUSTER_SIZE,
        },
        supports_trace=True,
        exporter=ExporterBinding(kind="election", extract=_export_measurements),
    )
)
