"""Figure 3: Raft leader-election time vs election-timeout randomness.

Setup (Section III of the paper): a 5-server Raft cluster, 100-200 ms network
latency, leader crash, 1000 runs for each of six election-timeout ranges
(1500-1800, 1500-2000, 1500-3000, 1500-4000, 1500-5000, 1500-6000 ms).  The
figure plots the cumulative distribution of the election time for each range;
with little randomness a noticeable fraction of elections split votes and take
longer than 3500 ms.
"""

from __future__ import annotations

from repro.cluster.scenarios import ElectionScenario
from repro.common.types import Milliseconds
from repro.experiments.registry import register
from repro.experiments.sweep import Axis, Column, RowHeader, SweepExperiment, Table
from repro.metrics.records import MeasurementSet
from repro.metrics.stats import fraction_at_or_below

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

#: The swept axis Figures 3 and 4 share.
TIMEOUT_RANGES = Axis("timeout_ranges", PAPER_TIMEOUT_RANGES, coord="timeout_range")


def range_label(timeout_range: tuple[Milliseconds, Milliseconds]) -> str:
    """Label used for one timeout range, e.g. ``"1500-3000"``."""
    low, high = timeout_range
    return f"{low:.0f}-{high:.0f}"


def scenario(
    timeout_range: tuple[Milliseconds, Milliseconds], cluster_size: int = CLUSTER_SIZE
) -> ElectionScenario:
    """The Raft scenario of one timeout range."""
    return ElectionScenario(
        protocol="raft", cluster_size=cluster_size, raft_timeout_range=timeout_range
    )


def slow_fraction(cell: MeasurementSet) -> float:
    """Fraction of converged elections longer than 3500 ms (the split-vote tail)."""
    return 1 - fraction_at_or_below(cell.values(lambda m: m.total_ms), 3500.0)


EXPERIMENT = register(
    SweepExperiment(
        name="fig3",
        title="Raft election-time CDF vs timeout randomness",
        paper_ref="Figure 3 / Section III",
        description=(
            "5-server Raft cluster, leader crash, six election-timeout "
            "ranges; the split-vote tail the paper motivates ESCAPE with"
        ),
        default_runs=100,
        axes=(TIMEOUT_RANGES, Axis("cluster_size", CLUSTER_SIZE)),
        label=range_label,
        scenario=scenario,
        container=MeasurementSet,
        table=Table(
            title=(
                "Figure 3 — Raft leader election time in a {cluster_size}-server "
                "cluster vs timeout randomness ({runs} runs per range)"
            ),
            rows=(RowHeader("timeout_range", "timeout range (ms)", range_label),),
            columns=(
                Column("mean (ms)", "total_summary.mean"),
                Column("p50 (ms)", "total_summary.median"),
                Column("p95 (ms)", "total_summary.p95"),
                Column("split votes", "split_vote_fraction", "{:.1%}"),
                Column("> 3500 ms", slow_fraction, "{:.1%}"),
            ),
        ),
    )
)
build_scenarios = EXPERIMENT.build_scenarios
