"""Figure 4: average Raft leader-election time vs timeout randomness.

Figure 4 averages the same sweep as Figure 3 (same labels, same seeds, so the
archived episodes are Figure 3's; the averages are the report).  The paper's
observation is the *trade-off*: a small amount of randomness leaves frequent
split votes (long elections); a large amount avoids split votes but inflates
the detection period, so the average first drops and then climbs again as the
range widens.
"""

from __future__ import annotations

from repro.experiments.fig03_randomization import (
    TIMEOUT_RANGES,
    range_label,
    scenario,
)
from repro.experiments.registry import register
from repro.experiments.sweep import Column, RowHeader, SweepExperiment, Table
from repro.metrics.records import MeasurementSet

EXPERIMENT = register(
    SweepExperiment(
        name="fig4",
        title="Average Raft election time vs timeout randomness",
        paper_ref="Figure 4 / Section III",
        description=(
            "the Figure 3 sweep averaged: the randomness trade-off between "
            "split votes and an inflated detection period"
        ),
        default_runs=100,
        axes=(TIMEOUT_RANGES,),
        label=range_label,
        scenario=scenario,
        container=MeasurementSet,
        table=Table(
            title=(
                "Figure 4 — average Raft leader election time vs timeout "
                "randomness ({runs} runs per range)"
            ),
            rows=(RowHeader("timeout_range", "timeout range (ms)", range_label),),
            columns=(
                Column("detection (ms)", "mean_detection_ms"),
                Column("election (ms)", "mean_election_ms"),
                Column("total (ms)", "mean_total_ms"),
            ),
        ),
    )
)
