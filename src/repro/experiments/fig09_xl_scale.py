"""fig9-xl: the Figure 9 scale curve extended to data-center sizes (s <= 1024).

Figure 9's grid (Section VI-B stops at 128 servers) with three more sizes,
swept into mergeable :class:`~repro.metrics.streaming.ElectionAggregate`
cells instead of episode sets -- so the parent's memory stays O(labels) and
``--checkpoint DIR`` makes the multi-minute large-``s`` sweeps resumable
bit-identically after a kill -- and one more column, the p99.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments import fig09_scale as fig9
from repro.experiments.registry import register
from repro.experiments.sweep import Axis, Column, PerProtocol, Table
from repro.metrics.streaming import ElectionAggregate

#: The extended size grid: the paper's five sizes plus the data-center tail.
XL_SIZES: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512, 1024)
P99 = PerProtocol((Column("p99 (ms)", "total_summary.p99"),))


EXPERIMENT = register(
    replace(
        fig9.EXPERIMENT,
        name="fig9-xl",
        title="Figure 9 extended to data-center scale",
        paper_ref="Figure 9 / Section VI-B (extended)",
        description=(
            "ESCAPE vs Raft to 1024 servers, swept into mergeable "
            "aggregates: O(labels) parent memory, checkpoint/resume"
        ),
        default_runs=20,
        axes=(Axis("sizes", XL_SIZES, quick=(8, 16), coord="size"), fig9.PROTOCOL_AXIS),
        container=ElectionAggregate,
        table=Table(
            title=(
                "Figure 9 XL — election time vs cluster size, extended to "
                "s={last[size]} ({runs} runs per cell)"
            ),
            rows=fig9.SIZE_ROWS,
            columns=(fig9.MEAN, fig9.REDUCTION, P99, fig9.MAX, fig9.SPLIT_VOTES),
        ),
    )
)
