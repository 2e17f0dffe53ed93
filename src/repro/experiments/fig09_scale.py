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

from repro import protocols as protocol_registry
from repro.cluster.scenarios import ElectionScenario
from repro.experiments.registry import register
from repro.experiments.sweep import (
    Axis,
    Column,
    PerProtocol,
    Reduction,
    RowHeader,
    SweepExperiment,
    Table,
)
from repro.metrics.records import MeasurementSet

#: Cluster sizes evaluated by the paper.
PAPER_SIZES: tuple[int, ...] = (8, 16, 32, 64, 128)

#: The protocols compared in Figure 9 (validated against the registry).
PROTOCOLS: tuple[str, ...] = protocol_registry.RAFT_VS_ESCAPE

#: The protocol axis and the report pieces Figure 9 and its XL extension share.
PROTOCOL_AXIS = Axis("protocols", PROTOCOLS, coord="protocol")
SIZE_ROWS = (RowHeader("size", "servers"),)
MEAN = PerProtocol((Column("mean (ms)", "total_summary.mean"),))
REDUCTION = Reduction("reduction", baseline="raft", improved="escape")
MAX = PerProtocol((Column("max (ms)", "total_summary.maximum"),))
SPLIT_VOTES = PerProtocol((Column("split votes", "split_vote_fraction", "{:.1%}"),))


def scale_label(protocol: str, size: int) -> str:
    """Label for one protocol/scale cell, e.g. ``"escape@32"``."""
    return f"{protocol}@{size}"


def scenario(protocol: str, size: int) -> ElectionScenario:
    """The scenario of one (protocol, size) cell."""
    return ElectionScenario(protocol=protocol, cluster_size=size)


EXPERIMENT = register(
    SweepExperiment(
        name="fig9",
        title="ESCAPE vs Raft at increasing cluster sizes",
        paper_ref="Figure 9 / Section VI-B",
        description=(
            "clusters of 8-128 servers under repeated leader crashes; the "
            "paper's headline 11.6-21.3 % election-time reduction"
        ),
        default_runs=50,
        axes=(
            Axis("sizes", PAPER_SIZES, quick=(8, 16, 32), coord="size"),
            PROTOCOL_AXIS,
        ),
        label=scale_label,
        scenario=scenario,
        container=MeasurementSet,
        table=Table(
            title="Figure 9 — leader election time vs cluster size ({runs} runs per cell)",
            rows=SIZE_ROWS,
            columns=(MEAN, REDUCTION, MAX, SPLIT_VOTES),
        ),
    )
)
build_scenarios = EXPERIMENT.build_scenarios
