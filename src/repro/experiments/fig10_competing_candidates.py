"""Figure 10: election time under 0/1/2/3 phases of competing candidates.

Setup (Section VI-C): clusters of 8, 16, 32, 64 and 128 servers are driven
into a controlled number of competing-candidate phases.  The harness forces
the contention by giving every follower the same scripted election timeout for
its first *k* waits (the canonical cause of a split vote); ESCAPE, under the
*same* simultaneous timeouts, resolves the collision in a single campaign
because priorities scatter the campaigns into different terms.

The paper reports that Raft's election time grows roughly linearly with the
number of forced phases (≈ phases x election timeout, about 6.5-7.5 s at three
phases) while ESCAPE stays under 2 s regardless, a reduction of 44.9 %, 64.2 %
and 74.3 % under one, two and three phases in the 128-server cluster.
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

#: Numbers of forced competing-candidate phases.
PAPER_PHASES: tuple[int, ...] = (0, 1, 2, 3)

#: The protocols compared in Figure 10 (validated against the registry).
PROTOCOLS: tuple[str, ...] = protocol_registry.RAFT_VS_ESCAPE


def cell_label(protocol: str, size: int, phases: int) -> str:
    """Label for one cell, e.g. ``"raft@32/2cc"``."""
    return f"{protocol}@{size}/{phases}cc"


def scenario(protocol: str, size: int, phases: int) -> ElectionScenario:
    """The scenario of one (protocol, size, forced phases) cell."""
    return ElectionScenario(
        protocol=protocol, cluster_size=size, contention_phases=phases
    )


EXPERIMENT = register(
    SweepExperiment(
        name="fig10",
        title="Election time under forced competing-candidate phases",
        paper_ref="Figure 10 / Section VI-C",
        description=(
            "scripted simultaneous timeouts force 0-3 split-vote phases; "
            "Raft pays ~one timeout per phase, ESCAPE stays flat"
        ),
        default_runs=30,
        axes=(
            Axis("sizes", PAPER_SIZES, quick=(8, 16), coord="size"),
            Axis("phases", PAPER_PHASES, coord="phases"),
            Axis("protocols", PROTOCOLS, coord="protocol"),
        ),
        label=cell_label,
        scenario=scenario,
        container=MeasurementSet,
        table=Table(
            title=(
                "Figure 10 — election time under forced competing-candidate "
                "phases ({runs} runs per cell)"
            ),
            rows=(RowHeader("size", "servers"), RowHeader("phases", "C.C. phases")),
            columns=(
                PerProtocol(
                    (
                        Column("detect (ms)", "mean_detection_ms"),
                        Column("elect (ms)", "mean_election_ms"),
                        Column("total (ms)", "mean_total_ms"),
                    )
                ),
                Reduction("reduction", baseline="raft", improved="escape"),
            ),
        ),
    )
)
