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
    percent,
)
from repro.metrics.records import MeasurementSet
from repro.net.faults import BroadcastOmissionFault

#: Cluster sizes evaluated by the paper.
PAPER_SIZES: tuple[int, ...] = (10, 50, 100)

#: Broadcast loss rates Δ evaluated by the paper.
PAPER_LOSS_RATES: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4)

#: The protocols compared in Figure 11 (validated against the registry).
PROTOCOLS: tuple[str, ...] = protocol_registry.PAPER_PROTOCOLS


def cell_label(protocol: str, size: int, loss_rate: float) -> str:
    """Label for one cell, e.g. ``"zraft@50/loss20"``."""
    return f"{protocol}@{size}/loss{int(round(loss_rate * 100))}"


def scenario(protocol: str, size: int, loss_rate: float) -> ElectionScenario:
    """The scenario of one (protocol, size, loss) cell (Δ = 0 is no fault).

    The client workload keeps the log growing before the crash, so lost
    broadcasts leave some followers behind.
    """
    return ElectionScenario(
        protocol=protocol,
        cluster_size=size,
        fault=BroadcastOmissionFault(loss_rate) if loss_rate != 0.0 else None,
        workload_interval_ms=50.0,
    )


EXPERIMENT = register(
    SweepExperiment(
        name="fig11",
        title="Election time under broadcast message loss",
        paper_ref="Figure 11 / Section VI-D",
        description=(
            "Raft vs Z-Raft vs ESCAPE while every broadcast misses a Δ "
            "fraction of peers; dynamic rearrangement pays off as Δ grows"
        ),
        default_runs=30,
        axes=(
            Axis("sizes", PAPER_SIZES, quick=(10,), coord="size"),
            Axis("loss_rates", PAPER_LOSS_RATES, coord="loss_rate"),
            Axis("protocols", PROTOCOLS, coord="protocol"),
        ),
        label=cell_label,
        scenario=scenario,
        container=MeasurementSet,
        table=Table(
            title=(
                "Figure 11 — leader election time under broadcast message loss "
                "({runs} runs per cell)"
            ),
            rows=(
                RowHeader("size", "servers"),
                RowHeader("loss_rate", "loss Δ", percent),
            ),
            columns=(
                PerProtocol((Column("(ms)", "mean_total_ms"),)),
                Reduction("{protocol} vs Raft", baseline="raft"),
            ),
        ),
    )
)
build_scenarios = EXPERIMENT.build_scenarios
