"""Ablation: how much of ESCAPE's benefit comes from the PPF?

This experiment is not a paper figure; it isolates the design choice the paper
motivates in Section IV-B.  ESCAPE is Z-Raft plus the Probing Patrol and the
configuration clock its assignments carry; Z-Raft is SCA alone (configurations
fixed at assignment, no patrol, no clock gate on votes).  It is the paper's
own no-PPF baseline (Section VI-D), and the comparison is ``zraft`` vs
``escape`` under increasing broadcast loss with an active client workload.
The paper's narrative (Section VI-D) is that the two track at low loss and
diverge as the statically privileged servers fall behind in log replication.
Here ESCAPE is already about one timeout rung (k) faster at Δ=0: the patrol
hands a follower the top priority, while Z-Raft's successor keeps the second.
"""

from __future__ import annotations

from repro import protocols as protocol_registry
from repro.cluster.scenarios import ElectionScenario
from repro.experiments.fig11_message_loss import scenario as lossy_scenario
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

DEFAULT_SIZE = 20
DEFAULT_LOSS_RATES: tuple[float, ...] = (0.0, 0.2, 0.4)

#: The ablation grid: the no-PPF baseline against full ESCAPE.
PROTOCOLS: tuple[str, ...] = protocol_registry.validated("zraft", "escape")


def cell_label(protocol: str, loss_rate: float) -> str:
    return f"{protocol}/loss{int(round(loss_rate * 100))}"


def scenario(protocol: str, loss_rate: float, cluster_size: int) -> ElectionScenario:
    """Figure 11's lossy scenario (active client workload) at one size."""
    return lossy_scenario(protocol, cluster_size, loss_rate)


EXPERIMENT = register(
    SweepExperiment(
        name="ablation-ppf",
        title="Ablation: contribution of the Probing Patrol (PPF)",
        paper_ref="Section IV-B (ablation)",
        description=(
            "zraft vs full ESCAPE under growing broadcast loss: how much of "
            "the win is the patrol"
        ),
        default_runs=30,
        axes=(
            Axis("loss_rates", DEFAULT_LOSS_RATES, coord="loss_rate"),
            Axis("protocols", PROTOCOLS, coord="protocol"),
            Axis("cluster_size", DEFAULT_SIZE),
        ),
        label=cell_label,
        scenario=scenario,
        container=MeasurementSet,
        table=Table(
            title=(
                "Ablation — contribution of the PPF at {cluster_size} servers "
                "({runs} runs per cell)"
            ),
            rows=(RowHeader("loss_rate", "loss Δ", percent),),
            columns=(
                PerProtocol((Column("(ms)", "mean_total_ms"),)),
                Reduction("PPF benefit", baseline="zraft", improved="escape"),
            ),
        ),
    )
)
