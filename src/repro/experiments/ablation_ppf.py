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

from repro import protocols as protocol_registry
from repro.cluster.scenarios import ElectionScenario
from repro.experiments.fig11_message_loss import scenario as lossy_scenario
from repro.experiments.registry import register
from repro.experiments.sweep import (
    Axis,
    Column,
    Derived,
    GridResult,
    PerProtocol,
    RowHeader,
    SweepExperiment,
    Table,
    percent,
)
from repro.metrics.records import MeasurementSet
from repro.metrics.stats import reduction_percent

DEFAULT_SIZE = 20
DEFAULT_LOSS_RATES: tuple[float, ...] = (0.0, 0.2, 0.4)

#: The ablation grid: two no-PPF baselines against full ESCAPE.
PROTOCOLS: tuple[str, ...] = protocol_registry.validated(
    "zraft", "escape-noppf", "escape"
)


def cell_label(protocol: str, loss_rate: float) -> str:
    return f"{protocol}/loss{int(round(loss_rate * 100))}"


def scenario(protocol: str, loss_rate: float, cluster_size: int) -> ElectionScenario:
    """Figure 11's lossy scenario (active client workload) at one size."""
    return lossy_scenario(protocol, cluster_size, loss_rate)


def no_ppf_baseline(result: GridResult) -> str:
    """The no-PPF protocol the benefit is measured against.

    ``escape-noppf`` when it is part of the sweep (the exact ablation),
    otherwise ``zraft`` (the historical stand-in).
    """
    return "escape-noppf" if "escape-noppf" in result.axes["protocol"] else "zraft"


def ppf_pair_swept(result: GridResult) -> bool:
    """Whether both full ESCAPE and a no-PPF baseline were swept."""
    swept = result.axes["protocol"]
    return "escape" in swept and no_ppf_baseline(result) in swept


def ppf_benefit_percent(result: GridResult, loss_rate: float) -> float:
    """Reduction of full ESCAPE vs the no-PPF baseline."""
    return reduction_percent(
        result.cell(
            protocol=no_ppf_baseline(result), loss_rate=loss_rate
        ).mean_total_ms(),
        result.cell(protocol="escape", loss_rate=loss_rate).mean_total_ms(),
    )


EXPERIMENT = register(
    SweepExperiment(
        name="ablation-ppf",
        title="Ablation: contribution of the Probing Patrol (PPF)",
        paper_ref="Section IV-B (ablation)",
        description=(
            "escape-noppf and zraft vs full ESCAPE under growing broadcast "
            "loss: how much of the win is the patrol"
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
                Derived("PPF benefit", ppf_benefit_percent, when=ppf_pair_swept),
            ),
        ),
    )
)
