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

from repro.cluster.scenarios import ElectionScenario
from repro.common.config import ScaParameters
from repro.experiments.registry import register
from repro.experiments.sweep import Axis, Column, RowHeader, SweepExperiment, Table
from repro.metrics.records import MeasurementSet

DEFAULT_SIZE = 16
DEFAULT_K_VALUES: tuple[float, ...] = (50.0, 100.0, 200.0, 500.0, 1000.0)


def k_label(k_ms: float) -> str:
    return f"k={k_ms:.0f}ms"


def scenario(k_ms: float, cluster_size: int) -> ElectionScenario:
    """ESCAPE at one value of the priority gap (base time as in the paper)."""
    return ElectionScenario(
        protocol="escape",
        cluster_size=cluster_size,
        sca=ScaParameters(base_time_ms=1500.0, k_ms=k_ms),
    )


EXPERIMENT = register(
    SweepExperiment(
        name="ablation-k",
        title="Ablation: ESCAPE sensitivity to the priority gap k",
        paper_ref="Eq. 1 / Section IV-A",
        description=(
            "sweep the Eq. 1 priority-gap constant: small k costs extra "
            "campaigns, large k just adds the base timeout"
        ),
        default_runs=30,
        axes=(
            Axis("k_values", DEFAULT_K_VALUES, coord="k_ms"),
            Axis("cluster_size", DEFAULT_SIZE),
        ),
        label=k_label,
        scenario=scenario,
        container=MeasurementSet,
        table=Table(
            title=(
                "Ablation — ESCAPE sensitivity to k (Eq. 1) at {cluster_size} "
                "servers ({runs} runs per value)"
            ),
            rows=(RowHeader("k_ms", "priority gap k", k_label),),
            columns=(
                Column("mean election (ms)", "mean_total_ms"),
                Column("campaigns/run", "mean_campaigns", "{:.2f}"),
                Column("split votes", "split_vote_fraction", "{:.1%}"),
            ),
        ),
    )
)
