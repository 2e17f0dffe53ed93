"""WAN experiment: failover across geo-distributed region splits.

Section II-B of the paper argues that geo-distributed deployments -- low
in-group latency, high between-group latency -- are especially prone to split
votes: a candidate gathers its local region's votes almost instantly, then
stalls against equally fast candidates in the other regions.  The paper
describes this setting but never measures it (the testbed is a single
data-centre with uniform NetEm latency).  This experiment closes that gap:
Raft, Z-Raft and ESCAPE run the same leader-failure episodes under named
network conditions from :mod:`repro.cluster.catalog`, by default sweeping the
flat paper network against two- and three-region WAN splits.

Any catalog condition can be substituted (``--scenario NAME`` on the CLI), so
the same harness also answers "how do the protocols fare under heavy-tailed
latency / i.i.d. loss / duplication / chaos?".
"""

from __future__ import annotations

from repro import protocols as protocol_registry
from repro.cluster.catalog import network_specs
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

#: The default condition grid: the paper's flat network vs WAN region splits.
WAN_CONDITIONS: tuple[str, ...] = (
    "paper-default",
    "geo-two-region",
    "geo-three-region",
)

#: The protocols compared (the full three-way comparison of Figure 11),
#: validated against the registry.
PROTOCOLS: tuple[str, ...] = protocol_registry.PAPER_PROTOCOLS

#: Nine servers: three per region under the three-region split, mirroring the
#: example deployment sketched in Section II-B.
DEFAULT_CLUSTER_SIZE: int = 9


def cell_label(protocol: str, condition: str) -> str:
    """Label for one cell, e.g. ``"escape+geo-two-region"``."""
    return f"{protocol}+{condition}"


def scenario(protocol: str, condition: str, cluster_size: int) -> ElectionScenario:
    """The scenario of one (protocol, condition) cell.

    The condition is resolved through the catalog, so an unknown name fails
    while the grid is built, with the list of valid ones.
    """
    return ElectionScenario(
        protocol=protocol, cluster_size=cluster_size, **network_specs(condition)
    )


EXPERIMENT = register(
    SweepExperiment(
        name="wan",
        title="WAN failover across geo-distributed region splits",
        paper_ref="Section II-B (described, never measured)",
        description=(
            "the paper's geo-distributed split-vote setting, measured: flat "
            "network vs two- and three-region WAN splits"
        ),
        default_runs=30,
        axes=(
            # --scenario NAME narrows the grid to that one condition.
            Axis("conditions", WAN_CONDITIONS, coord="condition", narrowed_by="scenario"),
            Axis("protocols", PROTOCOLS, coord="protocol"),
            Axis("cluster_size", DEFAULT_CLUSTER_SIZE, quick=6),
        ),
        label=cell_label,
        scenario=scenario,
        container=MeasurementSet,
        table=Table(
            title=(
                "WAN failover — leader election time per network condition "
                "(s={cluster_size}, {runs} runs per cell)"
            ),
            rows=(RowHeader("condition", "condition"),),
            columns=(
                PerProtocol((Column("(ms)", "mean_total_ms"),)),
                Reduction("ESCAPE vs Raft", baseline="raft", improved="escape"),
                PerProtocol((Column("split votes", "split_vote_fraction", "{:.1%}"),)),
            ),
        ),
    )
)
