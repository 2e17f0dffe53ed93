"""Throughput experiment: commit latency and goodput under elections.

The paper's figures measure election time; what a client feels is commit
latency and requests lost while the cluster re-elects.  This experiment runs
every compared protocol under the *same* chaos plan while a registered
workload (see :mod:`repro.workload.specs`) issues and tracks client
requests, and reports the client-side serving quantities: sustained ops/sec,
p50/p99/p99.9 commit latency, the throughput dip carved out by election
windows, drops while leaderless, and ops lost per failover
(proposed-but-never-committed, verified against the surviving log).

Every capability of the harness applies: ``--plan`` selects the fault
timeline, ``--scenario`` layers a network condition underneath,
``--protocols`` changes the comparison, ``--checkpoint`` makes the sweep
resumable, and ``--trace-out`` archives one traced episode per cell.
Latencies feed :class:`~repro.metrics.streaming.StreamingSummary`, so results
are bit-identical at any ``--workers`` count.
"""

from __future__ import annotations

from repro import protocols as protocol_registry
from repro.chaos.plans import DEFAULT_HORIZON_MS, ChaosPlan
from repro.cluster.catalog import network_specs
from repro.common.types import Milliseconds
from repro.experiments.registry import register
from repro.experiments.sweep import Axis, Column, RowHeader, SweepExperiment, Table
from repro.workload.aggregate import WorkloadAggregate
from repro.workload.scenario import ThroughputScenario

#: The protocols compared (the paper's three-way comparison).
PROTOCOLS: tuple[str, ...] = protocol_registry.PAPER_PROTOCOLS

#: The default workload pair: one closed-loop and one open-loop shape.
DEFAULT_WORKLOADS: tuple[str, ...] = ("closed-loop", "open-poisson")

#: Five servers: the paper's testbed size (Section VI-A).
DEFAULT_CLUSTER_SIZE: int = 5

#: Shortened horizon for ``--quick`` smoke passes.
QUICK_HORIZON_MS: Milliseconds = 30_000.0


def throughput_label(protocol: str, workload: str) -> str:
    """Label for one (protocol, workload) cell, e.g. ``"escape/closed-loop"``."""
    return f"{protocol}/{workload}"


def scenario(
    protocol: str,
    workload: str,
    cluster_size: int,
    plan: ChaosPlan,
    condition: str | None,
) -> ThroughputScenario:
    """The scenario of one (protocol, workload) cell, sharing one chaos plan.

    A paired design twice over: every protocol faces the identical fault
    timeline, and every workload shape runs against every protocol, so cell
    differences are protocol behaviour, not luck.  An unregistered workload
    name is rejected by the scenario itself.
    """
    return ThroughputScenario(
        protocol=protocol,
        cluster_size=cluster_size,
        plan=plan,
        workload=workload,
        **network_specs(condition),
    )


EXPERIMENT = register(
    SweepExperiment(
        name="throughput",
        title="Commit latency and goodput under elections",
        paper_ref="Sections I-II (implied, never measured)",
        description=(
            "registered workloads issue tracked client requests while every "
            "protocol rides the same chaos plan; reports ops/sec, p50/p99/"
            "p999 commit latency, election-window dips and failover losses"
        ),
        default_runs=5,
        axes=(
            Axis("workloads", DEFAULT_WORKLOADS, coord="workload"),
            Axis("protocols", PROTOCOLS, coord="protocol"),
            Axis("cluster_size", DEFAULT_CLUSTER_SIZE),
            Axis("horizon_ms", DEFAULT_HORIZON_MS, quick=QUICK_HORIZON_MS),
        ),
        label=throughput_label,
        scenario=scenario,
        container=WorkloadAggregate,
        table=Table(
            title=(
                "Throughput under elections — {plan} "
                "(s={cluster_size}, {runs} runs per cell{condition_note})"
            ),
            rows=(
                RowHeader("workload", "workload"),
                RowHeader("protocol", "protocol", protocol_registry.title),
            ),
            columns=(
                Column("ops/s", "ops_per_s", "{:.1f}"),
                Column("p50 (ms)", "p50_ms"),
                Column("p99 (ms)", "p99_ms"),
                Column("p99.9 (ms)", "p999_ms"),
                Column("dip", "election_dip_percent", "{:.1f}%"),
                Column("dropped/run", "dropped_per_run", "{:.1f}"),
                Column("lost/failover", "lost_per_failover", "{:.2f}"),
                Column("outages/run", "outages_per_run", "{:.1f}"),
            ),
        ),
    )
)
