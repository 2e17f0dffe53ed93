"""Availability experiment: steady-state uptime under a chaos plan.

Every figure of the paper measures a *single* crash → re-election episode;
the argument that motivates them -- "every leaderless interval is downtime,
so faster elections mean higher availability" -- is the end-to-end claim the
paper implies but never measures.  This experiment closes that gap: each
registered (liveness-guaranteeing) protocol runs the *same* deterministic
chaos plan from :data:`repro.chaos.plans.CHAOS_CATALOG` over a long horizon,
with a client workload proposing throughout, and the report compares the
availability fraction, outage recovery latencies, and the client-side
proposal counts.

Any chaos plan can be selected (``--plan NAME`` on the CLI) and any network
condition from :mod:`repro.cluster.catalog` can be layered underneath
(``--scenario NAME``), so the same harness answers "how much uptime does
ESCAPE buy under partition flaps on a two-region WAN?".
"""

from __future__ import annotations

from repro import protocols as protocol_registry
from repro.chaos.plans import DEFAULT_HORIZON_MS, ChaosPlan
from repro.chaos.scenario import ChaosScenario
from repro.cluster.catalog import network_specs
from repro.common.types import Milliseconds
from repro.experiments.registry import register
from repro.experiments.sweep import (
    Axis,
    Column,
    Derived,
    GridResult,
    RowHeader,
    SweepExperiment,
    Table,
)
from repro.metrics.records import AvailabilitySet

#: The protocols compared (the paper's three-way comparison), validated
#: against the registry.
PROTOCOLS: tuple[str, ...] = protocol_registry.PAPER_PROTOCOLS

#: Five servers: the paper's testbed size (Section VI-A).
DEFAULT_CLUSTER_SIZE: int = 5

#: Shortened horizon for ``--quick`` smoke passes.
QUICK_HORIZON_MS: Milliseconds = 30_000.0


def protocol_label(protocol: str) -> str:
    """Cells are labelled by protocol alone: one plan, one condition."""
    return protocol


def scenario(
    protocol: str, cluster_size: int, plan: ChaosPlan, condition: str | None
) -> ChaosScenario:
    """The scenario of one protocol, sharing the sweep's one chaos plan.

    A paired design: every protocol faces the identical fault timeline (and
    network condition, when one is layered underneath), so differences in
    the availability fraction are election behaviour, not luck.
    """
    return ChaosScenario(
        protocol=protocol,
        cluster_size=cluster_size,
        plan=plan,
        workload_interval_ms=250.0,
        **network_specs(condition),
    )


def raft_swept(result: GridResult) -> bool:
    """Whether Raft is present as the downtime baseline."""
    return "raft" in result.axes["protocol"]


def downtime_saved_vs_raft(result: GridResult, protocol: str) -> float:
    """Leaderless-time reduction of *protocol* vs Raft, in percent."""
    raft = result.cell(protocol="raft").mean_leaderless_ms()
    if raft <= 0.0:
        return 0.0
    other = result.cell(protocol=protocol).mean_leaderless_ms()
    return 100.0 * (raft - other) / raft


EXPERIMENT = register(
    SweepExperiment(
        name="avail",
        title="Steady-state availability under chaos plans",
        paper_ref="Sections I-II (implied, never measured)",
        description=(
            "every liveness protocol runs the same chaos fault timeline "
            "with a client workload; uptime is the end-to-end quantity "
            "faster elections are supposed to buy"
        ),
        default_runs=10,
        axes=(
            Axis("protocols", PROTOCOLS, coord="protocol"),
            Axis("cluster_size", DEFAULT_CLUSTER_SIZE),
            Axis("horizon_ms", DEFAULT_HORIZON_MS, quick=QUICK_HORIZON_MS),
        ),
        label=protocol_label,
        scenario=scenario,
        container=AvailabilitySet,
        table=Table(
            title=(
                "Steady-state availability — {plan} "
                "(s={cluster_size}, {runs} runs per protocol{condition_note})"
            ),
            rows=(RowHeader("protocol", "protocol", protocol_registry.title),),
            columns=(
                Column("availability", "mean_availability", "{:.2%}"),
                Derived(
                    "downtime saved vs Raft",
                    downtime_saved_vs_raft,
                    when=raft_swept,
                    format="{:+.1f}%",
                ),
                Column("leaderless ms/run", "mean_leaderless_ms"),
                Column("outages/run", "mean_outages", "{:.1f}"),
                Column("mean recovery (ms)", "mean_recovery_ms"),
                Column("disruptions/run", "mean_disruptions", "{:.1f}"),
                Column("proposals ok", "total_proposed", "{}"),
                Column("dropped", "total_dropped", "{}"),
            ),
        ),
    )
)
