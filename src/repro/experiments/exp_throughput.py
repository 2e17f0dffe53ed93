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
are bit-identical at any ``--workers`` count and across both engines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro import protocols as protocol_registry
from repro.chaos.plans import DEFAULT_HORIZON_MS, ChaosPlan, build_plan
from repro.cluster.catalog import get_condition
from repro.common.errors import ConfigurationError
from repro.common.types import Milliseconds
from repro.experiments.base import ProgressCallback
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec, ExporterBinding
from repro.metrics.tables import render_table
from repro.obs.trace import archive_election_traces
from repro.workload import WorkloadAggregate
from repro.workload import specs as workload_specs
from repro.workload.scenario import ThroughputScenario

#: The default plan: the steady-state cost of elections themselves.
DEFAULT_PLAN: str = "repeated-leader-kill"

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


@dataclass(frozen=True)
class ThroughputResult:
    """Workload aggregates per (protocol, workload) cell under one plan."""

    plan: ChaosPlan
    protocols: tuple[str, ...]
    workloads: tuple[str, ...]
    cluster_size: int
    runs: int
    condition: str | None
    by_label: Mapping[str, WorkloadAggregate]

    def aggregate_for(self, protocol: str, workload: str) -> WorkloadAggregate:
        """The aggregate for one (protocol, workload) cell."""
        return self.by_label[throughput_label(protocol, workload)]

    def ops_per_s_for(self, protocol: str, workload: str) -> float:
        """Sustained committed throughput for one cell."""
        return self.aggregate_for(protocol, workload).ops_per_s()


def build_scenarios(
    plan: ChaosPlan,
    protocols: Sequence[str] = PROTOCOLS,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    cluster_size: int = DEFAULT_CLUSTER_SIZE,
    condition: str | None = None,
) -> dict[str, ThroughputScenario]:
    """One scenario per (protocol, workload) cell, sharing one chaos plan.

    A paired design twice over: every protocol faces the identical fault
    timeline, and every workload shape runs against every protocol, so cell
    differences are protocol behaviour, not luck.  Protocols that livelock
    by design are rejected up front.
    """
    base = ThroughputScenario(
        protocol="raft", cluster_size=cluster_size, plan=plan
    )
    if condition is not None:
        resolved = get_condition(condition)
        base = replace(base, latency=resolved.latency, fault=resolved.fault)
    scenarios: dict[str, ThroughputScenario] = {}
    for workload in workloads:
        workload_specs.get(workload)
        for protocol in protocols:
            if not protocol_registry.get(protocol).guarantees_liveness:
                raise ConfigurationError(
                    f"protocol {protocol!r} does not guarantee leader "
                    "election (it livelocks by design) and cannot serve a "
                    "workload"
                )
            scenarios[throughput_label(protocol, workload)] = replace(
                base, protocol=protocol, workload=workload
            )
    return scenarios


def run(
    runs: int = 5,
    seed: int = 0,
    plan: str | ChaosPlan = DEFAULT_PLAN,
    protocols: Sequence[str] = PROTOCOLS,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    cluster_size: int = DEFAULT_CLUSTER_SIZE,
    horizon_ms: Milliseconds = DEFAULT_HORIZON_MS,
    condition: str | None = None,
    progress: ProgressCallback | None = None,
    workers: int | None = 1,
    checkpoint: str | None = None,
    trace: str | None = None,
) -> ThroughputResult:
    """Execute the throughput sweep (optionally fanned out over *workers*).

    Args:
        plan: a catalog plan name (built for *horizon_ms* with *seed*
            jitter) or a pre-built :class:`ChaosPlan` (its own horizon wins).
        workloads: registered workload names, one sweep row each.
        condition: optional named network condition from
            :mod:`repro.cluster.catalog` layered under the chaos plan.
        checkpoint: directory in which completed chunks persist, so a
            killed sweep resumes bit-identically.
        trace: directory into which one traced episode per cell is archived
            afterwards (JSONL + telemetry snapshots).
    """
    from repro.experiments.runner import run_sweep

    resolved_plan = (
        plan if isinstance(plan, ChaosPlan) else build_plan(plan, horizon_ms, seed)
    )
    scenarios = build_scenarios(
        resolved_plan, protocols, workloads, cluster_size, condition=condition
    )
    by_label = run_sweep(
        scenarios,
        runs=runs,
        seed=seed,
        progress=progress,
        workers=workers,
        container=WorkloadAggregate,
        checkpoint=checkpoint,
    )
    if trace is not None:
        archive_election_traces(scenarios, seed, trace)
    return ThroughputResult(
        plan=resolved_plan,
        protocols=tuple(protocols),
        workloads=tuple(workloads),
        cluster_size=cluster_size,
        runs=runs,
        condition=condition,
        by_label=by_label,
    )


def report(result: ThroughputResult) -> str:
    """Render the per-cell serving table.

    One row per (workload, protocol): sustained ops/sec, commit-latency
    percentiles, the election-window throughput dip, client drops while
    leaderless and ops lost per failover.  Derived from the aggregates
    alone: the sweep never retains episodes.
    """
    headers = [
        "workload",
        "protocol",
        "ops/s",
        "p50 (ms)",
        "p99 (ms)",
        "p99.9 (ms)",
        "dip",
        "dropped/run",
        "lost/failover",
        "outages/run",
    ]
    rows = []
    for workload in result.workloads:
        for protocol in result.protocols:
            aggregate = result.aggregate_for(protocol, workload)
            with_latency = aggregate.latency_ms.count > 0
            rows.append(
                [
                    workload,
                    protocol_registry.title(protocol),
                    f"{aggregate.ops_per_s():.1f}",
                    f"{aggregate.p50_ms():.0f}" if with_latency else "-",
                    f"{aggregate.p99_ms():.0f}" if with_latency else "-",
                    f"{aggregate.p999_ms():.0f}" if with_latency else "-",
                    f"{aggregate.election_dip_percent():.1f}%",
                    f"{aggregate.dropped_per_run():.1f}",
                    f"{aggregate.lost_per_failover():.2f}",
                    f"{aggregate.outages_per_run():.1f}",
                ]
            )
    condition_note = f", condition={result.condition}" if result.condition else ""
    return render_table(
        headers=headers,
        rows=rows,
        title=(
            "Throughput under elections — "
            f"{result.plan.describe()} "
            f"(s={result.cluster_size}, {result.runs} runs per cell"
            f"{condition_note})"
        ),
    )


def registry_run(*, scenario: str | None = None, **kwargs) -> ThroughputResult:
    """Registry adapter: ``scenario`` is the layered network condition."""
    return run(condition=scenario, **kwargs)


def workload_aggregate_to_row(
    label: str, aggregate: WorkloadAggregate
) -> dict[str, object]:
    """Flatten one :class:`WorkloadAggregate` into a scalar ``rows`` dict."""
    with_latency = aggregate.latency_ms.count > 0
    return {
        "label": label,
        "runs": aggregate.runs,
        "proposed": aggregate.proposed,
        "committed": aggregate.committed,
        "retries": aggregate.retries,
        "dropped": aggregate.dropped,
        "rejected": aggregate.rejected,
        "lost": aggregate.lost,
        "outages": aggregate.outages,
        "ops_per_s": round(aggregate.ops_per_s(), 3),
        "dip_percent": round(aggregate.election_dip_percent(), 3),
        "lost_per_failover": round(aggregate.lost_per_failover(), 6),
        "p50_ms": round(aggregate.p50_ms(), 3) if with_latency else None,
        "p99_ms": round(aggregate.p99_ms(), 3) if with_latency else None,
        "p999_ms": round(aggregate.p999_ms(), 3) if with_latency else None,
        "mean_ms": (
            round(aggregate.latency_ms.mean, 3) if with_latency else None
        ),
        "max_ms": (
            round(aggregate.latency_ms.maximum, 3) if with_latency else None
        ),
    }


def _export_rows(result: ThroughputResult) -> list[dict[str, object]]:
    """Exporter binding: one aggregate row per (protocol, workload) cell."""
    return [
        workload_aggregate_to_row(label, aggregate)
        for label, aggregate in result.by_label.items()
    ]


SPEC = register(
    ExperimentSpec(
        name="throughput",
        title="Commit latency and goodput under elections",
        paper_ref="Sections I-II (implied, never measured)",
        description=(
            "registered workloads issue tracked client requests while every "
            "protocol rides the same chaos plan; reports ops/sec, p50/p99/"
            "p999 commit latency, election-window dips and failover losses"
        ),
        run=registry_run,
        reporter=report,
        default_runs=5,
        params={
            "cluster_size": DEFAULT_CLUSTER_SIZE,
            "horizon_ms": DEFAULT_HORIZON_MS,
            "workloads": DEFAULT_WORKLOADS,
        },
        quick_params={"horizon_ms": QUICK_HORIZON_MS},
        supports_scenario=True,
        supports_protocols=True,
        supports_plan=True,
        supports_checkpoint=True,
        supports_trace=True,
        exporter=ExporterBinding(kind="rows", extract=_export_rows),
    )
)
