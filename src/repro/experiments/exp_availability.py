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

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro import protocols as protocol_registry
from repro.chaos.plans import DEFAULT_HORIZON_MS, ChaosPlan, build_plan
from repro.chaos.scenario import ChaosScenario
from repro.cluster.catalog import get_condition
from repro.common.errors import ConfigurationError
from repro.common.types import Milliseconds
from repro.experiments.base import ProgressCallback
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec, ExporterBinding
from repro.metrics.records import AvailabilitySet
from repro.metrics.tables import render_table

#: The default plan: the steady-state cost of elections themselves.
DEFAULT_PLAN: str = "repeated-leader-kill"

#: The protocols compared (the paper's three-way comparison), validated
#: against the registry.
PROTOCOLS: tuple[str, ...] = protocol_registry.PAPER_PROTOCOLS

#: Five servers: the paper's testbed size (Section VI-A).
DEFAULT_CLUSTER_SIZE: int = 5

#: Shortened horizon for ``--quick`` smoke passes.
QUICK_HORIZON_MS: Milliseconds = 30_000.0


@dataclass(frozen=True)
class AvailabilityResult:
    """Availability measurements per protocol under one chaos plan."""

    plan: ChaosPlan
    protocols: tuple[str, ...]
    cluster_size: int
    runs: int
    condition: str | None
    by_protocol: Mapping[str, AvailabilitySet]

    def set_for(self, protocol: str) -> AvailabilitySet:
        """Measurements for one protocol."""
        return self.by_protocol[protocol]

    def availability_for(self, protocol: str) -> float:
        """Mean available fraction for one protocol."""
        return self.set_for(protocol).mean_availability()

    def downtime_saved_vs_raft(self, protocol: str) -> float:
        """Leaderless-time reduction of *protocol* vs Raft, in percent."""
        raft = self.set_for("raft").mean_leaderless_ms()
        if raft <= 0.0:
            return 0.0
        other = self.set_for(protocol).mean_leaderless_ms()
        return 100.0 * (raft - other) / raft


def build_scenarios(
    plan: ChaosPlan,
    protocols: Sequence[str] = PROTOCOLS,
    cluster_size: int = DEFAULT_CLUSTER_SIZE,
    condition: str | None = None,
    workload_interval_ms: Milliseconds = 250.0,
) -> dict[str, ChaosScenario]:
    """One scenario per protocol, all sharing the same chaos plan.

    A paired design: every protocol faces the identical fault timeline, so
    differences in the availability fraction are election behaviour, not
    luck.  Protocols that livelock by design are rejected up front -- a
    sweep must stabilise a first leader before the window can open.
    """
    base = ChaosScenario(
        protocol="raft",
        cluster_size=cluster_size,
        plan=plan,
        workload_interval_ms=workload_interval_ms,
    )
    if condition is not None:
        resolved = get_condition(condition)
        base = replace(base, latency=resolved.latency, fault=resolved.fault)
    scenarios: dict[str, ChaosScenario] = {}
    for protocol in protocols:
        if not protocol_registry.get(protocol).guarantees_liveness:
            raise ConfigurationError(
                f"protocol {protocol!r} does not guarantee leader election "
                "(it livelocks by design) and cannot run an availability "
                "sweep"
            )
        scenarios[protocol] = base.with_protocol(protocol)
    return scenarios


def run(
    runs: int = 10,
    seed: int = 0,
    plan: str | ChaosPlan = DEFAULT_PLAN,
    protocols: Sequence[str] = PROTOCOLS,
    cluster_size: int = DEFAULT_CLUSTER_SIZE,
    horizon_ms: Milliseconds = DEFAULT_HORIZON_MS,
    condition: str | None = None,
    progress: ProgressCallback | None = None,
    workers: int | None = 1,
) -> AvailabilityResult:
    """Execute the availability sweep (optionally fanned out over *workers*).

    Args:
        plan: a catalog plan name (built for *horizon_ms* with *seed* jitter)
            or a pre-built :class:`ChaosPlan` (its own horizon wins).
        condition: optional named network condition from
            :mod:`repro.cluster.catalog` layered under the chaos plan.
    """
    from repro.experiments.runner import run_sweep

    resolved_plan = (
        plan if isinstance(plan, ChaosPlan) else build_plan(plan, horizon_ms, seed)
    )
    scenarios = build_scenarios(
        resolved_plan, protocols, cluster_size, condition=condition
    )
    by_protocol = run_sweep(
        scenarios,
        runs=runs,
        seed=seed,
        progress=progress,
        workers=workers,
        container=AvailabilitySet,
    )
    return AvailabilityResult(
        plan=resolved_plan,
        protocols=tuple(protocols),
        cluster_size=cluster_size,
        runs=runs,
        condition=condition,
        by_protocol=by_protocol,
    )


def report(result: AvailabilityResult) -> str:
    """Render the per-protocol availability table.

    One row per protocol (display labels from the registry): availability
    fraction, mean leaderless time per run, outage count and mean recovery
    latency, applied disruptions, and the client's accepted/dropped proposal
    counts.  A downtime-reduction column appears when Raft is present as the
    baseline.
    """
    with_reduction = "raft" in result.protocols
    headers = [
        "protocol",
        "availability",
        "leaderless ms/run",
        "outages/run",
        "mean recovery (ms)",
        "disruptions/run",
        "proposals ok",
        "dropped",
    ]
    if with_reduction:
        headers.insert(2, "downtime saved vs Raft")
    rows = []
    for protocol in result.protocols:
        availability_set = result.set_for(protocol)
        recovery = availability_set.mean_recovery_ms()
        row: list[object] = [
            protocol_registry.title(protocol),
            f"{100.0 * availability_set.mean_availability():.2f}%",
            f"{availability_set.mean_leaderless_ms():.0f}",
            f"{availability_set.mean_outages():.1f}",
            f"{recovery:.0f}" if recovery is not None else "-",
            f"{availability_set.mean_disruptions():.1f}",
            availability_set.total_proposed(),
            availability_set.total_dropped(),
        ]
        if with_reduction:
            row.insert(2, f"{result.downtime_saved_vs_raft(protocol):+.1f}%")
        rows.append(row)
    condition_note = f", condition={result.condition}" if result.condition else ""
    return render_table(
        headers=headers,
        rows=rows,
        title=(
            "Steady-state availability — "
            f"{result.plan.describe()} "
            f"(s={result.cluster_size}, {result.runs} runs per protocol"
            f"{condition_note})"
        ),
    )


def registry_run(*, scenario: str | None = None, **kwargs) -> AvailabilityResult:
    """Registry adapter: ``scenario`` is the layered network condition."""
    return run(condition=scenario, **kwargs)


def _export_measurements(result: AvailabilityResult) -> Mapping[str, AvailabilitySet]:
    """Exporter binding: the per-protocol availability sets."""
    return result.by_protocol


SPEC = register(
    ExperimentSpec(
        name="avail",
        title="Steady-state availability under chaos plans",
        paper_ref="Sections I-II (implied, never measured)",
        description=(
            "every liveness protocol runs the same chaos fault timeline "
            "with a client workload; uptime is the end-to-end quantity "
            "faster elections are supposed to buy"
        ),
        run=registry_run,
        reporter=report,
        default_runs=10,
        params={
            "cluster_size": DEFAULT_CLUSTER_SIZE,
            "horizon_ms": DEFAULT_HORIZON_MS,
        },
        quick_params={"horizon_ms": QUICK_HORIZON_MS},
        supports_scenario=True,
        supports_protocols=True,
        supports_plan=True,
        exporter=ExporterBinding(
            kind="availability", extract=_export_measurements
        ),
    )
)
