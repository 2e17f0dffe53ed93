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

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import protocols as protocol_registry
from repro.cluster.catalog import get_condition, scenario_for
from repro.cluster.scenarios import ElectionScenario
from repro.experiments.base import ProgressCallback
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec, ExporterBinding
from repro.metrics.records import MeasurementSet
from repro.metrics.stats import reduction_percent
from repro.metrics.tables import render_table

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


@dataclass(frozen=True)
class WanResult:
    """Measurements per (protocol, network condition)."""

    conditions: tuple[str, ...]
    protocols: tuple[str, ...]
    cluster_size: int
    runs: int
    by_label: Mapping[str, MeasurementSet]

    def measurements_for(self, protocol: str, condition: str) -> MeasurementSet:
        """Measurements for one protocol under one condition."""
        return self.by_label[cell_label(protocol, condition)]

    def average_for(self, protocol: str, condition: str) -> float:
        """Average election time for one cell."""
        return self.measurements_for(protocol, condition).mean_total_ms()

    def split_vote_fraction_for(self, protocol: str, condition: str) -> float:
        """Fraction of runs that hit at least one split vote."""
        return self.measurements_for(protocol, condition).split_vote_fraction()

    def reduction_vs_raft(self, protocol: str, condition: str) -> float:
        """Percentage reduction of *protocol* vs Raft for one condition."""
        return reduction_percent(
            self.average_for("raft", condition),
            self.average_for(protocol, condition),
        )


def cell_label(protocol: str, condition: str) -> str:
    """Label for one cell, e.g. ``"escape+geo-two-region"``."""
    return f"{protocol}+{condition}"


def build_scenarios(
    conditions: Sequence[str] = WAN_CONDITIONS,
    protocols: Sequence[str] = PROTOCOLS,
    cluster_size: int = DEFAULT_CLUSTER_SIZE,
) -> dict[str, ElectionScenario]:
    """One scenario per (protocol, condition) cell.

    Conditions are resolved through the catalog up front, so an unknown name
    fails fast with the list of valid ones.
    """
    resolved = {name: get_condition(name) for name in conditions}
    scenarios: dict[str, ElectionScenario] = {}
    for name, condition in resolved.items():
        for protocol in protocols:
            scenarios[cell_label(protocol, name)] = scenario_for(
                condition, protocol, cluster_size
            )
    return scenarios


def run(
    runs: int = 30,
    seed: int = 0,
    conditions: Sequence[str] = WAN_CONDITIONS,
    protocols: Sequence[str] = PROTOCOLS,
    cluster_size: int = DEFAULT_CLUSTER_SIZE,
    progress: ProgressCallback | None = None,
    workers: int | None = 1,
) -> WanResult:
    """Execute the WAN sweep (optionally fanned out over *workers*)."""
    from repro.experiments.runner import run_sweep

    scenarios = build_scenarios(conditions, protocols, cluster_size)
    by_label = run_sweep(
        scenarios, runs=runs, seed=seed, progress=progress, workers=workers
    )
    return WanResult(
        conditions=tuple(conditions),
        protocols=tuple(protocols),
        cluster_size=cluster_size,
        runs=runs,
        by_label=by_label,
    )


def report(result: WanResult) -> str:
    """Render averages, reductions vs Raft and split-vote rates per condition.

    Columns adapt to the protocols actually swept (display labels come from
    the protocol registry); the reduction column only appears when both Raft
    and ESCAPE are present.
    """
    with_reduction = {"raft", "escape"} <= set(result.protocols)
    headers = ["condition"]
    headers += [
        f"{protocol_registry.title(protocol)} (ms)"
        for protocol in result.protocols
    ]
    if with_reduction:
        headers.append("ESCAPE vs Raft")
    headers += [
        f"{protocol_registry.title(protocol)} split votes"
        for protocol in result.protocols
    ]
    rows = []
    for condition in result.conditions:
        row = [condition]
        row += [
            f"{result.average_for(protocol, condition):.0f}"
            for protocol in result.protocols
        ]
        if with_reduction:
            row.append(f"{result.reduction_vs_raft('escape', condition):.1f}%")
        row += [
            f"{100 * result.split_vote_fraction_for(protocol, condition):.1f}%"
            for protocol in result.protocols
        ]
        rows.append(row)
    return render_table(
        headers=headers,
        rows=rows,
        title=(
            "WAN failover — leader election time per network condition "
            f"(s={result.cluster_size}, {result.runs} runs per cell)"
        ),
    )


def registry_run(
    *,
    scenario: str | None = None,
    conditions: Sequence[str] = WAN_CONDITIONS,
    **kwargs,
) -> WanResult:
    """Registry adapter: ``scenario`` narrows the grid to one condition."""
    if scenario is not None:
        conditions = (scenario,)
    return run(conditions=conditions, **kwargs)


def _export_measurements(result: WanResult) -> Mapping[str, MeasurementSet]:
    """Exporter binding: the per-(protocol, condition) measurement sets."""
    return result.by_label


SPEC = register(
    ExperimentSpec(
        name="wan",
        title="WAN failover across geo-distributed region splits",
        paper_ref="Section II-B (described, never measured)",
        description=(
            "the paper's geo-distributed split-vote setting, measured: flat "
            "network vs two- and three-region WAN splits"
        ),
        run=registry_run,
        reporter=report,
        default_runs=30,
        params={
            "conditions": WAN_CONDITIONS,
            "cluster_size": DEFAULT_CLUSTER_SIZE,
        },
        quick_params={"cluster_size": 6},
        supports_scenario=True,
        supports_protocols=True,
        capability_overrides={"scenario": "conditions"},
        exporter=ExporterBinding(kind="election", extract=_export_measurements),
    )
)
