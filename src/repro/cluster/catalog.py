"""A catalog of named network conditions for the experiment harness.

The paper evaluates under exactly one network: uniform 100-200 ms NetEm
latency, optionally with broadcast omission (Section VI-D).  Its *motivation*,
however, is much broader -- Section II-B argues that geo-distributed
deployments with low in-group and high between-group latency breed split
votes.  This catalog names that whole space: each
:class:`NetworkCondition` bundles a declarative latency spec and fault spec
(see :mod:`repro.net.specs`) under a stable name, so experiments, the CLI
(``--scenario NAME``) and the benchmarks can all select conditions by name.

Every condition is cluster-size independent and picklable, so a scenario
built from one round-trips through the parallel sweep engine's process pool
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.scenarios import ElectionScenario
from repro.common.errors import ConfigurationError
from repro.net.specs import (
    BroadcastOmissionSpec,
    CompositeFaultSpec,
    DuplicationSpec,
    FaultSpec,
    GeoLatencySpec,
    LatencySpec,
    LogNormalLatencySpec,
    NoFaultSpec,
    PacketLossSpec,
    UniformLatencySpec,
)

__all__ = [
    "CATALOG",
    "NetworkCondition",
    "condition_names",
    "get_condition",
    "network_specs",
    "registered_specs",
    "scenario_for",
    "catalog_scenarios",
]


@dataclass(frozen=True)
class NetworkCondition:
    """One named network condition: a latency spec plus a fault spec."""

    name: str
    description: str
    latency: LatencySpec
    fault: FaultSpec

    def apply(self, scenario: ElectionScenario) -> ElectionScenario:
        """The same scenario, running under this network condition.

        The shorthand fields (``latency_range``/``loss_rate``) are cleared so
        the condition's specs are authoritative.
        """
        return replace(
            scenario, latency=self.latency, fault=self.fault, loss_rate=0.0
        )


def _conditions(*conditions: NetworkCondition) -> dict[str, NetworkCondition]:
    return {condition.name: condition for condition in conditions}


#: Every named condition, in presentation order.
CATALOG: dict[str, NetworkCondition] = _conditions(
    NetworkCondition(
        name="paper-default",
        description=(
            "The paper's testbed (Section VI-A): uniform 100-200 ms NetEm "
            "latency, healthy network."
        ),
        latency=UniformLatencySpec(100.0, 200.0),
        fault=NoFaultSpec(),
    ),
    NetworkCondition(
        name="geo-two-region",
        description=(
            "Two-region WAN (Section II-B): 5-15 ms inside a region, "
            "150-250 ms across the split."
        ),
        latency=GeoLatencySpec(
            region_count=2, intra_ms=(5.0, 15.0), inter_ms=(150.0, 250.0)
        ),
        fault=NoFaultSpec(),
    ),
    NetworkCondition(
        name="geo-three-region",
        description=(
            "Three-region WAN: 5-15 ms inside a region, 120-220 ms across "
            "regions (the example deployment of Section II-B)."
        ),
        latency=GeoLatencySpec(
            region_count=3, intra_ms=(5.0, 15.0), inter_ms=(120.0, 220.0)
        ),
        fault=NoFaultSpec(),
    ),
    NetworkCondition(
        name="heavy-tail",
        description=(
            "Heavy-tailed wide-area latency: log-normal with a 150 ms median "
            "and occasional multi-second stragglers."
        ),
        latency=LogNormalLatencySpec(median_ms=150.0, sigma=0.8, max_ms=5_000.0),
        fault=NoFaultSpec(),
    ),
    NetworkCondition(
        name="lossy-unicast",
        description=(
            "NetEm-style i.i.d. loss: 10 % of every message (unicast and "
            "broadcast alike) is dropped, unlike the paper's broadcast-only "
            "omission model."
        ),
        latency=UniformLatencySpec(100.0, 200.0),
        fault=PacketLossSpec(0.1),
    ),
    NetworkCondition(
        name="dup-heavy-udp",
        description=(
            "UDP-style duplication: a fast LAN where 30 % of messages arrive "
            "twice, stressing RPC idempotence."
        ),
        latency=UniformLatencySpec(20.0, 60.0),
        fault=DuplicationSpec(0.3),
    ),
    NetworkCondition(
        name="chaos-composite",
        description=(
            "Everything at once: heavy-tailed latency with broadcast "
            "omission (20 %), i.i.d. loss (5 %) and duplication (10 %)."
        ),
        latency=LogNormalLatencySpec(median_ms=150.0, sigma=0.5, max_ms=5_000.0),
        fault=CompositeFaultSpec(
            parts=(
                BroadcastOmissionSpec(0.2),
                PacketLossSpec(0.05),
                DuplicationSpec(0.1),
            )
        ),
    ),
)


def condition_names() -> tuple[str, ...]:
    """Every catalog condition name, in presentation order."""
    return tuple(CATALOG)


def registered_specs() -> tuple[tuple[str, NetworkCondition], ...]:
    """``(name, condition)`` pairs for introspection tooling (``repro.lint`` S1)."""
    return tuple(CATALOG.items())


def get_condition(name: str) -> NetworkCondition:
    """Look a condition up by name.

    Raises:
        ConfigurationError: naming the available conditions when *name* is
            unknown.
    """
    try:
        return CATALOG[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown scenario condition {name!r}; "
            f"available: {', '.join(CATALOG)}"
        ) from exc


def network_specs(name: str | None) -> dict[str, object]:
    """The ``latency``/``fault`` keywords layering an optional named condition
    under any scenario type (none for ``None``)."""
    if name is None:
        return {}
    condition = get_condition(name)
    return {"latency": condition.latency, "fault": condition.fault}


def scenario_for(
    condition: NetworkCondition | str,
    protocol: str,
    cluster_size: int,
    **overrides: object,
) -> ElectionScenario:
    """An :class:`ElectionScenario` running under a catalog condition.

    Args:
        condition: a condition or its catalog name.
        protocol: any protocol name registered in :mod:`repro.protocols`
            (an unknown name fails fast with the list of registered ones).
        cluster_size: number of servers.
        **overrides: any other :class:`ElectionScenario` field (e.g.
            ``workload_interval_ms=50.0``).  Overrides are applied *after*
            the condition, so an explicit ``latency``/``fault`` override
            replaces the condition's spec.  The ``latency_range`` and
            ``loss_rate`` shorthands are rejected here: the condition's
            specs would shadow them, and a silently ignored override is
            worse than an error.
    """
    if isinstance(condition, str):
        condition = get_condition(condition)
    shadowed = sorted({"latency_range", "loss_rate"} & overrides.keys())
    if shadowed:
        raise ConfigurationError(
            f"override(s) {', '.join(shadowed)} would be shadowed by condition "
            f"{condition.name!r}'s specs; override 'latency'/'fault' with an "
            "explicit spec instead"
        )
    scenario = condition.apply(
        ElectionScenario(protocol=protocol, cluster_size=cluster_size)
    )
    if overrides:
        scenario = replace(scenario, **overrides)  # type: ignore[arg-type]
    return scenario


def catalog_scenarios(
    protocol: str, cluster_size: int, **overrides: object
) -> dict[str, ElectionScenario]:
    """One scenario per catalog condition (for whole-catalog sweeps)."""
    return {
        name: scenario_for(condition, protocol, cluster_size, **overrides)
        for name, condition in CATALOG.items()
    }
