"""A catalog of named network conditions for the experiment harness.

The paper evaluates under exactly one network: uniform 100-200 ms NetEm
latency, optionally with broadcast omission (Section VI-D).  Its *motivation*,
however, is much broader -- Section II-B argues that geo-distributed
deployments with low in-group and high between-group latency breed split
votes.  This catalog names that whole space: each
:class:`NetworkCondition` bundles a latency model and a fault injector (the
:mod:`repro.net.latency` / :mod:`repro.net.faults` values themselves; a
:class:`~repro.net.latency.GeoLatencySpec` where the model depends on the
membership) under a stable name, so experiments, the CLI
(``--scenario NAME``) and the benchmarks can all select conditions by name.
:func:`network_specs` is the one way to layer a condition on a scenario of
any type: ``ElectionScenario("escape", 9, **network_specs("geo-two-region"))``.

Every condition is cluster-size independent and picklable, so a scenario
built from one round-trips through the parallel sweep engine's process pool
deterministically.
"""

from __future__ import annotations


from repro.common.frozen import value_object
from repro.common.registry import Registry
from repro.net.faults import (
    BroadcastOmissionFault,
    CompositeFault,
    FaultInjector,
    MessageDuplicationFault,
    NoFault,
    PacketLossFault,
)
from repro.net.latency import (
    PAPER_LATENCY,
    GeoLatencySpec,
    LatencyModel,
    LogNormalLatency,
    UniformLatency,
)

__all__ = ["CATALOG", "NetworkCondition", "network_specs"]


@value_object
class NetworkCondition:
    """One named network condition: a latency model plus a fault injector."""

    name: str
    description: str
    latency: LatencyModel | GeoLatencySpec
    fault: FaultInjector


#: Every named condition, in presentation order.
CATALOG: Registry[NetworkCondition] = Registry(
    "scenario condition",
    (
        NetworkCondition(
            name="paper-default",
            description=(
                "The paper's testbed (Section VI-A): uniform 100-200 ms NetEm "
                "latency, healthy network."
            ),
            latency=PAPER_LATENCY,
            fault=NoFault(),
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
            fault=NoFault(),
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
            fault=NoFault(),
        ),
        NetworkCondition(
            name="heavy-tail",
            description=(
                "Heavy-tailed wide-area latency: log-normal with a 150 ms median "
                "and occasional multi-second stragglers."
            ),
            latency=LogNormalLatency(median_ms=150.0, sigma=0.8, max_ms=5_000.0),
            fault=NoFault(),
        ),
        NetworkCondition(
            name="lossy-unicast",
            description=(
                "NetEm-style i.i.d. loss: 10 % of every message (unicast and "
                "broadcast alike) is dropped, unlike the paper's broadcast-only "
                "omission model."
            ),
            latency=PAPER_LATENCY,
            fault=PacketLossFault(0.1),
        ),
        NetworkCondition(
            name="dup-heavy-udp",
            description=(
                "UDP-style duplication: a fast LAN where 30 % of messages arrive "
                "twice, stressing RPC idempotence."
            ),
            latency=UniformLatency(20.0, 60.0),
            fault=MessageDuplicationFault(0.3),
        ),
        NetworkCondition(
            name="chaos-composite",
            description=(
                "Everything at once: heavy-tailed latency with broadcast "
                "omission (20 %), i.i.d. loss (5 %) and duplication (10 %)."
            ),
            latency=LogNormalLatency(median_ms=150.0, sigma=0.5, max_ms=5_000.0),
            fault=CompositeFault(
                injectors=(
                    BroadcastOmissionFault(0.2),
                    PacketLossFault(0.05),
                    MessageDuplicationFault(0.1),
                )
            ),
        ),
    ),
)


def network_specs(name: str | None) -> dict[str, object]:
    """The ``latency``/``fault`` keywords layering an optional named condition
    under any scenario type (none for ``None``).

    Raises:
        ConfigurationError: listing the catalog's names when *name* is unknown.
    """
    if name is None:
        return {}
    condition = CATALOG.get(name)
    return {"latency": condition.latency, "fault": condition.fault}
