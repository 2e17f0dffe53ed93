"""Per-message latency models.

The paper's testbed injects a uniform 100-200 ms latency with NetEm on top of
a <2 ms data-centre network (Section VI-A); :data:`PAPER_LATENCY` reproduces
that setting and is the default throughout the experiment harness.  The other
models support the geo-distributed discussion of Section II-B (low in-group,
high between-group latency) and general sensitivity analysis.

Every model is a frozen, validated, picklable dataclass, so the model a user
configures -- as a scenario's ``latency=``, or in a catalog
:class:`~repro.cluster.catalog.NetworkCondition` -- is the object the network
samples from.  The one condition that cannot be written down before the
membership is known is the geo split: :class:`GeoLatencySpec` names a region
*count*, and ``resolve(server_ids)`` binds it to a :class:`GeoGroupLatency`
for one cluster (see :func:`repro.net.faults.bind`).
"""

from __future__ import annotations

import math
import random
from dataclasses import field
from typing import Mapping, Protocol, Sequence, runtime_checkable

from repro.common.errors import ConfigurationError
from repro.common.frozen import value_object
from repro.common.types import Milliseconds, ServerId
from repro.common.validation import require_non_negative, require_ordered_pair, require_positive


@runtime_checkable
class LatencyModel(Protocol):
    """Samples the one-way latency for a single message."""

    def sample(
        self, rng: random.Random, src: ServerId, dst: ServerId
    ) -> Milliseconds:  # pragma: no cover - protocol signature
        """Return the latency in milliseconds for one message ``src -> dst``."""
        ...


@value_object
class UniformLatency:
    """Latency drawn uniformly from ``[low_ms, high_ms]`` (the paper's
    setting is :data:`PAPER_LATENCY`)."""

    low_ms: Milliseconds
    high_ms: Milliseconds

    def __post_init__(self) -> None:
        require_non_negative(self.low_ms, "low_ms")
        require_ordered_pair(self.low_ms, self.high_ms, "latency range")

    def sample(self, rng: random.Random, src: ServerId, dst: ServerId) -> Milliseconds:
        return rng.uniform(self.low_ms, self.high_ms)


#: The paper's NetEm setting (Section VI-A): the default of every network,
#: scenario and the ``paper-default`` catalog condition.
PAPER_LATENCY = UniformLatency(100.0, 200.0)


@value_object
class LogNormalLatency:
    """Heavy-tailed latency, parameterised by median and sigma.

    Useful for sensitivity analysis: real wide-area paths exhibit occasional
    large delays that a uniform model cannot produce.
    """

    median_ms: Milliseconds = 150.0
    sigma: float = 0.3
    max_ms: Milliseconds = 5_000.0

    def __post_init__(self) -> None:
        require_positive(self.median_ms, "median_ms")
        require_positive(self.sigma, "sigma")
        require_positive(self.max_ms, "max_ms")

    def sample(self, rng: random.Random, src: ServerId, dst: ServerId) -> Milliseconds:
        mu = math.log(self.median_ms)
        return min(rng.lognormvariate(mu, self.sigma), self.max_ms)


@value_object
class GeoGroupLatency:
    """Two-tier latency: fast within a region, slow across regions.

    Section II-B observes that geo-distributed deployments, where in-group
    latency is much lower than between-group latency, are especially prone to
    split votes because candidates gather their local group's votes quickly
    and then starve remote candidates.  This model assigns every server to a
    named region and samples intra- or inter-region latency accordingly.

    Attributes:
        regions: mapping from server id to region name.
        intra_ms: ``(low, high)`` uniform range within a region.
        inter_ms: ``(low, high)`` uniform range across regions.
    """

    regions: Mapping[ServerId, str] = field(default_factory=dict)
    intra_ms: tuple[Milliseconds, Milliseconds] = (5.0, 15.0)
    inter_ms: tuple[Milliseconds, Milliseconds] = (100.0, 200.0)

    def __post_init__(self) -> None:
        if not self.regions:
            raise ConfigurationError("GeoGroupLatency requires a region assignment")
        require_ordered_pair(self.intra_ms[0], self.intra_ms[1], "intra_ms")
        require_ordered_pair(self.inter_ms[0], self.inter_ms[1], "inter_ms")

    def region_of(self, server_id: ServerId) -> str:
        """Region a server belongs to."""
        try:
            return self.regions[server_id]
        except KeyError as exc:
            raise ConfigurationError(f"S{server_id} has no region assigned") from exc

    def sample(self, rng: random.Random, src: ServerId, dst: ServerId) -> Milliseconds:
        if self.region_of(src) == self.region_of(dst):
            low, high = self.intra_ms
        else:
            low, high = self.inter_ms
        return rng.uniform(low, high)


def assign_regions(
    server_ids: Sequence[ServerId], region_count: int
) -> dict[ServerId, str]:
    """Split *server_ids* into *region_count* contiguous, balanced regions.

    The first ``n % region_count`` regions receive one extra server, so e.g.
    7 servers over 3 regions become blocks of 3/2/2.  Contiguous blocks (not
    round-robin) mirror how real deployments are provisioned: S1-S3 in one
    data centre, S4-S5 in the next.
    """
    require_positive(region_count, "region_count")
    if region_count > len(server_ids):
        raise ConfigurationError(
            f"region_count ({region_count}) exceeds the cluster size "
            f"({len(server_ids)})"
        )
    base, extra = divmod(len(server_ids), region_count)
    regions: dict[ServerId, str] = {}
    cursor = 0
    for index in range(region_count):
        size = base + (1 if index < extra else 0)
        for server_id in server_ids[cursor : cursor + size]:
            regions[server_id] = f"region-{index}"
        cursor += size
    return regions


@value_object
class GeoLatencySpec:
    """Two-tier geo latency over *region_count* balanced regions.

    The spec never names concrete servers, so one value applies to any
    cluster size (Section II-B's "low in-group, high between-group" setting):
    :meth:`resolve` assigns the membership to contiguous regions via
    :func:`assign_regions` and returns the :class:`GeoGroupLatency` the
    network samples from.
    """

    region_count: int = 2
    intra_ms: tuple[Milliseconds, Milliseconds] = (5.0, 15.0)
    inter_ms: tuple[Milliseconds, Milliseconds] = (100.0, 200.0)

    def __post_init__(self) -> None:
        require_positive(self.region_count, "region_count")
        require_non_negative(self.intra_ms[0], "intra_ms low")
        require_non_negative(self.inter_ms[0], "inter_ms low")
        require_ordered_pair(self.intra_ms[0], self.intra_ms[1], "intra_ms")
        require_ordered_pair(self.inter_ms[0], self.inter_ms[1], "inter_ms")

    def resolve(self, server_ids: Sequence[ServerId]) -> GeoGroupLatency:
        return GeoGroupLatency(
            regions=assign_regions(server_ids, self.region_count),
            intra_ms=self.intra_ms,
            inter_ms=self.inter_ms,
        )
