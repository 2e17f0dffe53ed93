"""Measurement records produced by the workload driver."""

from __future__ import annotations

from dataclasses import field

from repro.common.errors import ClusterError
from repro.common.frozen import value_object
from repro.common.types import Milliseconds


@value_object
class WorkloadMeasurement:
    """Everything a workload observed over one measured episode.

    Where :class:`~repro.metrics.records.AvailabilityMeasurement` summarises
    the *cluster-side* view of a chaos window (leaderless time, recoveries),
    this record is the *client-side* view of the same window: every op from
    proposal to state-machine apply.

    The op counters partition as follows: every issued op ends up in exactly
    one of ``committed`` (applied to the replicated state machine),
    ``dropped`` (no quorum-capable leader at issue time), ``rejected``
    (``NotLeaderError`` after the retry budget) or ``lost`` (accepted by a
    leader but never committed -- the classic failover loss, verified against
    the surviving log).  ``proposed`` counts successful ``propose()`` calls
    and ``retries`` counts extra attempts.
    """

    protocol: str
    cluster_size: int
    seed: int
    plan: str
    workload: str
    window_ms: Milliseconds
    proposed: int
    committed: int
    retries: int
    dropped: int
    rejected: int
    lost: int
    outage_count: int
    leaderless_ms: Milliseconds
    latencies_ms: tuple[Milliseconds, ...]
    extra: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.window_ms <= 0:
            raise ClusterError(
                f"workload window must be positive, got {self.window_ms!r}"
            )
        if self.lost > self.proposed:
            raise ClusterError(
                f"cannot lose {self.lost} of {self.proposed} proposed ops"
            )

    @property
    def ops_per_s(self) -> float:
        """Sustained committed throughput over the measured window."""
        return self.committed / (self.window_ms / 1000.0)

    @property
    def issued(self) -> int:
        """Ops the workload tried to issue (any outcome)."""
        return self.proposed + self.dropped + self.rejected
