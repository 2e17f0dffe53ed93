"""The per-label mergeable aggregate of workload measurements.

:class:`WorkloadAggregate` is to the ``throughput`` experiment what
:class:`~repro.metrics.streaming.ElectionAggregate` is to the election
sweeps: workers fill one per label per chunk, the sweep engine merges them in
chunk order, and the result answers exactly the questions the throughput
report asks -- sustained ops/sec, p50/p99/p999 commit latency, drops while
leaderless and ops lost per failover -- without retaining an episode record.
Latencies feed a :class:`~repro.metrics.streaming.StreamingSummary`, so any
chunking and any worker count produce bit-identical results while the sample
count stays within the sketch capacity (the same exactness contract the
election path pins).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ClusterError
from repro.metrics.streaming import Aggregate, StreamingSummary
from repro.workload.records import WorkloadMeasurement

__all__ = ["WorkloadAggregate"]


@dataclass(slots=True, init=False)
class WorkloadAggregate(Aggregate):
    """Mergeable accumulator of :class:`WorkloadMeasurement` records (merge,
    state codec and equality derived from these fields by :class:`Aggregate`)."""

    proposed: int
    committed: int
    retries: int
    dropped: int
    rejected: int
    lost: int
    outages: int
    window_ms: float
    leaderless_ms: float
    latency_ms: StreamingSummary

    def add(self, measurement: WorkloadMeasurement) -> None:
        """Absorb one episode's measurement."""
        self.runs += 1
        self.proposed += measurement.proposed
        self.committed += measurement.committed
        self.retries += measurement.retries
        self.dropped += measurement.dropped
        self.rejected += measurement.rejected
        self.lost += measurement.lost
        self.outages += measurement.outage_count
        self.window_ms += measurement.window_ms
        self.leaderless_ms += measurement.leaderless_ms
        for latency in measurement.latencies_ms:
            self.latency_ms.add(latency)

    # ------------------------------------------------------------------ #
    # Queries (what the throughput report asks)
    # ------------------------------------------------------------------ #
    def ops_per_s(self) -> float:
        """Sustained committed throughput over the summed windows."""
        if not self.window_ms:
            raise ClusterError(f"no runs in aggregate {self.label!r}")
        return self.committed / (self.window_ms / 1000.0)

    def percentile_ms(self, q: float) -> float | None:
        """The *q*-th commit-latency percentile (exact under capacity).

        ``None`` when no op committed, so there is no latency to report.
        """
        return self.latency_ms.percentile(q) if self.latency_ms.count else None

    def p50_ms(self) -> float | None:
        """Median commit latency."""
        return self.percentile_ms(50.0)

    def p99_ms(self) -> float | None:
        """99th-percentile commit latency."""
        return self.percentile_ms(99.0)

    def p999_ms(self) -> float | None:
        """99.9th-percentile commit latency."""
        return self.percentile_ms(99.9)

    def dropped_per_run(self) -> float:
        """Ops dropped at the client (leaderless) per run."""
        if not self.runs:
            raise ClusterError(f"no runs in aggregate {self.label!r}")
        return self.dropped / self.runs

    def lost_per_failover(self) -> float:
        """Proposed-but-never-committed ops per leaderless outage."""
        if not self.outages:
            return 0.0
        return self.lost / self.outages

    def outages_per_run(self) -> float:
        """Leaderless outages per run."""
        if not self.runs:
            raise ClusterError(f"no runs in aggregate {self.label!r}")
        return self.outages / self.runs

    def election_dip_percent(self) -> float:
        """Throughput lost to election windows, as a percentage.

        Compares the sustained rate against the rate over leader-available
        time only: a cluster that commits nothing while leaderless dips by
        exactly its leaderless fraction.
        """
        if not self.window_ms:
            raise ClusterError(f"no runs in aggregate {self.label!r}")
        available_ms = self.window_ms - self.leaderless_ms
        if available_ms <= 0:
            return 100.0
        available_rate = self.committed / available_ms
        overall_rate = self.committed / self.window_ms
        if available_rate == 0.0:
            return 0.0
        return 100.0 * (1.0 - overall_rate / available_rate)

    def to_row(self, label: str) -> dict[str, object]:
        """This cell as one scalar export row (latencies ``None`` if no op committed)."""
        with_latency = self.latency_ms.count > 0
        return {
            "label": label,
            "runs": self.runs,
            "proposed": self.proposed,
            "committed": self.committed,
            "retries": self.retries,
            "dropped": self.dropped,
            "rejected": self.rejected,
            "lost": self.lost,
            "outages": self.outages,
            "ops_per_s": round(self.ops_per_s(), 3),
            "dip_percent": round(self.election_dip_percent(), 3),
            "lost_per_failover": round(self.lost_per_failover(), 6),
            "p50_ms": round(self.p50_ms(), 3) if with_latency else None,
            "p99_ms": round(self.p99_ms(), 3) if with_latency else None,
            "p999_ms": round(self.p999_ms(), 3) if with_latency else None,
            "mean_ms": round(self.latency_ms.mean, 3) if with_latency else None,
            "max_ms": round(self.latency_ms.maximum, 3) if with_latency else None,
        }
