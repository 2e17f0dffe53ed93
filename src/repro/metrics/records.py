"""Measurement records produced by the election harness."""

from __future__ import annotations

from dataclasses import field
from typing import TYPE_CHECKING, Callable, Generic, Iterable, Iterator, TypeVar

from repro.common.errors import ClusterError
from repro.common.frozen import value_object
from repro.common.types import Milliseconds, ServerId, Term

# The statistics load with the first aggregate: an episode that only records
# its measurement never imports them.
if TYPE_CHECKING:
    from repro.metrics.stats import SummaryStatistics
    from repro.metrics.streaming import ElectionAggregate

M = TypeVar("M")


class RecordSet(Generic[M]):
    """The collecting sweep container: every episode record, in run order.

    Holds the ``add`` / ``merge`` / ``__len__`` half of the container
    contract of :func:`repro.experiments.runner.run_sweep` once for the
    per-measurement-type sets below, which add only their statistics and
    name the record class they hold (``record_type``, from which
    :mod:`repro.experiments.export` rebuilds an archived set).
    """

    record_type: type

    def __init__(self, measurements: Iterable[M] = (), label: str = "") -> None:
        self._measurements = list(measurements)
        self.label = label

    def add(self, measurement: M) -> None:
        """Append one measurement."""
        self._measurements.append(measurement)

    def merge(self, other: "RecordSet[M]") -> None:
        """Append every measurement of *other*, in its order."""
        self._measurements.extend(other._measurements)

    @property
    def measurements(self) -> tuple[M, ...]:
        """Every recorded measurement."""
        return tuple(self._measurements)

    def _require_runs(self) -> list[M]:
        if not self._measurements:
            raise ClusterError(f"no runs in {type(self).__name__} {self.label!r}")
        return self._measurements

    def __len__(self) -> int:
        return len(self._measurements)

    def __iter__(self) -> Iterator[M]:
        return iter(self._measurements)


@value_object
class ElectionMeasurement:
    """Everything measured about one leader-failure / re-election episode.

    The fields mirror the decomposition used in the paper's Figures 9-11:
    the *detection period* runs from the leader crash to the first election
    timeout; the *election period* runs from that timeout to the moment a new
    leader has collected a quorum; their sum is the out-of-service (OTS) time
    the paper reports as "leader election time".
    """

    protocol: str
    cluster_size: int
    seed: int
    converged: bool
    crash_time_ms: Milliseconds
    detection_ms: Milliseconds
    election_ms: Milliseconds
    total_ms: Milliseconds
    campaign_count: int
    split_vote: bool
    winner_id: ServerId | None
    winner_term: Term | None
    extra: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.converged and self.winner_id is None:
            raise ClusterError("a converged measurement must name the winner")


@value_object
class AvailabilityMeasurement:
    """Everything measured about one chaos-disrupted availability window.

    Where :class:`ElectionMeasurement` decomposes a *single* crash →
    re-election episode, this record summarises a *long horizon* under a
    chaos plan: how much of the window had a quorum-capable leader, how many
    disruptions landed, how long each recovery took, and what a client-side
    workload observed (proposals accepted vs dropped while leaderless).

    ``leaderless_intervals`` keeps the raw ``(start_ms, end_ms)`` outage
    intervals so downstream analysis (and the property tests) can re-derive
    every aggregate.
    """

    protocol: str
    cluster_size: int
    seed: int
    plan: str
    start_ms: Milliseconds
    end_ms: Milliseconds
    available_ms: Milliseconds
    leaderless_ms: Milliseconds
    unavailability: float
    disruption_count: int
    skipped_disruptions: int
    outage_count: int
    recovery_ms: tuple[Milliseconds, ...]
    proposals_proposed: int
    proposals_dropped: int
    leaderless_intervals: tuple[tuple[Milliseconds, Milliseconds], ...]
    extra: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.unavailability <= 1.0:
            raise ClusterError(
                f"unavailability must be a fraction, got {self.unavailability!r}"
            )
        if self.outage_count != len(self.leaderless_intervals):
            raise ClusterError(
                f"outage_count ({self.outage_count}) disagrees with the "
                f"{len(self.leaderless_intervals)} leaderless intervals"
            )

    @property
    def duration_ms(self) -> Milliseconds:
        """Length of the measured window."""
        return self.end_ms - self.start_ms

    @property
    def availability(self) -> float:
        """Available fraction of the window."""
        return 1.0 - self.unavailability


class AvailabilitySet(RecordSet[AvailabilityMeasurement]):
    """Availability measurements from repeated runs of one configuration."""

    record_type = AvailabilityMeasurement

    def mean_unavailability(self) -> float:
        """Average leaderless fraction over the runs."""
        runs = self._require_runs()
        return sum(m.unavailability for m in runs) / len(runs)

    def mean_availability(self) -> float:
        """Average available fraction over the runs."""
        return 1.0 - self.mean_unavailability()

    def mean_leaderless_ms(self) -> float:
        """Average total leaderless time per run."""
        runs = self._require_runs()
        return sum(m.leaderless_ms for m in runs) / len(runs)

    def mean_outages(self) -> float:
        """Average number of outages per run."""
        runs = self._require_runs()
        return sum(m.outage_count for m in runs) / len(runs)

    def mean_disruptions(self) -> float:
        """Average number of applied disruptions per run."""
        runs = self._require_runs()
        return sum(m.disruption_count for m in runs) / len(runs)

    def pooled_recovery_ms(self) -> list[Milliseconds]:
        """Every outage duration across every run (for percentiles)."""
        return [latency for m in self._measurements for latency in m.recovery_ms]

    def mean_recovery_ms(self) -> float | None:
        """Average outage duration pooled over runs (``None`` if no outage)."""
        pooled = self.pooled_recovery_ms()
        if not pooled:
            return None
        return sum(pooled) / len(pooled)

    def total_proposed(self) -> int:
        """Client proposals accepted by a leader, summed over runs."""
        return sum(m.proposals_proposed for m in self._measurements)

    def total_dropped(self) -> int:
        """Client proposals dropped (no leader / stale leader), summed."""
        return sum(m.proposals_dropped for m in self._measurements)


class MeasurementSet(RecordSet[ElectionMeasurement]):
    """A collection of measurements from repeated runs of one configuration.

    The set keeps its records (the archive and :meth:`values` read them) and
    computes nothing over them itself: every statistic forwards to
    :meth:`aggregate`, the :class:`~repro.metrics.streaming.ElectionAggregate`
    the streaming sweeps fold, sized so that it stays exact.
    """

    record_type = ElectionMeasurement

    @property
    def converged(self) -> "MeasurementSet":
        """Only the runs in which a new leader actually emerged."""
        return MeasurementSet(
            (m for m in self._measurements if m.converged), label=self.label
        )

    def values(
        self, selector: Callable[[ElectionMeasurement], float]
    ) -> list[float]:
        """Arbitrary per-measurement values from the converged runs."""
        return [selector(m) for m in self._measurements if m.converged]

    def aggregate(self) -> ElectionAggregate:
        """These runs as one aggregate whose sketches never compress, so its
        statistics are the exact ones at any run count."""
        from repro.metrics.streaming import DEFAULT_CDF_CAPACITY, ElectionAggregate

        capacity = max(DEFAULT_CDF_CAPACITY, len(self))
        return ElectionAggregate.from_measurements(self, self.label, capacity=capacity)

    def split_vote_fraction(self) -> float:
        """Fraction of runs that experienced at least one split vote."""
        return self.aggregate().split_vote_fraction()

    def convergence_fraction(self) -> float:
        """Fraction of runs that elected a new leader within the time budget."""
        return self.aggregate().convergence_fraction()

    def mean_campaigns(self) -> float:
        """Average campaign count per run, over every run."""
        return self.aggregate().mean_campaigns()

    def mean_total_ms(self) -> float:
        """Average total election time over converged runs."""
        return self.aggregate().mean_total_ms()

    def mean_detection_ms(self) -> float:
        """Average detection period over converged runs."""
        return self.aggregate().mean_detection_ms()

    def mean_election_ms(self) -> float:
        """Average election period over converged runs."""
        return self.aggregate().mean_election_ms()

    def total_summary(self) -> SummaryStatistics:
        """Summary statistics of the converged total election times."""
        return self.aggregate().total_summary()
