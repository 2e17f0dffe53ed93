"""Measurement records, statistics and report rendering.

The experiment harness produces one
:class:`~repro.metrics.records.ElectionMeasurement` per run; this package
turns collections of measurements into the percentiles, averages and
comparison tables that the paper's figures report.
"""

from repro.metrics.records import (
    AvailabilityMeasurement,
    AvailabilitySet,
    ElectionMeasurement,
    MeasurementSet,
)
from repro.metrics.stats import (
    percentile,
    reduction_percent,
    summarize,
    SummaryStatistics,
)
from repro.metrics.streaming import (
    DEFAULT_CDF_CAPACITY,
    ElectionAggregate,
    MergeableCDF,
    StreamingSummary,
)
from repro.metrics.tables import render_table

__all__ = [
    "AvailabilityMeasurement",
    "AvailabilitySet",
    "DEFAULT_CDF_CAPACITY",
    "ElectionAggregate",
    "ElectionMeasurement",
    "MeasurementSet",
    "MergeableCDF",
    "StreamingSummary",
    "SummaryStatistics",
    "percentile",
    "reduction_percent",
    "render_table",
    "summarize",
]
