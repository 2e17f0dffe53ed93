"""Measurement records, statistics and report rendering.

The experiment harness produces one
:class:`~repro.metrics.records.ElectionMeasurement` per run; this package
turns collections of measurements into the percentiles, averages and
comparison tables that the paper's figures report.

The package re-exports nothing, so an election that never aggregates or
renders loads only the records.  Import each name from its module:

* :mod:`repro.metrics.records` -- ``ElectionMeasurement``,
  ``MeasurementSet``, ``AvailabilityMeasurement``, ``AvailabilitySet``;
* :mod:`repro.metrics.stats` -- ``percentile``, ``summarize``,
  ``SummaryStatistics``, ``reduction_percent``;
* :mod:`repro.metrics.streaming` -- ``ElectionAggregate``,
  ``StreamingSummary``, ``MergeableCDF``, ``DEFAULT_CDF_CAPACITY``;
* :mod:`repro.metrics.tables` -- ``render_table``.
"""
