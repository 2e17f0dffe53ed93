"""repro.obs -- the unified observability layer.

Three pillars, all safe under the determinism contract:

* :mod:`repro.obs.telemetry` + :mod:`repro.obs.harvest` -- named counters/
  gauges/histograms over *simulated* facts, with frozen, mergeable,
  JSON-round-tripping snapshots (bit-identical at any worker count).
* :mod:`repro.obs.trace` -- the JSONL trace codec and the ``--trace-out``
  experiment archive.
* :mod:`repro.obs.progress` + :mod:`repro.obs.profiling` -- the only two
  modules allowed to read wall-clock (see the :mod:`repro.lint` D1
  allowlist): sweep progress/heartbeat reporting and named phase timers.
"""

from repro.obs.harvest import (
    TelemetryListener,
    harvest_chaos,
    harvest_cluster,
    harvest_network,
    harvest_scheduler,
)
from repro.obs.profiling import Profiler
from repro.obs.progress import HEARTBEAT_SCHEMA, ProgressReporter
from repro.obs.telemetry import (
    DEFAULT_HISTOGRAM_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetrySnapshot,
)
from repro.obs.trace import (
    archive_election_traces,
    read_trace_jsonl,
    write_trace_jsonl,
)

__all__ = [
    "Counter",
    "DEFAULT_HISTOGRAM_BOUNDS",
    "Gauge",
    "HEARTBEAT_SCHEMA",
    "Histogram",
    "MetricsRegistry",
    "Profiler",
    "ProgressReporter",
    "TelemetryListener",
    "TelemetrySnapshot",
    "archive_election_traces",
    "harvest_chaos",
    "harvest_cluster",
    "harvest_network",
    "harvest_scheduler",
    "read_trace_jsonl",
    "write_trace_jsonl",
]
