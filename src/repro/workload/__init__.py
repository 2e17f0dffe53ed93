"""The replicated-workload subsystem: the sixth spec registry.

Frozen :class:`~repro.workload.specs.WorkloadSpec` values describe client
traffic shapes by name; :class:`~repro.workload.driver.WorkloadDriver`
resolves one against a live cluster.

:class:`~repro.workload.aggregate.WorkloadAggregate`, which folds the per-op
records into mergeable streaming summaries for the ``throughput`` experiment,
is not re-exported: it imports the streaming statistics, which a serving
window never runs, so import it from :mod:`repro.workload.aggregate`.

:class:`~repro.workload.scenario.ThroughputScenario` is deliberately *not*
re-exported here: the cluster layer imports this package for the driver, and
the scenario imports the cluster layer, so experiments and tests import it
from :mod:`repro.workload.scenario` directly.
"""

from repro.workload.driver import WorkloadDriver
from repro.workload.records import WorkloadMeasurement
from repro.workload.specs import (
    KeyspaceSpec,
    WorkloadSpec,
    get,
    items,
    legacy_interval,
    names,
    register,
)

__all__ = [
    "KeyspaceSpec",
    "WorkloadDriver",
    "WorkloadMeasurement",
    "WorkloadSpec",
    "get",
    "items",
    "legacy_interval",
    "names",
    "register",
]
