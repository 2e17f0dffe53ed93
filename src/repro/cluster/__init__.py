"""Cluster harness: build simulated clusters, inject faults, measure elections.

The harness is what the experiment modules (and the examples) drive:

* :mod:`repro.cluster.environment` adapts the discrete-event simulator to the
  node's :class:`~repro.raft.environment.Environment` protocol;
* :mod:`repro.cluster.builder` wires nodes, network and world together for
  any protocol registered in :mod:`repro.protocols`;
* :mod:`repro.cluster.observers` records election events cluster-wide;
* :mod:`repro.cluster.harness` runs elections and produces
  :class:`~repro.metrics.records.ElectionMeasurement` records;
* :mod:`repro.cluster.scenarios` declares the condition every episode kind
  shares (:class:`~repro.cluster.scenarios.Scenario`: protocol, size, timing,
  network, engine, and the run template) and packages the paper's fault
  scenarios (leader crash, forced contention, broadcast message loss) into
  one reusable :class:`~repro.cluster.scenarios.ElectionScenario`;
* :mod:`repro.cluster.catalog` names ready-made network conditions (WAN
  splits, heavy tails, loss, duplication, chaos) any scenario can run under
  (:func:`~repro.cluster.catalog.network_specs`).  It is not re-exported:
  import ``CATALOG``, ``NetworkCondition`` and ``network_specs`` from it, so
  an election that names no condition never loads it.
"""

from repro.cluster.builder import SimulatedCluster, build_cluster
from repro.cluster.environment import SimNodeEnvironment
from repro.cluster.harness import ElectionHarness
from repro.cluster.observers import ElectionObserver
from repro.cluster.scenarios import ElectionScenario, Scenario

__all__ = [
    "ElectionHarness",
    "ElectionObserver",
    "ElectionScenario",
    "Scenario",
    "SimNodeEnvironment",
    "SimulatedCluster",
    "build_cluster",
]
