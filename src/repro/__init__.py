"""repro -- a full Python reproduction of "ESCAPE to Precaution against Leader
Failures" (Zhang & Jacobsen, ICDCS 2022).

The package is organised in layers (README.md, "Architecture", has the full
inventory):

* substrates -- :mod:`repro.sim` (discrete-event kernel), :mod:`repro.net`
  (latency / loss / partitions), :mod:`repro.storage` (replicated log,
  persistence), :mod:`repro.statemachine` (replicated state machines);
* protocols -- :mod:`repro.raft` (baseline Raft), :mod:`repro.escape` (the
  paper's contribution: SCA + PPF + configuration clock), :mod:`repro.zraft`
  (ZooKeeper-style static priorities), all dispatched through the plugin
  registry in :mod:`repro.protocols` (which also registers the deterministic
  baselines ``raft-fixed``/``raft-stagger``; ``zraft`` is the PPF
  ablation's no-patrol baseline);
* harnesses -- :mod:`repro.cluster` (simulated clusters, fault scenarios,
  election measurement), :mod:`repro.chaos`, :mod:`repro.workload`,
  :mod:`repro.metrics`, :mod:`repro.analysis`, :mod:`repro.obs`,
  :mod:`repro.experiments` (one module per paper figure).

Quick start::

    from repro.cluster import ElectionScenario

    scenario = ElectionScenario(protocol="escape", cluster_size=8)
    measurement = scenario.run(seed=1)
    print(measurement.total_ms, measurement.split_vote)
"""

from repro.common import (
    ClusterConfig,
    ProtocolConfig,
    RaftTimeoutConfig,
    ScaParameters,
    SeedSequence,
)
from repro.raft import RaftNode, Role
from repro.zraft import ZRaftNode
from repro.escape import Configuration
from repro.escape.node import EscapeNode
from repro import protocols
from repro.protocols import ProtocolSpec

#: The one version number; ``pyproject.toml`` reads it from here.
__version__ = "1.1.0"

__all__ = [
    "ClusterConfig",
    "Configuration",
    "EscapeNode",
    "ProtocolConfig",
    "ProtocolSpec",
    "RaftNode",
    "RaftTimeoutConfig",
    "Role",
    "ScaParameters",
    "SeedSequence",
    "ZRaftNode",
    "protocols",
    "__version__",
]
