"""Shared foundation used by every other ``repro`` subpackage.

The :mod:`repro.common` package deliberately has no dependency on any other
part of the library.  It provides:

* :mod:`repro.common.types` -- typed aliases (server identifiers, terms,
  log indexes, millisecond durations).
* :mod:`repro.common.errors` -- the exception hierarchy.
* :mod:`repro.common.config` -- configuration dataclasses for clusters and
  protocols (heartbeat intervals, election-timeout ranges, SCA parameters).
* :mod:`repro.common.rng` -- deterministic, named random-number streams so
  that every experiment is a pure function of ``(parameters, seed)``.
* :mod:`repro.common.validation` -- small argument-checking helpers shared by
  the configuration dataclasses and the protocol implementations.
* :mod:`repro.common.registry` -- the one name -> frozen-value table behind
  every spec registry (protocols, experiments, engines, workloads, chaos
  plans, network conditions).
"""

from repro.common.config import (
    ClusterConfig,
    ProtocolConfig,
    RaftTimeoutConfig,
    ScaParameters,
)
from repro.common.errors import (
    ClusterError,
    ConfigurationError,
    NetworkError,
    ProtocolError,
    ReproError,
    SimulationError,
    StorageError,
)
from repro.common.rng import SeedSequence
from repro.common.types import (
    LogIndex,
    Milliseconds,
    ServerId,
    Term,
)

__all__ = [
    "ClusterConfig",
    "ClusterError",
    "ConfigurationError",
    "LogIndex",
    "Milliseconds",
    "NetworkError",
    "ProtocolConfig",
    "ProtocolError",
    "RaftTimeoutConfig",
    "ReproError",
    "ScaParameters",
    "SeedSequence",
    "ServerId",
    "SimulationError",
    "StorageError",
    "Term",
]
