"""Simulated network substrate.

This package models the testbed network from the paper's evaluation:

* per-message latency sampled from a configurable model
  (:class:`~repro.net.latency.UniformLatency` reproduces the 100-200 ms NetEm
  setting of Section VI-A);
* broadcast omission faults (:class:`~repro.net.faults.BroadcastOmissionFault`)
  implementing the message-loss model of Section VI-D, where a broadcast only
  reaches ``1 - Δ`` of the servers;
* network partitions and node disconnection (used to crash the leader);
* delivery statistics for every run.
"""

from repro.net.faults import (
    BroadcastOmissionFault,
    CompositeFault,
    FaultInjector,
    MessageDuplicationFault,
    NoFault,
    PacketLossFault,
    bind,
)
from repro.net.latency import (
    ConstantLatency,
    GeoGroupLatency,
    GeoLatencySpec,
    LatencyModel,
    LogNormalLatency,
    UniformLatency,
)
from repro.net.network import NetworkStats, SimulatedNetwork
from repro.net.partition import PartitionManager

__all__ = [
    "BroadcastOmissionFault",
    "CompositeFault",
    "ConstantLatency",
    "FaultInjector",
    "GeoGroupLatency",
    "GeoLatencySpec",
    "LatencyModel",
    "LogNormalLatency",
    "MessageDuplicationFault",
    "NetworkStats",
    "NoFault",
    "PacketLossFault",
    "PartitionManager",
    "SimulatedNetwork",
    "UniformLatency",
    "bind",
]
