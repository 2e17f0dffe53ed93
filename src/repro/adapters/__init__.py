"""Adapters: applying ESCAPE's idea to other leader/failover elections.

Section IV-C of the paper argues that ESCAPE is not Raft-specific: any
leader-based protocol whose failover election can suffer same-epoch competition
(Redis Cluster's slave election and promotion, ZooKeeper's fast leader
election, Azure's leader-election pattern) can prepare prioritized "future
leaders" in advance.  This package demonstrates the claim on a self-contained
model of Redis Cluster's replica failover:

* :class:`~repro.adapters.redis_cluster.RedisFailoverModel` reproduces the
  stock mechanism -- rank-based delays, one failover epoch per attempt, voting
  masters that grant one vote per epoch -- including its failure mode, where
  replicas that rank themselves equally collide in the same epoch and must
  retry.
* :class:`~repro.adapters.redis_cluster.EscapeFailoverModel` applies ESCAPE:
  the master continuously assigns each replica a prioritized configuration
  (freshest replica gets the highest priority and the shortest delay); on
  failover, the epoch grows by the replica's priority and voting masters
  refuse stale configuration clocks, so concurrent attempts never share an
  epoch and the failover converges in one round.
"""

from repro.adapters.redis_cluster import (
    EscapeFailoverModel,
    FailoverMeasurement,
    FailoverSet,
    RedisClusterParameters,
    RedisFailoverModel,
)

__all__ = [
    "EscapeFailoverModel",
    "FailoverMeasurement",
    "FailoverSet",
    "RedisClusterParameters",
    "RedisFailoverModel",
]
