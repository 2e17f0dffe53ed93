"""Configuration dataclasses for clusters and protocols.

Three kinds of configuration appear in the paper's evaluation and are modelled
here directly:

* the *cluster* configuration -- membership and quorum size (Section VI-A
  uses clusters of 4, 8, 16, 32, 64 and 128 servers);
* the *Raft timing* configuration -- heartbeat interval and the randomized
  election-timeout range (Section III sweeps ranges from 1500-1800 ms to
  1500-6000 ms; Section VI-B uses 1500-3000 ms);
* the *SCA parameters* used by ESCAPE's stochastic configuration assignment
  (Eq. 1: ``period_i = baseTime + k * (n - P_i)``, with ``baseTime = 1500 ms``
  and ``k = 500 ms`` in the evaluation).
"""

from __future__ import annotations

from dataclasses import field
from typing import Iterator

from repro.common.errors import ConfigurationError
from repro.common.frozen import value_object
from repro.common.types import Milliseconds, ServerId
from repro.common.validation import (
    require_in_range,
    require_non_empty,
    require_ordered_pair,
    require_positive,
    require_unique,
)


@value_object
class ClusterConfig:
    """Static membership of a consensus cluster.

    Attributes:
        server_ids: the identifiers of every member, unique positive integers.
            The paper numbers servers ``S1 .. Sn`` and reuses the identifier as
            the initial SCA priority, so identifiers double as priorities.
    """

    server_ids: tuple[ServerId, ...]

    def __post_init__(self) -> None:
        ids = require_non_empty(self.server_ids, "server_ids")
        require_unique(ids, "server_ids")
        for server_id in ids:
            require_positive(server_id, "server id")
        object.__setattr__(self, "server_ids", tuple(ids))
        # Derived from ``server_ids`` and deliberately not a field: equality,
        # hashing and the pickled form stay those of the membership tuple.
        object.__setattr__(
            self, "_position_of", {server_id: i for i, server_id in enumerate(ids)}
        )

    def __reduce__(self) -> tuple[type, tuple[tuple[ServerId, ...]]]:
        return type(self), (self.server_ids,)

    @classmethod
    def of_size(cls, n: int) -> "ClusterConfig":
        """Build the canonical cluster ``{S1, ..., Sn}`` of *n* servers."""
        require_positive(n, "cluster size")
        return cls(server_ids=tuple(range(1, n + 1)))

    @property
    def size(self) -> int:
        """Number of servers in the cluster (``n`` in the paper)."""
        return len(self.server_ids)

    @property
    def quorum_size(self) -> int:
        """Votes/acknowledgements needed for a majority (``⌊n/2⌋ + 1``).

        The paper's example (Section VI-B): in an 8-server cluster the quorum
        size is 5.
        """
        return self.size // 2 + 1

    def peers_of(self, server_id: ServerId) -> tuple[ServerId, ...]:
        """Every member except *server_id*."""
        position = self._position_of.get(server_id)
        if position is None:
            raise ConfigurationError(f"S{server_id} is not a cluster member")
        return self.server_ids[:position] + self.server_ids[position + 1 :]

    def __contains__(self, server_id: object) -> bool:
        return server_id in self._position_of

    def __iter__(self) -> Iterator[ServerId]:
        return iter(self.server_ids)

    def __len__(self) -> int:
        return self.size


@value_object
class RaftTimeoutConfig:
    """Randomized election-timeout range used by baseline Raft.

    Raft draws each election timeout uniformly from
    ``[timeout_min_ms, timeout_max_ms]``.  Figure 3 of the paper sweeps this
    range; Figure 9 uses the Raft-recommended 1500-3000 ms for a 100-200 ms
    network latency.
    """

    timeout_min_ms: Milliseconds = 1500.0
    timeout_max_ms: Milliseconds = 3000.0

    def __post_init__(self) -> None:
        require_positive(self.timeout_min_ms, "timeout_min_ms")
        require_ordered_pair(self.timeout_min_ms, self.timeout_max_ms, "timeout range")


@value_object
class ScaParameters:
    """Parameters of ESCAPE's stochastic configuration assignment (Eq. 1).

    ``period_i = base_time_ms + k_ms * (n - P_i)``

    where ``P_i`` is server ``S_i``'s priority.  The highest-priority server
    (``P_i = n``) therefore gets the *shortest* election timeout
    (``base_time_ms``), so it detects a leader failure before anyone else.

    The paper's evaluation (Section VI-B) uses ``base_time_ms = 1500`` and
    ``k_ms = 500``, and recommends setting ``k`` at least twice the network
    latency so the top-priority candidate can finish its campaign before the
    next server times out.
    """

    base_time_ms: Milliseconds = 1500.0
    k_ms: Milliseconds = 500.0

    def __post_init__(self) -> None:
        require_positive(self.base_time_ms, "base_time_ms")
        require_positive(self.k_ms, "k_ms")

    def election_timeout_ms(self, priority: int, cluster_size: int) -> Milliseconds:
        """Evaluate Eq. 1 for a server with the given priority.

        Example from the paper: a 10-server cluster with ``baseTime = 100 ms``
        and ``k = 10 ms`` gives ``S2`` (priority 2) a timeout of 180 ms and
        ``S10`` (priority 10) the base time of 100 ms.
        """
        require_positive(cluster_size, "cluster_size")
        require_in_range(priority, 1, cluster_size, "priority")
        return self.base_time_ms + self.k_ms * (cluster_size - priority)


@value_object
class ProtocolConfig:
    """Timing knobs shared by every protocol implementation.

    Attributes:
        heartbeat_interval_ms: period of the leader's AppendEntries heartbeat.
            Must be well below the smallest election timeout (Raft's
            ``timeout_min_ms`` or SCA's ``base_time_ms``, whichever is
            smaller) so followers do not time out under a healthy leader.
        vote_retry_interval_ms: how often a candidate retransmits its
            RequestVote to peers that have not granted yet, within one
            campaign.  Raft candidates retry vote RPCs until the campaign ends;
            without retransmission a single lost broadcast (Section VI-D's
            loss model) could make a quorum unreachable in small clusters.
        max_entries_per_append: batch cap for log replication.
        raft_timeouts: the randomized election-timeout range baseline Raft
            draws from (``raft-fixed`` waits its midpoint).
        sca: SCA parameters used by ESCAPE, Z-Raft and the ``raft-stagger``
            ladder.
    """

    heartbeat_interval_ms: Milliseconds = 150.0
    vote_retry_interval_ms: Milliseconds = 300.0
    max_entries_per_append: int = 64
    raft_timeouts: RaftTimeoutConfig = field(default_factory=RaftTimeoutConfig)
    sca: ScaParameters = field(default_factory=ScaParameters)

    def __post_init__(self) -> None:
        require_positive(self.heartbeat_interval_ms, "heartbeat_interval_ms")
        require_positive(self.vote_retry_interval_ms, "vote_retry_interval_ms")
        require_positive(self.max_entries_per_append, "max_entries_per_append")
        # Raft draws from raft_timeouts; the ESCAPE family and raft-stagger
        # wait an Eq. 1 period, which is never below sca.base_time_ms.
        smallest = min(self.raft_timeouts.timeout_min_ms, self.sca.base_time_ms)
        if self.heartbeat_interval_ms >= smallest:
            raise ConfigurationError(
                "heartbeat_interval_ms must be smaller than the minimum election "
                f"timeout ({self.heartbeat_interval_ms} >= {smallest})"
            )
        if self.vote_retry_interval_ms >= smallest:
            raise ConfigurationError(
                "vote_retry_interval_ms must be smaller than the minimum election "
                f"timeout ({self.vote_retry_interval_ms} >= {smallest})"
            )

    @classmethod
    def paper_defaults(cls) -> "ProtocolConfig":
        """Timing configuration used throughout the paper's evaluation.

        Raft: election timeouts 1500-3000 ms.  ESCAPE: baseTime 1500 ms and
        k = 500 ms.  Heartbeats every 150 ms (an order of magnitude below the
        smallest timeout, consistent with Raft's guidance).
        """
        return cls(
            heartbeat_interval_ms=150.0,
            raft_timeouts=RaftTimeoutConfig(1500.0, 3000.0),
            sca=ScaParameters(base_time_ms=1500.0, k_ms=500.0),
        )
