"""Election-timeout policies.

Raft draws a fresh randomized timeout before every wait (the paper sweeps the
range in Figure 3); the deterministic baselines wait a fixed time.  ESCAPE
does not use a policy: its timeout is the one carried by the server's current
configuration (Eq. 1).  A contention script (``RaftNode.timeout_script``)
comes before either, for the first waits after losing the leader.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.common.config import RaftTimeoutConfig
from repro.common.types import Milliseconds
from repro.common.validation import require_ordered_pair, require_positive


@runtime_checkable
class ElectionTimeoutPolicy(Protocol):
    """Chooses how long a server waits before starting an election campaign."""

    def next_timeout_ms(
        self, rng: random.Random
    ) -> Milliseconds:  # pragma: no cover - protocol signature
        """Timeout for the next wait, drawn from the node's private *rng*."""
        ...


@dataclass(frozen=True)
class RandomizedTimeoutPolicy:
    """Raft's standard policy: uniform draw from ``[low_ms, high_ms]``."""

    low_ms: Milliseconds = 1500.0
    high_ms: Milliseconds = 3000.0

    def __post_init__(self) -> None:
        require_positive(self.low_ms, "low_ms")
        require_ordered_pair(self.low_ms, self.high_ms, "timeout range")

    @classmethod
    def from_config(cls, config: RaftTimeoutConfig) -> "RandomizedTimeoutPolicy":
        """Build the policy from a :class:`RaftTimeoutConfig`."""
        return cls(config.timeout_min_ms, config.timeout_max_ms)

    def next_timeout_ms(self, rng: random.Random) -> Milliseconds:
        return rng.uniform(self.low_ms, self.high_ms)


@dataclass(frozen=True)
class FixedTimeoutPolicy:
    """Always waits exactly *timeout_ms* (the deterministic Raft baselines)."""

    timeout_ms: Milliseconds

    def __post_init__(self) -> None:
        require_positive(self.timeout_ms, "timeout_ms")

    def next_timeout_ms(self, rng: random.Random) -> Milliseconds:
        return self.timeout_ms
