"""Election-timeout policies.

Raft draws a fresh randomized timeout before every wait (the paper sweeps the
range in Figure 3); ESCAPE replaces the draw with the deterministic timeout
carried by the server's current configuration (Eq. 1).  The scripted policy is
used by the Figure 10 harness to *force* simultaneous timeouts and therefore a
controlled number of competing-candidate phases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.common.config import RaftTimeoutConfig
from repro.common.types import Milliseconds
from repro.common.validation import require_ordered_pair, require_positive


@runtime_checkable
class ElectionTimeoutPolicy(Protocol):
    """Chooses how long a server waits before starting an election campaign."""

    def next_timeout_ms(
        self, rng: random.Random, attempt: int
    ) -> Milliseconds:  # pragma: no cover - protocol signature
        """Timeout for the next wait.

        Args:
            rng: the node's private random stream.
            attempt: how many consecutive timeouts the node has already
                experienced without hearing from a leader (0 for the first).
        """
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

    def next_timeout_ms(self, rng: random.Random, attempt: int) -> Milliseconds:
        return rng.uniform(self.low_ms, self.high_ms)


@dataclass(frozen=True)
class FixedTimeoutPolicy:
    """Always waits exactly *timeout_ms* (used by ESCAPE-style configurations)."""

    timeout_ms: Milliseconds

    def __post_init__(self) -> None:
        require_positive(self.timeout_ms, "timeout_ms")

    def next_timeout_ms(self, rng: random.Random, attempt: int) -> Milliseconds:
        return self.timeout_ms


@dataclass(frozen=True)
class ScriptedTimeoutPolicy:
    """Replays a fixed sequence of timeouts, then defers to a fallback policy.

    The Figure 10 harness uses this to make chosen followers time out at the
    same instant for the first *k* waits, which forces *k* phases of competing
    candidates in Raft.  Index *attempt* selects the scripted value, so the
    first timeout after losing the leader uses ``script[0]``, the second
    ``script[1]``, and so on.
    """

    script: tuple[Milliseconds, ...]
    fallback: ElectionTimeoutPolicy = field(
        default_factory=lambda: RandomizedTimeoutPolicy()
    )

    def __post_init__(self) -> None:
        for value in self.script:
            require_positive(value, "scripted timeout")

    def next_timeout_ms(self, rng: random.Random, attempt: int) -> Milliseconds:
        if 0 <= attempt < len(self.script):
            return self.script[attempt]
        return self.fallback.next_timeout_ms(rng, attempt)


@dataclass(frozen=True)
class ScriptOnlyPolicy:
    """Replays a fixed sequence of timeouts and then opts out.

    Past the end of the script the policy returns ``0.0``, which callers treat
    as "no override": :class:`repro.escape.node.EscapeNode` then falls back to
    the timeout carried by its configuration.  The Figure 10 harness installs
    this policy on the contending followers so the *first* waits collide while
    later waits revert to protocol-chosen values.
    """

    script: tuple[Milliseconds, ...]

    def __post_init__(self) -> None:
        for value in self.script:
            require_positive(value, "scripted timeout")

    def next_timeout_ms(self, rng: random.Random, attempt: int) -> Milliseconds:
        if 0 <= attempt < len(self.script):
            return self.script[attempt]
        return 0.0
