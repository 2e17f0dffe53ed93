"""The protocol registry and the built-in protocol specs.

Three protocols come from the paper (Raft, Z-Raft, ESCAPE) and two variants
probe its arguments:

* ``raft-fixed`` -- Raft with one deterministic timeout shared by every
  server: the degenerate baseline the Figure 10 collision argument predicts
  will livelock (every wait expires simultaneously, every campaign splits).
  The harness's bootstrap campaign still gives it a first leader; every
  failover after that livelocks.  Registered with
  ``guarantees_liveness=False``; a regression test pins the predicted
  livelock.
* ``raft-stagger`` -- Raft with deterministic per-server timeouts laddered by
  Eq. 1 but *without* ESCAPE's priority-driven term growth: the cheapest
  collision-free baseline, isolating how much of ESCAPE's win is just
  "timeouts must differ".

The PPF ablation's no-patrol baseline is Z-Raft itself (SCA alone, the
paper's own baseline in Section VI-D).
"""

from __future__ import annotations

from typing import Any

from repro.common.registry import Registry
from repro.escape.node import EscapeNode
from repro.protocols.spec import ProtocolSpec
from repro.raft.node import RaftNode
from repro.zraft.node import ZRaftNode

__all__ = [
    "PAPER_PROTOCOLS",
    "RAFT_VS_ESCAPE",
    "get",
    "is_registered",
    "items",
    "names",
    "register",
    "title",
    "validated",
]

_REGISTRY: Registry[ProtocolSpec] = Registry("protocol")

register = _REGISTRY.register
get = _REGISTRY.get
names = _REGISTRY.names
items = _REGISTRY.items
is_registered = _REGISTRY.__contains__


def title(name: str) -> str:
    """Display label for *name* (the raw name when it is not registered)."""
    return get(name).title if name in _REGISTRY else name


def validated(*protocol_names: str) -> tuple[str, ...]:
    """Return *protocol_names* unchanged after checking each is registered.

    The experiment modules build their default ``PROTOCOLS`` tuples through
    this, so a typo fails at import time with the list of valid names.
    """
    for name in protocol_names:
        get(name)
    return tuple(protocol_names)


# ---------------------------------------------------------------------- #
# The deterministic Raft baselines: Raft nodes that wait a fixed time
# ---------------------------------------------------------------------- #
class FixedTimeoutRaftNode(RaftNode):
    """``raft-fixed``: every server waits the midpoint of the Raft range."""

    __slots__ = ()

    protocol_name = "raft-fixed"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        timeouts = self.config.raft_timeouts
        self._own_timeout_ms = (timeouts.timeout_min_ms + timeouts.timeout_max_ms) / 2.0


class StaggeredTimeoutRaftNode(RaftNode):
    """``raft-stagger``: the Eq. 1 ladder as plain fixed timeouts.

    Reuses SCA's priority convention (priority = server id, highest id gets
    the shortest timeout) but keeps Raft's term rule, so campaigns never
    collide yet terms still grow by one per campaign.
    """

    __slots__ = ()

    protocol_name = "raft-stagger"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._own_timeout_ms = self.config.sca.election_timeout_ms(
            priority=self.node_id, cluster_size=self.cluster.size
        )


# ---------------------------------------------------------------------- #
# Built-in registrations
# ---------------------------------------------------------------------- #
register(
    ProtocolSpec(
        name="raft",
        node_class=RaftNode,
        title="Raft",
        description="baseline Raft with randomized election timeouts",
    )
)
register(
    ProtocolSpec(
        name="zraft",
        node_class=ZRaftNode,
        title="Z-Raft",
        description=(
            "ZooKeeper-style static priorities: SCA without the PPF (its "
            "configurations, and so their clocks, never change)"
        ),
    )
)
register(
    ProtocolSpec(
        name="escape",
        node_class=EscapeNode,
        title="ESCAPE",
        description="the paper's contribution: SCA + PPF + configuration clock",
    )
)
register(
    ProtocolSpec(
        name="raft-fixed",
        node_class=FixedTimeoutRaftNode,
        title="Raft (fixed timeout)",
        description=(
            "degenerate baseline: one deterministic timeout for every server "
            "(livelocks by design -- the Figure 10 collision argument)"
        ),
        guarantees_liveness=False,
    )
)
register(
    ProtocolSpec(
        name="raft-stagger",
        node_class=StaggeredTimeoutRaftNode,
        title="Raft (staggered timeouts)",
        description=(
            "deterministic per-server timeouts laddered by Eq. 1, without "
            "priority-driven term growth"
        ),
    )
)

#: The paper's three-way comparison (Figure 11, the WAN experiment).
PAPER_PROTOCOLS: tuple[str, ...] = validated("raft", "zraft", "escape")

#: The paper's head-to-head comparison (Figures 9 and 10).
RAFT_VS_ESCAPE: tuple[str, ...] = validated("raft", "escape")
