"""The protocol registry and the built-in protocol specs.

Three protocols come from the paper (Raft, Z-Raft, ESCAPE) and three variants
probe its arguments:

* ``raft-fixed`` -- Raft with one deterministic timeout shared by every
  server: the degenerate baseline the Figure 10 collision argument predicts
  will livelock (every wait expires simultaneously, every campaign splits).
  Registered with ``guarantees_liveness=False``; a regression test pins the
  predicted livelock.
* ``raft-stagger`` -- Raft with deterministic per-server timeouts laddered by
  Eq. 1 but *without* ESCAPE's priority-driven term growth: the cheapest
  collision-free baseline, isolating how much of ESCAPE's win is just
  "timeouts must differ".
* ``escape-noppf`` -- full ESCAPE with the Probing Patrol disabled (initial
  SCA configurations are permanent), turning the PPF ablation into a
  first-class protocol.
"""

from __future__ import annotations

from repro.common.config import ClusterConfig, ProtocolConfig
from repro.common.registry import Registry
from repro.common.types import ServerId
from repro.escape.node import EscapeNode, EscapeNoPpfNode
from repro.protocols.spec import ProtocolSpec
from repro.raft.node import RaftNode
from repro.raft.timers import ElectionTimeoutPolicy, FixedTimeoutPolicy
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
# Default timeout policies for the deterministic Raft baselines
# ---------------------------------------------------------------------- #
def _fixed_midpoint_policy(
    config: ProtocolConfig, node_id: ServerId, cluster: ClusterConfig
) -> ElectionTimeoutPolicy:
    """``raft-fixed``: every server waits the midpoint of the Raft range."""
    timeouts = config.raft_timeouts
    return FixedTimeoutPolicy(
        (timeouts.timeout_min_ms + timeouts.timeout_max_ms) / 2.0
    )


def _staggered_ladder_policy(
    config: ProtocolConfig, node_id: ServerId, cluster: ClusterConfig
) -> ElectionTimeoutPolicy:
    """``raft-stagger``: the Eq. 1 ladder as plain fixed timeouts.

    Reuses SCA's priority convention (priority = server id, highest id gets
    the shortest timeout) but feeds the ladder to an unmodified Raft node, so
    campaigns never collide yet terms still grow by one per campaign.
    """
    return FixedTimeoutPolicy(
        config.sca.election_timeout_ms(
            priority=node_id, cluster_size=cluster.size
        )
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
        paper_section="Section II",
        timeout_kind="policy",
    )
)
register(
    ProtocolSpec(
        name="zraft",
        node_class=ZRaftNode,
        title="Z-Raft",
        description="ZooKeeper-style static priorities (SCA without PPF or clock)",
        paper_section="Section VI-D",
        timeout_kind="override",
    )
)
register(
    ProtocolSpec(
        name="escape",
        node_class=EscapeNode,
        title="ESCAPE",
        description="the paper's contribution: SCA + PPF + configuration clock",
        paper_section="Sections IV-V",
        timeout_kind="override",
    )
)
register(
    ProtocolSpec(
        name="raft-fixed",
        node_class=RaftNode,
        title="Raft (fixed timeout)",
        description=(
            "degenerate baseline: one deterministic timeout for every server "
            "(livelocks by design -- the Figure 10 collision argument)"
        ),
        paper_section="Section VI-C (implied baseline)",
        timeout_kind="policy",
        default_timeout_policy=_fixed_midpoint_policy,
        guarantees_liveness=False,
    )
)
register(
    ProtocolSpec(
        name="raft-stagger",
        node_class=RaftNode,
        title="Raft (staggered timeouts)",
        description=(
            "deterministic per-server timeouts laddered by Eq. 1, without "
            "priority-driven term growth"
        ),
        paper_section="Section IV-A (implied baseline)",
        timeout_kind="policy",
        default_timeout_policy=_staggered_ladder_policy,
    )
)
register(
    ProtocolSpec(
        name="escape-noppf",
        node_class=EscapeNoPpfNode,
        title="ESCAPE (no PPF)",
        description=(
            "ESCAPE with the Probing Patrol disabled: initial SCA "
            "configurations are permanent (the PPF ablation, first-class)"
        ),
        paper_section="Section IV-B (ablation)",
        timeout_kind="override",
    )
)

#: The paper's three-way comparison (Figure 11, the WAN experiment).
PAPER_PROTOCOLS: tuple[str, ...] = validated("raft", "zraft", "escape")

#: The paper's head-to-head comparison (Figures 9 and 10).
RAFT_VS_ESCAPE: tuple[str, ...] = validated("raft", "escape")
