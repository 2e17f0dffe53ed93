"""The :class:`ProtocolSpec` descriptor: how one named protocol builds nodes.

A spec bundles everything the rest of the codebase needs to know about a
protocol: the node class to instantiate, how its election timeouts are chosen
(a randomized/fixed *policy* for the Raft family, a scripted *override* on top
of configuration-driven timeouts for the ESCAPE family), and the presentation
metadata (display title, paper section) the reports use.

Specs are frozen dataclasses whose callable fields are module-level functions
or classes, so they pickle by reference and survive the parallel sweep
engine's process boundary unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.common.config import ClusterConfig, ProtocolConfig
from repro.common.errors import ConfigurationError
from repro.common.types import ServerId
from repro.raft.environment import Environment
from repro.raft.listeners import NodeListener
from repro.raft.node import RaftNode
from repro.raft.timers import ElectionTimeoutPolicy
from repro.statemachine.base import StateMachine
from repro.storage.persistent import PersistentState

__all__ = ["ProtocolSpec", "TimeoutPolicyFactory", "TIMEOUT_KINDS"]

#: Builds a node's default timeout policy/override from its configuration and
#: place in the cluster.  Must be a module-level function (pickled by
#: reference).  Return ``None`` to fall back to the node class's own default.
TimeoutPolicyFactory = Callable[
    [ProtocolConfig, ServerId, ClusterConfig], ElectionTimeoutPolicy | None
]

#: How a protocol's election timeouts are wired into its node class:
#: ``"policy"`` protocols (the Raft family) take a ``timeout_policy`` that is
#: the *only* source of timeouts; ``"override"`` protocols (the ESCAPE family)
#: derive timeouts from their configuration and take a ``timeout_override``
#: consulted first (the contention scenarios script it).
TIMEOUT_KINDS = ("policy", "override")


@dataclass(frozen=True)
class ProtocolSpec:
    """Descriptor for one registered election protocol.

    Attributes:
        name: registry key and CLI name (e.g. ``"escape-noppf"``).
        node_class: the :class:`~repro.raft.node.RaftNode` subclass to
            instantiate.  ``"policy"`` specs need its constructor to accept
            ``timeout_policy``; ``"override"`` specs need ``timeout_override``.
        title: display label used in report tables (e.g. ``"Z-Raft"``).
        description: one-line summary shown in the registry table.
        paper_section: where the paper discusses this protocol (``""`` for
            variants the paper only implies).
        timeout_kind: ``"policy"`` or ``"override"`` (see
            :data:`TIMEOUT_KINDS`).
        default_timeout_policy: optional :data:`TimeoutPolicyFactory` applied
            when the caller does not supply a per-node policy/override (e.g.
            ``raft-fixed`` pins every server to one deterministic timeout).
        guarantees_liveness: whether the protocol is expected to elect a
            leader under the paper's healthy-network conditions.  ``False``
            only for degenerate baselines (``raft-fixed`` livelocks by
            design, which is exactly the Figure 10 collision argument); the
            conformance suite asserts liveness for every spec that claims it.
    """

    name: str
    node_class: type[RaftNode]
    title: str
    description: str = ""
    paper_section: str = ""
    timeout_kind: str = "policy"
    default_timeout_policy: TimeoutPolicyFactory | None = None
    guarantees_liveness: bool = True

    def __post_init__(self) -> None:
        if self.timeout_kind not in TIMEOUT_KINDS:
            raise ConfigurationError(
                f"timeout_kind {self.timeout_kind!r} must be one of {TIMEOUT_KINDS}"
            )
        if not (isinstance(self.node_class, type) and issubclass(self.node_class, RaftNode)):
            raise ConfigurationError(
                f"node_class {self.node_class!r} must be a RaftNode subclass"
            )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def build_node(
        self,
        *,
        node_id: ServerId,
        cluster: ClusterConfig,
        env: Environment,
        store: PersistentState | None = None,
        state_machine: StateMachine | None = None,
        protocol_config: ProtocolConfig | None = None,
        listeners: Iterable[NodeListener] = (),
        timeout_policy: ElectionTimeoutPolicy | None = None,
        timeout_override: ElectionTimeoutPolicy | None = None,
    ) -> RaftNode:
        """Construct one node of this protocol.

        The cluster builder funnels all node construction through here.

        Args:
            timeout_policy: per-node policy for ``"policy"`` specs (ignored by
                ``"override"`` specs); ``None`` consults
                ``default_timeout_policy`` and then the node class's default.
            timeout_override: per-node override for ``"override"`` specs
                (ignored by ``"policy"`` specs); same fallback chain.
        """
        config = protocol_config or ProtocolConfig.paper_defaults()
        common = dict(
            node_id=node_id,
            cluster=cluster,
            env=env,
            store=store,
            state_machine=state_machine,
            protocol_config=config,
            listeners=listeners,
        )
        if self.timeout_kind == "policy":
            policy = timeout_policy
            if policy is None and self.default_timeout_policy is not None:
                policy = self.default_timeout_policy(config, node_id, cluster)
            return self.node_class(timeout_policy=policy, **common)
        override = timeout_override
        if override is None and self.default_timeout_policy is not None:
            override = self.default_timeout_policy(config, node_id, cluster)
        return self.node_class(timeout_override=override, **common)
