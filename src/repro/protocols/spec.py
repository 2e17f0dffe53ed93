"""The :class:`ProtocolSpec` descriptor: how one named protocol builds nodes.

A spec bundles everything the rest of the codebase needs to know about a
protocol: the node class to instantiate (which decides its own election
timeouts) and the presentation metadata (display title, paper section) the
reports use.

Specs are frozen dataclasses whose node class is module-level, so they pickle
by reference and survive the parallel sweep engine's process boundary
unchanged.
"""

from __future__ import annotations

from typing import Iterable

from repro.common.config import ClusterConfig, ProtocolConfig
from repro.common.errors import ConfigurationError
from repro.common.frozen import value_object
from repro.common.types import Milliseconds, ServerId
from repro.raft.environment import Environment
from repro.raft.listeners import ListenerTable, NodeListener
from repro.raft.node import RaftNode
from repro.statemachine.base import StateMachine
from repro.storage.persistent import PersistentState

__all__ = ["ProtocolSpec"]


@value_object
class ProtocolSpec:
    """Descriptor for one registered election protocol.

    Attributes:
        name: registry key and CLI name (e.g. ``"zraft"``).
        node_class: the :class:`~repro.raft.node.RaftNode` subclass to
            instantiate.
        title: display label used in report tables (e.g. ``"Z-Raft"``).
        description: one-line summary shown in the registry table.
        guarantees_liveness: whether the protocol is expected to complete a
            failover under the paper's healthy-network conditions.  ``False``
            only for degenerate baselines (``raft-fixed`` gets its first
            leader from the harness's bootstrap campaign, then every failover
            livelocks by design, which is exactly the Figure 10 collision
            argument); the conformance suite asserts liveness for every spec
            that claims it.
    """

    name: str
    node_class: type[RaftNode]
    title: str
    description: str = ""
    guarantees_liveness: bool = True

    def __post_init__(self) -> None:
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
        listeners: Iterable[NodeListener] | ListenerTable = (),
        timeout_script: tuple[Milliseconds, ...] = (),
    ) -> RaftNode:
        """Construct one node of this protocol.

        The cluster builder funnels all node construction through here.
        *timeout_script* is the node's contention script (see
        :class:`~repro.raft.node.RaftNode`); it comes before the protocol's
        own timeouts, whichever they are.
        """
        return self.node_class(
            node_id=node_id,
            cluster=cluster,
            env=env,
            store=store,
            state_machine=state_machine,
            protocol_config=protocol_config,
            listeners=listeners,
            timeout_script=timeout_script,
        )
