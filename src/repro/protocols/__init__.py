"""Protocol plugin registry: the single place a protocol name maps to code.

The paper's core claim is a *comparison* between election protocols, so the
codebase treats "which protocols exist" as data, not control flow.  Every
protocol (and every experimental variant of one) is described by a frozen
:class:`~repro.protocols.spec.ProtocolSpec` -- name, node class, an optional
default timeout policy, display label, paper section -- and registered
here.  Everything that used to branch on protocol strings now consumes the
registry instead:

* :func:`repro.cluster.builder.build_cluster` constructs every node through
  :meth:`ProtocolSpec.build_node`;
* :class:`repro.cluster.scenarios.ElectionScenario` validates its protocol
  against the registry at construction time;
* the experiment modules derive their default ``PROTOCOLS`` tuples from
  :data:`PAPER_PROTOCOLS` / :data:`RAFT_VS_ESCAPE` and render report columns
  from :func:`title`;
* the CLI accepts ``--protocols name,name`` for any registered names.

Registering a new variant makes it available everywhere at once::

    from repro import protocols
    from repro.raft.node import RaftNode

    protocols.register(
        protocols.ProtocolSpec(
            name="my-raft",
            node_class=RaftNode,
            title="My Raft",
            description="Raft with a custom timeout policy",
        )
    )

Specs are frozen and picklable (classes and hook functions are pickled by
reference), so registry-driven scenarios round-trip through the parallel
sweep engine's process pool with bit-for-bit identical results.
"""

from repro.protocols.spec import ProtocolSpec, TimeoutPolicyFactory
from repro.protocols.registry import (
    PAPER_PROTOCOLS,
    RAFT_VS_ESCAPE,
    get,
    is_registered,
    items,
    names,
    register,
    title,
    validated,
)

__all__ = [
    "PAPER_PROTOCOLS",
    "ProtocolSpec",
    "RAFT_VS_ESCAPE",
    "TimeoutPolicyFactory",
    "get",
    "is_registered",
    "items",
    "names",
    "register",
    "title",
    "validated",
]
