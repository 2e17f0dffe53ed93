"""ESCAPE: precaution against leader failures (the paper's contribution).

ESCAPE extends Raft's leader election with two components:

* **Stochastic Configuration Assignment (SCA)** -- every server holds a unique
  *configuration* pairing a priority with an election timeout (Eq. 1).  The
  priority drives the server's term growth when it campaigns (Eq. 2), so
  simultaneous campaigns land in *different* terms and never split votes.
* **Probing Patrol Function (PPF)** -- the leader tracks follower log
  responsiveness through heartbeat replies and atomically re-assigns the
  winning configurations to the most up-to-date followers, stamping every
  assignment with a monotonically increasing *configuration clock* so stale
  configurations can never disturb an election.

:class:`~repro.escape.node.EscapeNode` plugs these two components into the
Raft core through its extension hooks; log replication is untouched, which is
the basis of the paper's safety argument (Section V).
"""

from repro.escape.configuration import ConfigStatus, Configuration
from repro.escape.messages import (
    EscapeAppendEntriesRequest,
    EscapeAppendEntriesResponse,
    EscapeRequestVoteRequest,
)
from repro.escape.node import EscapeNode, EscapeNoPpfNode
from repro.escape.ppf import FollowerResponsiveness, ProbingPatrol
from repro.escape.sca import assign_initial_configurations, joining_configuration

__all__ = [
    "ConfigStatus",
    "Configuration",
    "EscapeAppendEntriesRequest",
    "EscapeAppendEntriesResponse",
    "EscapeNoPpfNode",
    "EscapeNode",
    "EscapeRequestVoteRequest",
    "FollowerResponsiveness",
    "ProbingPatrol",
    "assign_initial_configurations",
    "joining_configuration",
]
