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

:class:`~repro.escape.node.EscapeNode` adds the PPF to
:class:`~repro.zraft.node.ZRaftNode` (SCA alone) through Raft's extension
hooks, so it lives in :mod:`repro.escape.node`, not in this package's
exports.  Log replication is untouched, the basis of the paper's safety
argument (Section V).
"""

from repro.escape.configuration import Configuration
from repro.escape.messages import (
    EscapeAppendEntriesRequest,
    EscapeAppendEntriesResponse,
    EscapeRequestVoteRequest,
)
from repro.escape.ppf import FollowerResponsiveness, ProbingPatrol
from repro.escape.sca import assign_initial_configurations, joining_configuration

__all__ = [
    "Configuration",
    "EscapeAppendEntriesRequest",
    "EscapeAppendEntriesResponse",
    "EscapeRequestVoteRequest",
    "FollowerResponsiveness",
    "ProbingPatrol",
    "assign_initial_configurations",
    "joining_configuration",
]
