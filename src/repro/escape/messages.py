"""ESCAPE's extended RPC messages (Listing 1 of the paper).

ESCAPE adds exactly three pieces of information to Raft's RPCs:

* ``AppendEntries`` carries the follower's *newly assigned configuration*
  (``newConfig``), letting the PPF distribute configurations on the existing
  heartbeat without extra messages;
* the ``AppendEntries`` reply carries the paper's ``configStatus``: the
  follower's log index (its log responsiveness) and the configuration it
  holds, whose timer period and clock are the struct's other two values;
* ``RequestVote`` carries the candidate's configuration clock (and priority,
  for observability), letting voters reject stale candidates.

Each extended message subclasses its Raft counterpart, so Raft-level handlers
treat them identically -- the mechanical expression of the paper's Lemma 2
(an ESCAPE campaign is indistinguishable from a Raft campaign to a receiver).
"""

from __future__ import annotations

from repro.common.frozen import value_object
from repro.common.types import LogIndex
from repro.escape.configuration import Configuration
from repro.raft.messages import (
    AppendEntriesRequest,
    AppendEntriesResponse,
    RequestVoteRequest,
)


@value_object(slots=True)
class EscapeRequestVoteRequest(RequestVoteRequest):
    """RequestVote extended with the candidate's configuration metadata."""

    conf_clock: int = 0
    priority: int = 1


@value_object(slots=True)
class EscapeAppendEntriesRequest(AppendEntriesRequest):
    """AppendEntries extended with the follower's newly assigned configuration.

    ``new_config`` is ``None`` when the leader has nothing new for this
    follower in this round (for example while it is still collecting the first
    round of responsiveness reports).
    """

    new_config: Configuration | None = None


@value_object(slots=True)
class EscapeAppendEntriesResponse(AppendEntriesResponse):
    """AppendEntries reply extended with the follower's ``configStatus``.

    ``log_index`` is the follower's last log index, which the leader's PPF
    records; ``configuration`` is the frozen configuration the follower
    holds, the object itself, so the struct's ``timer_period_ms`` and
    ``conf_clock`` ride on the reply with no object built for them.  A reply
    with ``log_index`` ``None`` reports its match index instead, as Raft's
    reply does.
    """

    log_index: LogIndex | None = None
    configuration: Configuration | None = None
