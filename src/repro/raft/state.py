"""Server roles and role transitions.

Raft deploys three server states -- leader, follower, candidate -- with the
transitions shown in Figure 1 of the paper.  The enum is shared by Raft,
ESCAPE and Z-Raft nodes.
"""

from __future__ import annotations

import enum


class Role(enum.Enum):
    """The role a server currently assumes."""

    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# The members as module constants, for code that runs per message: on
# CPython 3.11 ``Role.LEADER`` goes through ``EnumType.__getattr__`` and is
# never specialized, while a module global is (docs/design-notes.md).
FOLLOWER = Role.FOLLOWER
CANDIDATE = Role.CANDIDATE
LEADER = Role.LEADER

# The transitions permitted by the protocol.  ``LEADER -> CANDIDATE`` is absent
# on purpose: a deposed leader always steps down to follower first.
ALLOWED_TRANSITIONS: frozenset[tuple[Role, Role]] = frozenset(
    {
        (FOLLOWER, CANDIDATE),
        (CANDIDATE, CANDIDATE),  # new campaign after a failed one
        (CANDIDATE, LEADER),
        (CANDIDATE, FOLLOWER),
        (LEADER, FOLLOWER),
        (FOLLOWER, FOLLOWER),  # term updates while staying follower
    }
)


def is_valid_transition(old: Role, new: Role) -> bool:
    """Whether the protocol permits moving from *old* to *new*."""
    return (old, new) in ALLOWED_TRANSITIONS
