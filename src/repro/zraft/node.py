"""The Z-Raft node: static priorities, no probing patrol.

Z-Raft is implemented as :class:`~repro.escape.node.EscapeNode` with every PPF
hook disabled: the configuration each server receives at join time (priority =
server id, timeout from Eq. 1) is permanent, no configuration is ever
redistributed, and -- because assignments never change -- there is no
configuration clock to gate votes on.

This is the comparison the paper draws in Section VI-D: with a low message
loss rate Z-Raft tracks ESCAPE closely, but as loss grows the statically
privileged servers fall behind in log replication and their high-priority
configurations are wasted on losing candidates.
"""

from __future__ import annotations

from repro.common.types import Term
from repro.escape.node import EscapeNode
from repro.raft.node import RaftNode


class ZRaftNode(EscapeNode):
    """A server running Raft with ZooKeeper-style static priorities."""

    __slots__ = ()

    protocol_name = "zraft"

    # ------------------------------------------------------------------ #
    # Keep SCA (term growth + prioritized timeouts), drop everything PPF
    # ------------------------------------------------------------------ #
    def _hook_on_become_leader(self) -> None:
        """Z-Raft leaders do not manage a configuration pool."""
        self.patrol = None

    # Each PPF hook is handed back to Raft by alias, not by a fresh no-op
    # body: RaftNode skips a hook only when the class still holds
    # RaftNode's own function.  Heartbeats carry no
    # configuration, replies are plain Raft replies with no configStatus,
    # and without rearrangement there is no configuration clock to gate
    # votes on.  Followers never change configuration, and a leader keeps no
    # reply records (it starts no patrol).
    _hook_before_heartbeat_round = RaftNode._hook_before_heartbeat_round
    _hook_decorate_append_request = RaftNode._hook_decorate_append_request
    _hook_payload_token = RaftNode._hook_payload_token
    _hook_may_grant_vote = RaftNode._hook_may_grant_vote
    _hook_build_append_response = RaftNode._hook_build_append_response
    _adopts_piggyback = False

    def _hook_next_election_term(self) -> Term:
        """Term growth still follows Eq. 2, with the *static* priority."""
        return self.current_term + self.configuration.priority
