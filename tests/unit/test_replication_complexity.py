"""A steady AppendEntries round does work proportional to what changed.

Like ``test_cluster_build_complexity.py`` the pins count work (constructions,
calls), never time, so they read the same on any machine.
"""

import dataclasses
import sys
from collections import Counter

import pytest
from helpers import FakeEnvironment, fast_protocol_config, small_cluster

from repro.cluster.builder import build_cluster
from repro.escape.messages import EscapeAppendEntriesRequest, EscapeAppendEntriesResponse
from repro.escape.node import EscapeNode
from repro.escape.ppf import ProbingPatrol
from repro.raft.messages import AppendEntriesResponse, RequestVoteResponse
from repro.raft.node import RaftNode
from repro.raft.replication import ReplicationProgress
from repro.raft.state import Role
from repro.statemachine.kvstore import PutCommand
from repro.storage import log as log_module
from repro.storage.log import LogEntry, ReplicatedLog
from repro.storage.persistent import InMemoryStore

HEARTBEAT_OBJECTS = (EscapeAppendEntriesRequest, EscapeAppendEntriesResponse)


def count_constructions(action) -> Counter:
    """Value objects (frozen dataclasses) whose ``__init__`` runs while
    *action* runs, by class name.  A generated ``__init__``'s code is named
    after its class (``EscapeAppendEntriesResponse__init__``)."""
    built: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code.co_name.endswith("__init__"):
            instance = frame.f_locals.get("self")
            if dataclasses.is_dataclass(instance):
                built[type(instance).__name__] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return built


def count_method_calls(monkeypatch, cls, method_name) -> list:
    """Patch ``cls.method_name`` with a counting pass-through; returns the call log."""
    calls: list = []
    original = getattr(cls, method_name)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method_name, counting)
    return calls


def make_leader(store=None, size=5):
    env = FakeEnvironment(node_id=1)
    node = RaftNode(
        node_id=1,
        cluster=small_cluster(size),
        env=env,
        store=store,
        protocol_config=fast_protocol_config(),
    )
    node.start()
    env.fire_next_timer("S1:election-timeout")
    for peer in node.peers:
        node.on_message(
            peer, RequestVoteResponse(term=node.current_term, voter_id=peer, vote_granted=True)
        )
    assert node.role is Role.LEADER
    return node


def success_reply(node, peer, match_index):
    node.on_message(
        peer,
        AppendEntriesResponse(
            term=node.current_term, follower_id=peer, success=True, match_index=match_index
        ),
    )


class TestIdleHeartbeatRound:
    SIZE = 64

    def settled_cluster(self):
        cluster = build_cluster("escape", self.SIZE, seed=3, trace=False)
        cluster.start_all()
        # Election, the first rearrangements and their acknowledgements.
        cluster.world.run_for(6_000.0)
        assert cluster.has_leader()
        return cluster

    def test_an_idle_round_constructs_no_message(self):
        cluster = self.settled_cluster()
        heartbeat_ms = cluster.leader().config.heartbeat_interval_ms
        sent_before = cluster.network.stats.sent
        built = count_constructions(lambda: cluster.world.run_for(3 * heartbeat_ms))
        # The rounds really ran: requests out and replies back, every round.
        assert cluster.network.stats.sent - sent_before >= 3 * 2 * (self.SIZE - 2)
        assert built == Counter()

    def test_a_reassignment_rebuilds_each_message_once_per_follower(self):
        cluster = self.settled_cluster()
        leader = cluster.leader()
        patrol = leader.patrol
        rearrangements = patrol.rearrangement_count
        # Silencing the groomed future leader forces one rearrangement.
        cluster.crash(patrol.groomed_future_leader())
        built = count_constructions(lambda: cluster.world.run_for(3_000.0))
        reassigned = patrol.rearrangement_count - rearrangements
        assert reassigned >= 1
        followers = self.SIZE - 1
        for cls in HEARTBEAT_OBJECTS:
            assert 0 < built[cls.__name__] <= reassigned * followers


class TestOneObjectPerReply:
    """ESCAPE's follower reply is one object: its configStatus rides on it as
    ``log_index`` and the held ``configuration``, so a reply-memo miss builds
    the reply and no other value object."""

    def test_every_memo_miss_builds_one_reply_and_nothing_else(self, monkeypatch):
        cluster = build_cluster("escape", 5, seed=3, trace=False)
        cluster.start_all()
        cluster.world.run_for(3_000.0)
        leader = cluster.leader()
        original = RaftNode._make_append_response
        hits, misses = [], []

        def recording(node, success, match_index):
            memo = node._append_response_memo
            built = count_constructions(lambda: original(node, success, match_index))
            reply = node._append_response_memo[1]
            if node._append_response_memo is memo:
                hits.append(built)
            else:
                misses.append(built)
                assert reply.log_index == node.log.last_index
                assert reply.configuration is node.configuration
            return reply

        monkeypatch.setattr(RaftNode, "_make_append_response", recording)
        heartbeat_ms = leader.config.heartbeat_interval_ms
        for value in range(20):
            leader.propose(PutCommand("k", str(value)))
            cluster.world.run_for(heartbeat_ms / 2)
        cluster.world.run_for(3 * heartbeat_ms)
        assert leader.commit_index == leader.log.last_index >= 20
        assert len(misses) >= 20 * 4 and hits
        assert all(built == Counter() for built in hits)
        assert all(
            built == Counter({"EscapeAppendEntriesResponse": 1}) for built in misses
        )

    @pytest.mark.parametrize("protocol", ["raft", "zraft", "escape", "escape-noppf"])
    def test_only_escape_replies_carry_the_config_status(self, monkeypatch, protocol):
        """ESCAPE's replies (with or without the patrol) carry the follower's
        log index and held configuration; Raft's and Z-Raft's carry neither
        and read ``log_index`` as ``None``."""
        reply_class = (
            EscapeAppendEntriesResponse
            if protocol.startswith("escape")
            else AppendEntriesResponse
        )
        original = RaftNode._make_append_response
        replies = []

        def checking(node, success, match_index):
            reply = original(node, success, match_index)
            assert type(reply) is reply_class
            if reply_class is EscapeAppendEntriesResponse:
                assert reply.log_index == node.log.last_index
                assert reply.configuration is node.configuration
            else:
                assert reply.log_index is None
                assert not hasattr(reply, "configuration")
            replies.append(reply)
            return reply

        monkeypatch.setattr(RaftNode, "_make_append_response", checking)
        cluster = build_cluster(protocol, 5, seed=3, trace=False)
        cluster.start_all()
        cluster.world.run_for(3_000.0)
        leader = cluster.leader()
        for value in range(5):
            leader.propose(PutCommand("k", str(value)))
            cluster.world.run_for(leader.config.heartbeat_interval_ms)
        cluster.world.run_for(3 * leader.config.heartbeat_interval_ms)
        assert leader.commit_index == leader.log.last_index >= 5
        assert len({reply.follower_id for reply in replies}) == 4
        if reply_class is EscapeAppendEntriesResponse:
            assert len({reply.log_index for reply in replies}) > 1


class TestIdlePatrolRound:
    """ESCAPE's per-follower bookkeeping in an idle round is Raft's own code:
    the follower compares the piggyback inline, the leader keeps its reply
    records inline, and the settled patrol does not rank."""

    SIZE = 16
    PER_FOLLOWER = ("record_reply", "is_lagging", "configuration_for", "responsiveness_of")

    def test_ten_idle_rounds_call_no_adoption_and_no_per_follower_patrol_method(
        self, monkeypatch
    ):
        cluster = build_cluster("escape", self.SIZE, seed=3, trace=False)
        cluster.start_all()
        cluster.world.run_for(6_000.0)
        leader = cluster.leader()
        patrol = leader.patrol
        rearrangements = patrol.rearrangement_count
        heartbeat_ms = leader.config.heartbeat_interval_ms
        replied_before = [record.last_reply_ms for record in patrol.records.values()]
        adoptions = count_method_calls(monkeypatch, EscapeNode, "_adopt_configuration")
        rounds = count_method_calls(monkeypatch, ProbingPatrol, "advance_round")
        per_follower = {
            name: count_method_calls(monkeypatch, ProbingPatrol, name)
            for name in self.PER_FOLLOWER
        }
        cluster.world.run_for(10 * heartbeat_ms)
        # Ten rounds ran, every follower's replies reached the patrol, and
        # nothing was rearranged.
        assert len(rounds) == 10
        replied_after = [record.last_reply_ms for record in patrol.records.values()]
        assert all(
            after > before for before, after in zip(replied_before, replied_after)
        )
        assert patrol.rearrangement_count == rearrangements
        assert adoptions == []
        assert {name: len(calls) for name, calls in per_follower.items()} == dict.fromkeys(
            self.PER_FOLLOWER, 0
        )


class TestCommitRuleWork:
    def test_a_reply_at_or_below_the_commit_index_skips_the_commit_rule(self, monkeypatch):
        node = make_leader()
        node.propose(PutCommand("k", "a"))
        success_reply(node, 2, 1)
        success_reply(node, 3, 1)
        node.propose(PutCommand("k", "b"))
        assert (node.commit_index, node.log.last_index) == (1, 2)
        calls = count_method_calls(monkeypatch, ReplicationProgress, "commit_index_for_quorum")
        success_reply(node, 4, 1)
        assert calls == []
        assert node.progress.match_index(4) == 1
        success_reply(node, 4, 2)
        assert len(calls) == 1

    def test_old_term_entries_on_a_quorum_are_not_walked(self, monkeypatch):
        store = InMemoryStore()
        log = ReplicatedLog(LogEntry(term=1, index=index) for index in range(1, 501))
        store.save_log(log)
        store.save_term_and_vote(1, None)
        node = make_leader(store=store)
        assert node.current_term == 2 and node.log.last_index == 500
        success_reply(node, 2, 500)
        success_reply(node, 3, 500)
        # A quorum holds all 500 entries, none of the leader's term: nothing
        # commits, and finding that out must not cost a walk down the log.
        calls = count_method_calls(monkeypatch, ReplicatedLog, "term_at")
        success_reply(node, 4, 500)
        assert node.commit_index == 0
        assert len(calls) <= 2


class _SliceCounter(list):
    """A list that counts the elements its slices copy."""

    copied = 0

    def __getitem__(self, key):
        result = super().__getitem__(key)
        if isinstance(key, slice):
            self.copied += len(result)
        return result


class TestAppendBuildWork:
    def test_a_follower_far_behind_costs_one_batch_not_the_log(self):
        store = InMemoryStore()
        log = ReplicatedLog(LogEntry(term=1, index=index) for index in range(1, 10_001))
        store.save_log(log)
        store.save_term_and_vote(1, None)
        node = make_leader(store=store)
        node.log._entries = counter = _SliceCounter(node.log._entries)
        _, _, entries = node._append_window(1)  # a follower at next index 1
        assert counter.copied <= 64
        assert len(entries) == node.config.max_entries_per_append == 64
        assert entries == tuple(node.log)[:64]


class TestMergeWork:
    def test_a_fully_stored_window_is_not_walked(self, monkeypatch):
        log = ReplicatedLog(LogEntry(term=1, index=index) for index in range(1, 65))
        window = tuple(log)
        walks = []

        def counting_enumerate(*args):
            walks.append(args)
            return enumerate(*args)

        # The per-entry loop is the module's only enumerate() call.
        monkeypatch.setattr(log_module, "enumerate", counting_enumerate, raising=False)
        assert log.check_and_merge(0, 0, window) is False
        assert walks == []
        assert log.last_index == 64
        assert log.check_and_merge(0, 0, window + (LogEntry(term=1, index=65),)) is True
        [(walked, _)] = walks
        assert len(walked) == 1  # only the new entry
