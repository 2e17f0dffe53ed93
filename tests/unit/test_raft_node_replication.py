"""Unit tests for RaftNode log replication (leader and follower sides)."""

import pytest

from helpers import AppendRegister, FakeEnvironment, fast_protocol_config, small_cluster

from repro.common.errors import ProtocolError
from repro.raft.messages import (
    AppendEntriesRequest,
    AppendEntriesResponse,
    RequestVoteResponse,
)
from repro.raft.node import RaftNode
from repro.raft.state import Role
from repro.statemachine.kvstore import PutCommand
from repro.storage.log import LogEntry
from repro.storage.persistent import InMemoryStore


def make_follower(node_id=2, size=3, **kwargs):
    env = FakeEnvironment(node_id=node_id)
    node = RaftNode(
        node_id=node_id,
        cluster=small_cluster(size),
        env=env,
        protocol_config=fast_protocol_config(),
        **kwargs,
    )
    node.start()
    return node, env


def make_leader(node_id=1, size=3, **kwargs):
    env = FakeEnvironment(node_id=node_id)
    node = RaftNode(
        node_id=node_id,
        cluster=small_cluster(size),
        env=env,
        protocol_config=fast_protocol_config(),
        **kwargs,
    )
    node.start()
    env.fire_next_timer(f"S{node_id}:election-timeout")
    for peer in node.peers:
        node.on_message(
            peer, RequestVoteResponse(term=node.current_term, voter_id=peer, vote_granted=True)
        )
        if node.role is Role.LEADER:
            break
    assert node.role is Role.LEADER
    env.clear_sent()
    return node, env


def entries(*pairs):
    return tuple(LogEntry(term=term, index=index, command=f"c{index}") for index, term in pairs)


class TestFollowerAppendEntries:
    def test_heartbeat_adopts_leader_and_resets_timer(self):
        node, env = make_follower()
        first_timer = env.pending_timers()[0]
        node.on_message(1, AppendEntriesRequest(term=1, leader_id=1))
        assert node.leader_id == 1
        assert node.current_term == 1
        assert first_timer.cancelled
        reply = env.sent_to(1)[0]
        assert isinstance(reply, AppendEntriesResponse) and reply.success

    def test_entries_are_appended_and_acknowledged(self):
        node, env = make_follower()
        request = AppendEntriesRequest(
            term=1, leader_id=1, prev_log_index=0, prev_log_term=0,
            entries=entries((1, 1), (2, 1)), leader_commit=0,
        )
        node.on_message(1, request)
        assert node.log.last_index == 2
        reply = env.sent_to(1)[0]
        assert reply.success and reply.match_index == 2

    def test_consistency_check_failure_is_rejected_with_hint(self):
        node, env = make_follower()
        request = AppendEntriesRequest(
            term=1, leader_id=1, prev_log_index=5, prev_log_term=1,
            entries=entries((6, 1)), leader_commit=0,
        )
        node.on_message(1, request)
        reply = env.sent_to(1)[0]
        assert not reply.success
        assert reply.match_index == 0  # follower's last index, the rewind hint
        assert node.log.last_index == 0

    def test_stale_term_append_entries_rejected(self):
        store = InMemoryStore()
        store.save_term_and_vote(5, None)
        node, env = make_follower(store=store)
        node.on_message(1, AppendEntriesRequest(term=3, leader_id=1))
        reply = env.sent_to(1)[0]
        assert not reply.success
        assert reply.term == 5
        assert node.leader_id is None

    def test_commit_index_follows_leader_commit(self):
        machine = AppendRegister()
        node, env = make_follower(state_machine=machine)
        node.on_message(
            1,
            AppendEntriesRequest(
                term=1, leader_id=1, prev_log_index=0, prev_log_term=0,
                entries=entries((1, 1), (2, 1)), leader_commit=1,
            ),
        )
        assert node.commit_index == 1
        assert machine.history == ["c1"]

    def test_commit_index_capped_by_local_log(self):
        node, env = make_follower(state_machine=AppendRegister())
        node.on_message(
            1,
            AppendEntriesRequest(
                term=1, leader_id=1, prev_log_index=0, prev_log_term=0,
                entries=entries((1, 1)), leader_commit=10,
            ),
        )
        assert node.commit_index == 1

    def test_conflicting_entries_are_overwritten(self):
        store = InMemoryStore()
        log = store.load_log()
        log.append_entry(LogEntry(term=1, index=1, command="old1"))
        log.append_entry(LogEntry(term=1, index=2, command="old2"))
        node, env = make_follower(store=store)
        node.on_message(
            1,
            AppendEntriesRequest(
                term=2, leader_id=1, prev_log_index=1, prev_log_term=1,
                entries=(LogEntry(term=2, index=2, command="new2"),), leader_commit=0,
            ),
        )
        assert node.log.entry_at(2).command == "new2"

    def test_candidate_steps_down_on_current_leader_heartbeat(self):
        node, env = make_follower(node_id=3)
        env.fire_next_timer("S3:election-timeout")
        assert node.role is Role.CANDIDATE
        node.on_message(1, AppendEntriesRequest(term=node.current_term, leader_id=1))
        assert node.role is Role.FOLLOWER
        assert node.leader_id == 1


class TestLeaderReplication:
    def test_propose_appends_locally_and_broadcasts(self):
        leader, env = make_leader()
        index = leader.propose("command-1")
        assert index == 1
        assert leader.log.last_index == 1
        requests = env.sent_payloads(AppendEntriesRequest)
        assert len(requests) == 2
        assert all(len(request.entries) == 1 for request in requests)

    def test_quorum_acks_advance_commit_and_apply(self):
        machine = AppendRegister()
        leader, env = make_leader(state_machine=machine)
        index = leader.propose("value")
        leader.on_message(
            2,
            AppendEntriesResponse(
                term=leader.current_term, follower_id=2, success=True, match_index=index
            ),
        )
        assert leader.commit_index == index
        assert machine.history == ["value"]

    def test_minority_acks_do_not_commit(self):
        leader, env = make_leader(size=5)
        index = leader.propose("value")
        leader.on_message(
            2,
            AppendEntriesResponse(
                term=leader.current_term, follower_id=2, success=True, match_index=index
            ),
        )
        assert leader.commit_index == 0

    def test_failed_ack_rewinds_next_index(self):
        leader, env = make_leader()
        leader.propose("a")
        leader.propose("b")
        leader.on_message(
            2,
            AppendEntriesResponse(
                term=leader.current_term, follower_id=2, success=False, match_index=0
            ),
        )
        assert leader.progress.next_index(2) == 1
        env.clear_sent()
        env.fire_next_timer("S1:heartbeat")
        resent = [r for r in env.sent_payloads(AppendEntriesRequest) if r.entries]
        assert any(request.prev_log_index == 0 for request in resent)

    def test_heartbeat_timer_keeps_firing(self):
        leader, env = make_leader()
        env.fire_next_timer("S1:heartbeat")
        assert env.sent_payloads(AppendEntriesRequest)
        assert "S1:heartbeat" in env.pending_timer_labels()

    def test_leader_steps_down_on_higher_term_response(self):
        leader, env = make_leader()
        leader.on_message(
            2,
            AppendEntriesResponse(term=99, follower_id=2, success=False, match_index=0),
        )
        assert leader.role is Role.FOLLOWER
        assert leader.current_term == 99
        assert "S1:election-timeout" in env.pending_timer_labels()

    def test_stale_append_response_ignored(self):
        leader, env = make_leader()
        index = leader.propose("x")
        leader.on_message(
            2,
            AppendEntriesResponse(term=0, follower_id=2, success=True, match_index=index),
        )
        assert leader.commit_index == 0

    def test_single_node_cluster_commits_immediately(self):
        env = FakeEnvironment(node_id=1)
        node = RaftNode(
            1,
            small_cluster(1),
            env,
            protocol_config=fast_protocol_config(),
            state_machine=AppendRegister(),
        )
        node.start()
        env.fire_next_timer("S1:election-timeout")
        assert node.role is Role.LEADER
        index = node.propose("solo")
        assert node.commit_index == index

    def test_refused_command_is_not_counted_as_applied(self):
        env = FakeEnvironment(node_id=1)
        node = RaftNode(1, small_cluster(1), env, protocol_config=fast_protocol_config())
        node.start()
        env.fire_next_timer("S1:election-timeout")
        node.propose(PutCommand("k", 1))
        assert node.last_applied == node.state_machine.applied_count == 1
        with pytest.raises(ProtocolError):
            node.propose("not a command")
        assert node.commit_index == 2
        assert node.last_applied == node.state_machine.applied_count == 1
        # The refused entry blocks the ones after it: a later put commits
        # but is not applied, since the node retries the refused entry first.
        with pytest.raises(ProtocolError):
            node.propose(PutCommand("k", 2))
        assert node.commit_index == 3
        assert node.last_applied == node.state_machine.applied_count == 1


class TestCrashRecovery:
    def test_recover_preserves_term_vote_and_log(self):
        store = InMemoryStore()
        node, env = make_follower(store=store, state_machine=AppendRegister())
        node.on_message(
            1,
            AppendEntriesRequest(
                term=4, leader_id=1, prev_log_index=0, prev_log_term=0,
                entries=entries((1, 4)), leader_commit=1,
            ),
        )
        node.stop()
        node.recover()
        assert node.current_term == 4
        assert node.log.last_index == 1
        assert node.role is Role.FOLLOWER
        assert node.is_running

    def test_recover_requires_stopped_node(self):
        node, _ = make_follower()
        with pytest.raises(Exception):
            node.recover()

    def test_stop_cancels_all_timers(self):
        node, env = make_follower()
        node.stop()
        assert env.pending_timers() == []
