"""Unit tests for the Z-Raft baseline (static priorities, no PPF)."""

from helpers import FakeEnvironment, fast_protocol_config, small_cluster

from repro.escape.configuration import Configuration
from repro.escape.messages import (
    EscapeAppendEntriesRequest,
    EscapeAppendEntriesResponse,
    EscapeRequestVoteRequest,
)
from repro.raft.messages import AppendEntriesRequest, AppendEntriesResponse, RequestVoteResponse
from repro.raft.state import Role
from repro.zraft.node import ZRaftNode


def make_node(node_id=3, size=5):
    env = FakeEnvironment(node_id=node_id)
    node = ZRaftNode(
        node_id=node_id,
        cluster=small_cluster(size),
        env=env,
        protocol_config=fast_protocol_config(),
    )
    return node, env


def make_leader(node_id=5, size=5):
    node, env = make_node(node_id=node_id, size=size)
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


class TestStaticPriorities:
    def test_priority_is_the_server_id_and_never_changes(self):
        node, env = make_node(node_id=3)
        node.start()
        before = node.configuration
        node.on_message(
            1,
            EscapeAppendEntriesRequest(
                term=1,
                leader_id=1,
                new_config=Configuration(priority=5, timer_period_ms=50.0, conf_clock=9),
            ),
        )
        assert node.configuration == before
        assert node.configuration_updates == 0

    def test_term_growth_still_uses_the_static_priority(self):
        node, env = make_node(node_id=3)
        node.start()
        env.fire_next_timer("S3:election-timeout")
        assert node.current_term == 3

    def test_election_timeout_comes_from_static_configuration(self):
        node, env = make_node(node_id=2, size=5)
        node.start()
        # fast config: base 100ms, k 20ms -> S2 in a 5-cluster waits 160ms.
        assert env.pending_timers()[0].delay_ms == 160.0


class TestNoPpf:
    def test_leader_has_no_patrol_and_sends_plain_heartbeats(self):
        node, env = make_leader()
        assert node.patrol is None
        env.fire_next_timer("S5:heartbeat")
        heartbeats = env.sent_payloads(AppendEntriesRequest)
        assert heartbeats
        assert not any(isinstance(hb, EscapeAppendEntriesRequest) for hb in heartbeats)

    def test_replies_are_plain_raft_replies(self):
        node, env = make_node(node_id=2)
        node.start()
        node.on_message(1, AppendEntriesRequest(term=1, leader_id=1))
        reply = env.sent_to(1)[0]
        assert isinstance(reply, AppendEntriesResponse)
        assert not isinstance(reply, EscapeAppendEntriesResponse)

    def test_disabled_hooks_are_raft_s_own_so_the_hot_path_skips_them(self):
        node, env = make_node(node_id=2)
        flags = {name: value for name, value in vars(node).items() if name.endswith("_is_default")}
        # SCA's timeout is node state, not a hook: no flag.
        assert node._own_timeout_ms == node.configuration.timer_period_ms
        assert flags and all(flags.values()), flags
        node.start()
        node.on_message(1, AppendEntriesRequest(term=1, leader_id=1))
        node.on_message(1, AppendEntriesRequest(term=1, leader_id=1))
        first, second = env.sent_to(1)
        assert first is second

    def test_votes_are_not_gated_by_configuration_clock(self):
        node, env = make_node(node_id=2)
        node.start()
        node.on_message(
            3,
            EscapeRequestVoteRequest(term=5, candidate_id=3, conf_clock=0, priority=3),
        )
        assert env.sent_to(3)[0].vote_granted

    def test_protocol_name(self):
        node, _ = make_node()
        assert node.protocol_name == "zraft"
