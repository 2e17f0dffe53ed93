"""Unit tests for the cluster / protocol configuration dataclasses."""

import dataclasses
import pickle

import pytest

from repro.common.config import (
    ClusterConfig,
    ProtocolConfig,
    RaftTimeoutConfig,
    ScaParameters,
)
from repro.common.errors import ConfigurationError


class TestClusterConfig:
    def test_of_size_builds_canonical_membership(self):
        config = ClusterConfig.of_size(5)
        assert config.server_ids == (1, 2, 3, 4, 5)
        assert config.size == 5

    def test_quorum_size_matches_paper_example(self):
        # Section VI-B: in an 8-server cluster, the quorum size is 5.
        assert ClusterConfig.of_size(8).quorum_size == 5

    def test_quorum_size_for_odd_clusters(self):
        assert ClusterConfig.of_size(5).quorum_size == 3
        assert ClusterConfig.of_size(7).quorum_size == 4

    def test_peers_of_excludes_self(self):
        config = ClusterConfig.of_size(4)
        assert config.peers_of(2) == (1, 3, 4)

    def test_peers_of_unknown_member_raises(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig.of_size(3).peers_of(9)

    def test_contains_and_iteration(self):
        config = ClusterConfig.of_size(3)
        assert 2 in config
        assert 9 not in config
        assert list(config) == [1, 2, 3]
        assert len(config) == 3

    def test_peers_of_keeps_membership_order(self):
        config = ClusterConfig(server_ids=(7, 2, 9, 4))
        assert config.peers_of(9) == (7, 2, 4)
        assert config.peers_of(7) == (2, 9, 4)
        assert config.peers_of(4) == (7, 2, 9)

    def test_value_semantics_survive_pickling(self):
        config = ClusterConfig(server_ids=(7, 2, 9))
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config and hash(clone) == hash(config)
        assert clone.peers_of(2) == (7, 9)
        assert 9 in clone and 3 not in clone
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.server_ids = (1,)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(server_ids=(1, 2, 2))

    def test_rejects_non_positive_ids(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(server_ids=(0, 1))

    def test_rejects_empty_membership(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(server_ids=())


class TestRaftTimeoutConfig:
    def test_defaults_to_paper_recommended_range(self):
        config = RaftTimeoutConfig()
        assert (config.timeout_min_ms, config.timeout_max_ms) == (1500.0, 3000.0)

    def test_rejects_inverted_range(self):
        with pytest.raises(ConfigurationError):
            RaftTimeoutConfig(2000.0, 1500.0)


class TestScaParameters:
    def test_paper_example_from_section_iv(self):
        # 10-server cluster, baseTime=100ms, k=10ms: S2 -> 180ms, S10 -> 100ms.
        params = ScaParameters(base_time_ms=100.0, k_ms=10.0)
        assert params.election_timeout_ms(priority=2, cluster_size=10) == 180.0
        assert params.election_timeout_ms(priority=10, cluster_size=10) == 100.0

    def test_highest_priority_gets_base_time(self):
        params = ScaParameters(base_time_ms=1500.0, k_ms=500.0)
        assert params.election_timeout_ms(priority=8, cluster_size=8) == 1500.0

    def test_lowest_priority_gets_longest_timeout(self):
        params = ScaParameters(base_time_ms=1500.0, k_ms=500.0)
        assert params.election_timeout_ms(priority=1, cluster_size=8) == 1500.0 + 500.0 * 7

    def test_timeouts_strictly_decrease_with_priority(self):
        params = ScaParameters(base_time_ms=1500.0, k_ms=500.0)
        timeouts = [params.election_timeout_ms(p, 16) for p in range(1, 17)]
        assert timeouts == sorted(timeouts, reverse=True)
        assert len(set(timeouts)) == 16

    def test_rejects_priority_outside_cluster(self):
        params = ScaParameters()
        with pytest.raises(ConfigurationError):
            params.election_timeout_ms(priority=9, cluster_size=8)
        with pytest.raises(ConfigurationError):
            params.election_timeout_ms(priority=0, cluster_size=8)


class TestProtocolConfig:
    def test_paper_defaults(self):
        config = ProtocolConfig.paper_defaults()
        assert config.raft_timeouts.timeout_min_ms == 1500.0
        assert config.raft_timeouts.timeout_max_ms == 3000.0
        assert config.sca.base_time_ms == 1500.0
        assert config.sca.k_ms == 500.0

    def test_rejects_heartbeat_slower_than_election_timeout(self):
        with pytest.raises(ConfigurationError, match="heartbeat_interval_ms"):
            ProtocolConfig(
                heartbeat_interval_ms=2000.0,
                raft_timeouts=RaftTimeoutConfig(1500.0, 3000.0),
            )

    def test_rejects_vote_retry_slower_than_election_timeout(self):
        with pytest.raises(ConfigurationError, match="vote_retry_interval_ms"):
            ProtocolConfig(
                vote_retry_interval_ms=1800.0,
                raft_timeouts=RaftTimeoutConfig(1500.0, 3000.0),
            )

    def test_the_smallest_timeout_may_be_sca_s_base_time(self):
        # An ESCAPE follower's shortest wait is base_time_ms (Eq. 1), below
        # Raft's range here: a heartbeat or vote retry it cannot outwait.
        with pytest.raises(ConfigurationError, match=r"heartbeat_interval_ms.*\(150.0 >= 100.0\)"):
            ProtocolConfig(heartbeat_interval_ms=150.0, sca=ScaParameters(100.0, 10.0))
        with pytest.raises(ConfigurationError, match=r"vote_retry_interval_ms.*\(300.0 >= 200.0\)"):
            ProtocolConfig(heartbeat_interval_ms=50.0, sca=ScaParameters(200.0, 10.0))
