"""Unit tests for vote tallying and replication progress."""

import pytest

from repro.common.errors import ProtocolError
from repro.raft.election import VoteTally
from repro.raft.replication import ReplicationProgress
from repro.storage.log import LogEntry, ReplicatedLog


class TestVoteTally:
    def test_candidate_needs_quorum(self):
        tally = VoteTally(quorum_size=3)
        tally.start_campaign(term=5)
        tally.record_vote(5, 1)
        tally.record_vote(5, 2)
        assert not tally.has_quorum()
        tally.record_vote(5, 3)
        assert tally.has_quorum()

    def test_duplicate_votes_do_not_count_twice(self):
        tally = VoteTally(quorum_size=2)
        tally.start_campaign(1)
        assert tally.record_vote(1, 4)
        assert not tally.record_vote(1, 4)
        assert tally.count == 1

    def test_votes_from_other_terms_are_ignored(self):
        tally = VoteTally(quorum_size=2)
        tally.start_campaign(3)
        assert not tally.record_vote(2, 1)
        assert not tally.record_vote(4, 1)
        assert tally.count == 0

    def test_new_campaign_resets_votes(self):
        tally = VoteTally(quorum_size=2)
        tally.start_campaign(1)
        tally.record_vote(1, 1)
        tally.start_campaign(2)
        assert tally.count == 0
        assert tally.term == 2

    def test_campaign_terms_must_increase(self):
        tally = VoteTally(quorum_size=2)
        tally.start_campaign(5)
        with pytest.raises(ProtocolError):
            tally.start_campaign(5)

    def test_votes_property_is_a_copy(self):
        tally = VoteTally(quorum_size=2)
        tally.start_campaign(1)
        tally.record_vote(1, 9)
        assert tally.votes == frozenset({9})

    def test_silent_peers_exclude_grants_and_refusals_in_order(self):
        tally = VoteTally(quorum_size=3)
        tally.start_campaign(4)
        assert tally.record_vote(4, 2)
        tally.record_refusal(4, 5)
        tally.record_refusal(4, 5)
        assert tally.silent([5, 4, 3, 2]) == [4, 3]
        # A refusal is an answer, not a vote.
        assert tally.count == 1

    def test_refusals_from_other_terms_or_before_a_campaign_are_ignored(self):
        tally = VoteTally(quorum_size=2)
        tally.record_refusal(1, 2)
        tally.start_campaign(3)
        tally.record_refusal(2, 2)
        tally.record_refusal(4, 2)
        assert tally.silent([2]) == [2]

    def test_new_campaign_resets_refusals(self):
        tally = VoteTally(quorum_size=2)
        tally.start_campaign(1)
        tally.record_refusal(1, 2)
        tally.record_vote(1, 3)
        tally.start_campaign(2)
        assert tally.silent([2, 3]) == [2, 3]


def log_with(terms):
    log = ReplicatedLog()
    for index, term in enumerate(terms, start=1):
        log.append_entry(LogEntry(term=term, index=index))
    return log


class TestReplicationProgress:
    def test_initial_next_index_is_after_leader_log(self):
        progress = ReplicationProgress(peers=[2, 3], last_log_index=4)
        assert progress.next_index(2) == 5
        assert progress.match_index(2) == 0

    def test_success_advances_match_and_next(self):
        progress = ReplicationProgress([2], last_log_index=4)
        progress.record_success(2, match_index=4)
        assert progress.match_index(2) == 4
        assert progress.next_index(2) == 5

    def test_success_never_moves_match_backwards(self):
        progress = ReplicationProgress([2], last_log_index=4)
        progress.record_success(2, 4)
        progress.record_success(2, 2)  # stale duplicate reply
        assert progress.match_index(2) == 4

    def test_failure_rewinds_next_index_using_follower_hint(self):
        progress = ReplicationProgress([2], last_log_index=10)
        progress.record_failure(2, follower_last_index=3)
        assert progress.next_index(2) == 4

    def test_failure_never_goes_below_one(self):
        progress = ReplicationProgress([2], last_log_index=0)
        progress.record_failure(2, follower_last_index=0)
        assert progress.next_index(2) == 1

    def test_unknown_peer_rejected(self):
        progress = ReplicationProgress([2], last_log_index=0)
        with pytest.raises(ProtocolError):
            progress.record_success(9, 1)

    def test_commit_index_requires_quorum_in_current_term(self):
        log = log_with([1, 1, 2])
        progress = ReplicationProgress([2, 3, 4, 5], last_log_index=3)
        progress.record_local_append(3)
        # Leader + one follower hold index 3: that is 2 replicas, below the
        # quorum of 3 in a 5-server cluster, so nothing commits yet.
        progress.record_success(2, 3)
        assert progress.commit_index_for_quorum(3, log, current_term=2) == 0
        # With a second follower the term-2 entry reaches a quorum.
        progress.record_success(3, 3)
        assert progress.commit_index_for_quorum(3, log, current_term=2) == 3

    def test_commit_index_ignores_entries_from_older_terms(self):
        # Raft never commits an older-term entry by counting replicas.
        log = log_with([1, 1])
        progress = ReplicationProgress([2, 3], last_log_index=2)
        progress.record_local_append(2)
        progress.record_success(2, 2)
        progress.record_success(3, 2)
        assert progress.commit_index_for_quorum(2, log, current_term=3) == 0

    def test_quorum_on_stale_prefix_falls_back_to_a_current_term_entry(self):
        # The quorum index lands on a term-1 entry, but a *lower* index holds
        # a current-term entry replicated at least as widely -- the walk-down
        # must find it rather than give up at the stale candidate.
        log = log_with([1, 2, 2])
        progress = ReplicationProgress([2, 3, 4, 5], last_log_index=3)
        progress.record_local_append(3)
        progress.record_success(2, 3)
        progress.record_success(3, 2)  # quorum index is 2 (term 2): commits
        assert progress.commit_index_for_quorum(3, log, current_term=2) == 2

    def test_committing_a_current_term_entry_commits_the_stale_prefix(self):
        # Implicit commitment: once a term-2 entry reaches a quorum, the
        # term-1 entries beneath it are committed with it (the commit index
        # jumps straight to 3, never pausing at the stale entries).
        log = log_with([1, 1, 2])
        progress = ReplicationProgress([2, 3, 4, 5], last_log_index=3)
        progress.record_local_append(3)
        progress.record_success(2, 3)
        progress.record_success(3, 3)
        assert progress.commit_index_for_quorum(3, log, current_term=2) == 3

    def test_minority_replication_of_newer_entries_commits_nothing(self):
        # One follower racing ahead on term-2 entries does not move the
        # commit index while the quorum still sits on the term-1 prefix.
        log = log_with([1, 2, 2])
        progress = ReplicationProgress([2, 3, 4, 5], last_log_index=3)
        progress.record_local_append(3)
        progress.record_success(2, 1)
        progress.record_success(3, 1)  # quorum at index 1, term 1: stale
        assert progress.commit_index_for_quorum(3, log, current_term=2) == 0

    def test_quorum_larger_than_cluster_commits_nothing(self):
        log = log_with([1])
        progress = ReplicationProgress([2], last_log_index=1)
        progress.record_local_append(1)
        progress.record_success(2, 1)
        assert progress.commit_index_for_quorum(5, log, current_term=1) == 0

    def test_peers_view_is_a_copy(self):
        progress = ReplicationProgress([2], last_log_index=0)
        view = progress.peers
        assert set(view) == {2}
