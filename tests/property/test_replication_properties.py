"""Property-based tests for the leader's commit rule (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raft.replication import ReplicationProgress
from repro.storage.log import LogEntry, ReplicatedLog

from test_log_properties import term_sequences


def reference_commit_index(progress, leader_match, quorum_size, log, current_term):
    """The sort-based rule the ordered match-index list replaced."""
    matches = sorted(
        [leader_match] + [peer.match_index for peer in progress.peers.values()],
        reverse=True,
    )
    if quorum_size > len(matches):
        return 0
    index = matches[quorum_size - 1]
    while index > 0 and not (log.has_entry(index) and log.term_at(index) == current_term):
        index -= 1
    return index


@st.composite
def replication_histories(draw):
    """A leader's log, its term, and a random interleaving of progress reports."""
    terms = draw(term_sequences(max_length=20))
    peers = list(range(2, 2 + draw(st.integers(min_value=1, max_value=9))))
    initial_last_index = draw(st.integers(min_value=0, max_value=len(terms)))
    current_term = draw(st.integers(min_value=1, max_value=(terms[-1] if terms else 1) + 1))
    index = st.integers(min_value=0, max_value=len(terms) + 2)
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("success"), st.sampled_from(peers), index),
                st.tuples(st.just("failure"), st.sampled_from(peers), index),
                st.tuples(st.just("local"), st.just(1), index),
            ),
            max_size=40,
        )
    )
    return terms, peers, initial_last_index, current_term, steps


class TestCommitRuleEquivalence:
    @given(replication_histories())
    @settings(max_examples=200, deadline=None)
    def test_ordered_list_rule_equals_the_sort_based_rule(self, history):
        terms, peers, initial_last_index, current_term, steps = history
        log = ReplicatedLog(
            LogEntry(term=term, index=index) for index, term in enumerate(terms, start=1)
        )
        progress = ReplicationProgress(peers, initial_last_index)
        leader_match = initial_last_index
        for kind, peer, index in [("start", 1, 0)] + steps:
            if kind == "success":
                progress.record_success(peer, index)  # stale duplicates included
            elif kind == "failure":
                progress.record_failure(peer, index)
            elif kind == "local":
                progress.record_local_append(index)
                leader_match = max(leader_match, index)
            for quorum_size in range(1, len(peers) + 3):
                assert progress.commit_index_for_quorum(
                    quorum_size, log, current_term
                ) == reference_commit_index(
                    progress, leader_match, quorum_size, log, current_term
                )
