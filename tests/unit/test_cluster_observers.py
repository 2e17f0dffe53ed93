"""Unit tests for the cluster-wide election observer."""

from repro.cluster.observers import ElectionObserver
from repro.raft.listeners import enter_listener, listener_table


def populated_observer():
    observer = ElectionObserver()
    # Simulated history: crash at t=1000; S2 and S3 campaign in term 2 and
    # split; S2 wins later in term 3.
    observer.on_election_timeout(2, term=1, attempt=0, time_ms=1_400.0)
    observer.on_election_timeout(3, term=1, attempt=0, time_ms=1_450.0)
    observer.on_election_started(2, term=2, time_ms=1_400.0)
    observer.on_election_started(3, term=2, time_ms=1_450.0)
    observer.on_election_timeout(2, term=2, attempt=1, time_ms=3_000.0)
    observer.on_election_started(2, term=3, time_ms=3_000.0)
    observer.on_leader_elected(2, term=3, votes=3, time_ms=3_400.0)
    return observer


class TestEventCollection:
    def test_events_are_recorded_with_timestamps(self):
        observer = populated_observer()
        assert [event.time_ms for event in observer.timeouts] == [1_400.0, 1_450.0, 3_000.0]
        assert len(observer.campaigns) == 3
        assert len(observer.leaders) == 1

    def test_listens_only_to_the_events_it_records(self):
        table = listener_table()
        enter_listener(table, ElectionObserver())
        assert sorted(event for event, calls in table.items() if calls) == [
            "on_election_started",
            "on_election_timeout",
            "on_leader_elected",
        ]


class TestQueries:
    def test_first_timeout_after(self):
        observer = populated_observer()
        event = observer.first_timeout_after(1_000.0)
        assert event.node_id == 2 and event.time_ms == 1_400.0
        assert observer.first_timeout_after(5_000.0) is None

    def test_leader_elected_after_with_exclusion(self):
        observer = populated_observer()
        elected = observer.leader_elected_after(1_000.0)
        assert elected.leader_id == 2 and elected.term == 3
        assert observer.leader_elected_after(1_000.0, exclude=(2,)) is None
        assert observer.leader_elected_after(4_000.0) is None

    def test_campaigns_after_and_grouping(self):
        observer = populated_observer()
        assert len(observer.campaigns_after(1_000.0)) == 3
        grouped = observer.campaign_terms_after(1_000.0)
        assert sorted(grouped[2]) == [2, 3]
        assert grouped[3] == [2]

    def test_split_vote_detection(self):
        observer = populated_observer()
        # Term 2 had two campaigns and no winner -> split vote occurred.
        assert observer.split_vote_occurred_after(1_000.0)
        # After 2000 ms only the term-3 campaign (which won) remains.
        assert not observer.split_vote_occurred_after(2_000.0)

    def test_no_split_when_concurrent_campaigns_use_different_terms(self):
        observer = ElectionObserver()
        observer.on_election_started(2, term=5, time_ms=10.0)
        observer.on_election_started(3, term=8, time_ms=10.0)
        observer.on_leader_elected(3, term=8, votes=3, time_ms=300.0)
        assert not observer.split_vote_occurred_after(0.0)
