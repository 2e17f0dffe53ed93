"""Unit tests for the persistent stores."""

import pytest

from repro.common.errors import StorageError
from repro.storage.log import LogEntry, ReplicatedLog
from repro.storage.persistent import InMemoryStore


class TestInMemoryStore:
    def test_initial_state_is_empty(self):
        store = InMemoryStore()
        assert store.load_term() == 0
        assert store.load_voted_for() is None
        assert store.load_log().last_index == 0

    def test_term_and_vote_round_trip(self):
        store = InMemoryStore()
        store.save_term_and_vote(3, 2)
        assert store.load_term() == 3
        assert store.load_voted_for() == 2

    def test_clearing_vote(self):
        store = InMemoryStore()
        store.save_term_and_vote(3, 2)
        store.save_term_and_vote(4, None)
        assert store.load_voted_for() is None

    def test_refuses_term_regression(self):
        store = InMemoryStore()
        store.save_term_and_vote(5, None)
        with pytest.raises(StorageError):
            store.save_term_and_vote(4, None)

    def test_log_round_trip(self):
        store = InMemoryStore()
        log = ReplicatedLog([LogEntry(term=1, index=1, command="a")])
        store.save_log(log)
        assert store.load_log().entry_at(1).command == "a"
