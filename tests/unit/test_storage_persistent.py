"""Unit tests for the persistent stores."""

import pytest

from repro.common.errors import StorageError
from repro.storage.log import LogEntry, ReplicatedLog
from repro.storage.persistent import FileStore, InMemoryStore


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


class TestFileStore:
    def test_state_round_trip(self, tmp_path):
        store = FileStore(tmp_path, server_id=3)
        store.save_term_and_vote(7, 1)
        reopened = FileStore(tmp_path, server_id=3)
        assert reopened.load_term() == 7
        assert reopened.load_voted_for() == 1

    def test_log_round_trip(self, tmp_path):
        store = FileStore(tmp_path, server_id=1)
        log = ReplicatedLog(
            [
                LogEntry(term=1, index=1, command={"op": "put", "key": "x", "value": 1}),
                LogEntry(term=2, index=2, command={"op": "delete", "key": "x"}),
            ]
        )
        store.save_log(log)
        loaded = FileStore(tmp_path, server_id=1).load_log()
        assert loaded.last_index == 2
        assert loaded.entry_at(2).term == 2
        assert loaded.entry_at(1).command["key"] == "x"

    def test_missing_files_mean_fresh_state(self, tmp_path):
        store = FileStore(tmp_path, server_id=9)
        assert store.load_term() == 0
        assert store.load_voted_for() is None
        assert len(store.load_log()) == 0

    def test_servers_do_not_share_files(self, tmp_path):
        first = FileStore(tmp_path, server_id=1)
        second = FileStore(tmp_path, server_id=2)
        first.save_term_and_vote(3, 1)
        assert second.load_term() == 0

    def test_refuses_term_regression(self, tmp_path):
        store = FileStore(tmp_path, server_id=1)
        store.save_term_and_vote(5, None)
        with pytest.raises(StorageError):
            store.save_term_and_vote(2, None)

    def test_corrupt_state_file_raises_storage_error(self, tmp_path):
        store = FileStore(tmp_path, server_id=4)
        store.save_term_and_vote(1, None)
        (tmp_path / "server-4-state.json").write_text("{not json")
        with pytest.raises(StorageError):
            FileStore(tmp_path, server_id=4).load_term()

    def test_corrupt_log_file_raises_storage_error(self, tmp_path):
        store = FileStore(tmp_path, server_id=4)
        store.save_log(ReplicatedLog([LogEntry(term=1, index=1, command=None)]))
        (tmp_path / "server-4-log.json").write_text("][")
        with pytest.raises(StorageError):
            FileStore(tmp_path, server_id=4).load_log()
