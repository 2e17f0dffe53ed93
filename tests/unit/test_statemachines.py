"""Unit tests for the replicated state machines."""

import pytest

from repro.common.errors import ProtocolError
from repro.statemachine.kvstore import (
    CompareAndSwapCommand,
    DeleteCommand,
    GetCommand,
    KeyValueStore,
    PutCommand,
)

from helpers import AppendRegister


class TestKeyValueStore:
    def test_put_returns_previous_value(self):
        store = KeyValueStore()
        assert store.apply(PutCommand("x", 1)) is None
        assert store.apply(PutCommand("x", 2)) == 1
        assert store.get("x") == 2

    def test_get_reads_current_value(self):
        store = KeyValueStore()
        store.apply(PutCommand("k", "v"))
        assert store.apply(GetCommand("k")) == "v"
        assert store.apply(GetCommand("missing")) is None

    def test_delete_reports_existence(self):
        store = KeyValueStore()
        store.apply(PutCommand("k", 1))
        assert store.apply(DeleteCommand("k")) is True
        assert store.apply(DeleteCommand("k")) is False
        assert "k" not in store

    def test_compare_and_swap(self):
        store = KeyValueStore()
        store.apply(PutCommand("k", 1))
        assert store.apply(CompareAndSwapCommand("k", expected=1, new_value=2)) is True
        assert store.apply(CompareAndSwapCommand("k", expected=1, new_value=3)) is False
        assert store.get("k") == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(ProtocolError):
            KeyValueStore().apply(("unknown",))
        # Commands are objects; their JSON form is not a command.
        with pytest.raises(ProtocolError):
            KeyValueStore().apply({"op": "put", "key": "a", "value": 10})

    def test_refused_command_is_not_counted(self):
        store = KeyValueStore()
        store.apply(PutCommand("x", 1))
        with pytest.raises(ProtocolError):
            store.apply("exotic")
        assert store.applied_count == 1
        assert store.snapshot() == {"x": 1}

    @pytest.mark.parametrize(
        "command",
        [
            pytest.param(PutCommand("x", 1), id="put"),
            pytest.param(GetCommand("missing"), id="get-of-a-missing-key"),
            pytest.param(DeleteCommand("missing"), id="delete-of-a-missing-key"),
            pytest.param(CompareAndSwapCommand("x", None, 2), id="cas-that-swaps"),
            pytest.param(CompareAndSwapCommand("x", 7, 2), id="cas-that-does-not"),
        ],
    )
    def test_every_accepted_command_is_counted_once(self, command):
        # A command that reports "nothing happened" was still applied: the
        # count tracks log entries consumed, which is what commit_index counts.
        store = KeyValueStore()
        store.apply(command)
        assert store.applied_count == 1

    @pytest.mark.parametrize(
        "command",
        [
            pytest.param(None, id="none"),
            pytest.param(42, id="int"),
            pytest.param("PUT x 2", id="text"),
            pytest.param({"op": "put", "key": "x", "value": 2}, id="json-dict"),
            pytest.param(("put", "x", 2), id="tuple"),
            pytest.param(AppendRegister(), id="foreign-object"),
        ],
    )
    def test_a_refused_command_changes_nothing(self, command):
        store = KeyValueStore()
        store.apply(PutCommand("x", 1))
        with pytest.raises(ProtocolError, match="cannot apply"):
            store.apply(command)
        assert (store.applied_count, store.snapshot()) == (1, {"x": 1})

    def test_snapshot_and_restore(self):
        store = KeyValueStore()
        store.apply(PutCommand("a", 1))
        snapshot = store.snapshot()
        other = KeyValueStore()
        other.restore(snapshot)
        assert other.get("a") == 1
        # The snapshot is a copy, not a live view.
        store.apply(PutCommand("a", 2))
        assert snapshot["a"] == 1

    def test_determinism_across_replicas(self):
        commands = [
            PutCommand("x", 1),
            PutCommand("y", 2),
            CompareAndSwapCommand("x", 1, 10),
            DeleteCommand("y"),
        ]
        first, second = KeyValueStore(), KeyValueStore()
        first_results = [first.apply(command) for command in commands]
        second_results = [second.apply(command) for command in commands]
        assert first_results == second_results
        assert first.snapshot() == second.snapshot()

    def test_applied_count_and_len(self):
        store = KeyValueStore()
        store.apply(PutCommand("x", 1))
        store.apply(PutCommand("y", 1))
        assert store.applied_count == 2
        assert len(store) == 2


class TestAppendRegister:
    def test_records_commands_in_order(self):
        register = AppendRegister()
        assert register.apply("a") == 1
        assert register.apply("b") == 2
        assert register.history == ["a", "b"]

    def test_snapshot_restore(self):
        register = AppendRegister()
        register.apply("a")
        clone = AppendRegister()
        clone.restore(register.snapshot())
        assert clone.history == ["a"]
