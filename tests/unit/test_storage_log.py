"""Unit tests for the replicated log."""

import pytest

from repro.common.errors import StorageError
from repro.storage.log import LogEntry, ReplicatedLog


def build_log(terms):
    """Build a log whose entries carry the given terms in order."""
    log = ReplicatedLog()
    for index, term in enumerate(terms, start=1):
        log.append_entry(LogEntry(term=term, index=index, command=f"cmd{index}"))
    return log


class TestLogEntry:
    def test_rejects_invalid_index_and_term(self):
        with pytest.raises(StorageError):
            LogEntry(term=-1, index=1)
        with pytest.raises(StorageError):
            LogEntry(term=1, index=0)


class TestAppend:
    def test_empty_log_has_sentinel_values(self):
        log = ReplicatedLog()
        assert log.last_index == 0
        assert log.last_term == 0
        assert log.term_at(0) == 0
        assert len(log) == 0

    def test_append_command_assigns_next_index(self):
        log = ReplicatedLog()
        entry = log.append_command(term=2, command="set x")
        assert entry.index == 1 and entry.term == 2
        assert log.last_index == 1

    def test_append_entry_requires_contiguous_index(self):
        log = build_log([1])
        with pytest.raises(StorageError, match="non-contiguous"):
            log.append_entry(LogEntry(term=1, index=3))

    def test_append_entry_rejects_decreasing_terms(self):
        log = build_log([2])
        with pytest.raises(StorageError):
            log.append_entry(LogEntry(term=1, index=2))

    def test_entry_at_and_has_entry(self):
        log = build_log([1, 1, 2])
        assert log.entry_at(2).command == "cmd2"
        assert log.has_entry(3)
        assert not log.has_entry(4)
        with pytest.raises(StorageError):
            log.entry_at(4)

    def test_entries_from_with_limit(self):
        log = build_log([1, 1, 1, 1])
        entries = log.entries_from(2, limit=2)
        assert [entry.index for entry in entries] == [2, 3]
        assert log.entries_from(5) == []


class TestTruncate:
    def test_truncate_from_removes_suffix(self):
        log = build_log([1, 1, 2, 2])
        removed = log.truncate_from(3)
        assert removed == 2
        assert log.last_index == 2

    def test_truncate_beyond_end_is_noop(self):
        log = build_log([1])
        assert log.truncate_from(5) == 0
        assert log.last_index == 1

    def test_truncate_from_one_empties_the_log(self):
        log = build_log([1, 2, 3])
        assert log.truncate_from(1) == 3
        assert len(log) == 0
        # The tail cache resets to the empty-log sentinel, so up-to-date
        # comparisons and contiguous appends behave like a fresh log.
        assert (log.last_index, log.last_term) == (0, 0)
        log.append_command(1, "restart")
        assert log.last_index == 1

    def test_truncate_recomputes_the_tail_cache(self):
        log = build_log([1, 1, 3])
        log.truncate_from(3)
        assert (log.last_index, log.last_term) == (2, 1)
        # A lower-term append is legal again now that the term-3 tail is gone.
        log.append_command(2, "replacement")
        assert log.last_term == 2

    def test_truncate_rejects_non_positive_index(self):
        with pytest.raises(StorageError):
            build_log([1]).truncate_from(0)


def merge(log, prev_index, entries):
    """The AppendEntries merge rule, after a consistency check that passes."""
    return log.check_and_merge(prev_index, log.term_at(prev_index), entries)


class TestMergeEntries:
    def test_appends_new_entries(self):
        log = build_log([1])
        changed = merge(log, 1, [LogEntry(term=1, index=2, command="b")])
        assert changed
        assert log.last_index == 2

    def test_duplicate_entries_do_not_change_log(self):
        log = build_log([1, 1])
        changed = merge(log, 0, list(log))
        assert not changed
        assert log.last_index == 2

    def test_conflicting_suffix_is_replaced(self):
        log = build_log([1, 1, 1])
        incoming = [LogEntry(term=2, index=2, command="new2"), LogEntry(term=2, index=3, command="new3")]
        changed = merge(log, 1, incoming)
        assert changed
        assert log.term_at(2) == 2
        assert log.entry_at(3).command == "new3"

    def test_stale_duplicate_does_not_truncate_newer_entries(self):
        # A delayed AppendEntries carrying an old prefix must never delete
        # entries the follower already has beyond it.
        log = build_log([1, 1, 2])
        changed = merge(log, 1, [LogEntry(term=1, index=2, command="cmd2")])
        assert not changed
        assert log.last_index == 3

    def test_mismatched_entry_position_rejected(self):
        log = build_log([1])
        with pytest.raises(StorageError):
            merge(log, 1, [LogEntry(term=1, index=5, command="x")])

    def test_empty_batch_is_a_heartbeat_noop(self):
        log = build_log([1, 2])
        assert not merge(log, 2, [])
        assert log.last_index == 2

    def test_matching_prefix_survives_a_conflicting_tail(self):
        # Only the suffix from the first conflict is replaced; matching
        # entries before it keep their commands (they may be committed).
        log = build_log([1, 1, 1, 1])
        incoming = [
            LogEntry(term=1, index=2, command="cmd2"),
            LogEntry(term=3, index=3, command="new3"),
        ]
        assert merge(log, 1, incoming)
        assert log.entry_at(2).command == "cmd2"
        assert log.term_at(3) == 3
        # The old index-4 entry sat behind the conflict and is gone with it.
        assert log.last_index == 3

    def test_conflict_at_batch_start_replaces_everything_after_prev(self):
        log = build_log([1, 2, 2])
        assert merge(log, 0, [LogEntry(term=3, index=1, command="n1")])
        assert (log.last_index, log.last_term) == (1, 3)

    def test_merge_past_the_end_appends_the_overlap_and_the_rest(self):
        # A retransmitted batch that straddles the follower's tail: the
        # duplicate prefix is skipped, the genuinely new suffix appends.
        log = build_log([1, 1])
        incoming = [
            LogEntry(term=1, index=2, command="cmd2"),
            LogEntry(term=1, index=3, command="c3"),
            LogEntry(term=2, index=4, command="c4"),
        ]
        assert merge(log, 1, incoming)
        assert log.entry_at(2).command == "cmd2"
        assert [entry.index for entry in log] == [1, 2, 3, 4]

    def test_merge_is_idempotent_for_the_same_batch(self):
        log = build_log([1])
        batch = [LogEntry(term=2, index=2, command="b")]
        assert merge(log, 1, batch)
        assert not merge(log, 1, batch)
        assert log.last_index == 2


class TestConsistencyCheck:
    def test_index_zero_always_matches(self):
        assert ReplicatedLog().check_and_merge(0, 0, ()) is False

    def test_matching_prev_entry(self):
        log = build_log([1, 2])
        entry = LogEntry(term=2, index=3, command="c")
        assert log.check_and_merge(2, 1, (entry,)) is None
        assert log.check_and_merge(3, 2, (entry,)) is None
        assert log.check_and_merge(-1, 0, (entry,)) is None
        assert log.last_index == 2  # a failed check leaves the log untouched
        assert log.check_and_merge(2, 2, (entry,)) is True


class TestUpToDateComparison:
    def test_higher_last_term_wins(self):
        mine = build_log([1, 2])
        assert mine.candidate_is_acceptable(candidate_last_term=3, candidate_last_index=1)
        assert not mine.candidate_is_acceptable(candidate_last_term=1, candidate_last_index=9)

    def test_equal_term_compares_length(self):
        mine = build_log([1, 1])
        assert mine.candidate_is_acceptable(candidate_last_term=1, candidate_last_index=2)
        assert mine.candidate_is_acceptable(candidate_last_term=1, candidate_last_index=3)
        assert not mine.candidate_is_acceptable(candidate_last_term=1, candidate_last_index=1)

    def test_empty_logs_are_mutually_up_to_date(self):
        log_a = ReplicatedLog()
        log_b = ReplicatedLog()
        assert log_b.candidate_is_acceptable(log_a.last_term, log_a.last_index)
