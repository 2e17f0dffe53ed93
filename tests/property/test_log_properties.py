"""Property-based tests for the replicated log (hypothesis)."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.storage.log import LogEntry, ReplicatedLog


@st.composite
def term_sequences(draw, max_length=30):
    """Non-decreasing term sequences, as they appear in a real log."""
    length = draw(st.integers(min_value=0, max_value=max_length))
    terms = []
    current = 1
    for _ in range(length):
        current += draw(st.integers(min_value=0, max_value=2))
        terms.append(current)
    return terms


def log_from_terms(terms):
    log = ReplicatedLog()
    for index, term in enumerate(terms, start=1):
        log.append_entry(LogEntry(term=term, index=index, command=index))
    return log


class TestStructuralInvariants:
    @given(term_sequences())
    def test_terms_are_non_decreasing_and_indexes_contiguous(self, terms):
        log = log_from_terms(terms)
        previous_term = 0
        for position, entry in enumerate(log, start=1):
            assert entry.index == position
            assert entry.term >= previous_term
            previous_term = entry.term
        assert log.last_index == len(terms)

    @given(term_sequences(), st.integers(min_value=1, max_value=40))
    def test_truncate_then_length_matches(self, terms, cut):
        log = log_from_terms(terms)
        before = log.last_index
        removed = log.truncate_from(cut)
        assert log.last_index == min(before, cut - 1)
        assert removed == before - log.last_index


class TestMergeProperties:
    @given(term_sequences())
    def test_merge_is_idempotent(self, terms):
        log = log_from_terms(terms)
        replica = ReplicatedLog()
        entries = list(log)
        replica.check_and_merge(0, 0, entries)
        changed_again = replica.check_and_merge(0, 0, entries)
        assert changed_again is False
        assert replica.last_index == log.last_index
        assert [entry.term for entry in replica] == [entry.term for entry in log]

    @given(term_sequences(), term_sequences())
    def test_merging_leader_suffix_makes_follower_a_prefix_of_leader(self, a, b):
        leader = log_from_terms(a if len(a) >= len(b) else b)
        follower = log_from_terms(b if len(a) >= len(b) else a)
        # Find the first index where the follower diverges from the leader.
        prev = 0
        for index in range(1, min(leader.last_index, follower.last_index) + 1):
            if leader.term_at(index) != follower.term_at(index):
                break
            prev = index
        follower.truncate_from(prev + 1)
        assert follower.check_and_merge(
            prev, leader.term_at(prev), leader.entries_from(prev + 1)
        ) is not None
        assert follower.last_index == leader.last_index
        for index in range(1, leader.last_index + 1):
            assert follower.term_at(index) == leader.term_at(index)


def reference_matches(log, prev_index, prev_term):
    """The AppendEntries consistency check on its own (index 0 always matches)."""
    if prev_index == 0:
        return True
    if not 1 <= prev_index <= log.last_index:
        return False
    return log.term_at(prev_index) == prev_term


def reference_merge(log, prev_index, entries):
    """The per-entry merge loop, without the stored-prefix skip."""
    changed = False
    for index, entry in enumerate(entries, start=prev_index + 1):
        if entry.index != index:
            raise StorageError(f"entry index {entry.index} does not match position {index}")
        if log.has_entry(index):
            if log.term_at(index) == entry.term:
                continue
            log.truncate_from(index)
        log.append_entry(entry)
        changed = True
    return changed


@st.composite
def merge_windows(draw):
    """A stored log and an AppendEntries window aimed at it.

    Each window entry that lands on a stored index is the stored object
    itself, an equal copy (as a reloaded log holds), a same-term entry with
    another command, or a conflicting (higher-term) entry; the window may
    start or run past the tail, and one entry may carry a wrong index.
    """
    stored = list(log_from_terms(draw(term_sequences(max_length=12))))
    prev_index = draw(st.integers(min_value=0, max_value=len(stored) + 2))
    window = []
    term = stored[min(prev_index, len(stored)) - 1].term if stored and prev_index else 1
    for index in range(prev_index + 1, prev_index + 1 + draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("same", "copy", "recommand", "conflict")))
        if index <= len(stored) and kind != "conflict" and stored[index - 1].term >= term:
            entry = stored[index - 1]
            if kind == "copy":
                entry = LogEntry(entry.term, entry.index, entry.command)
            elif kind == "recommand":
                entry = LogEntry(entry.term, entry.index, "other")
        else:
            term += draw(st.integers(min_value=0, max_value=2))
            entry = LogEntry(term, index, f"new-{index}")
        term = entry.term
        window.append(entry)
    if window and draw(st.booleans()):
        position = draw(st.integers(min_value=0, max_value=len(window) - 1))
        wrong = window[position]
        window[position] = LogEntry(wrong.term, wrong.index + draw(st.integers(1, 3)), wrong.command)
    return stored, prev_index, draw(st.sampled_from((tuple, list)))(window)


def reference_check_and_merge(log, prev_index, prev_term, entries):
    """The two-call form: the consistency check, then the merge."""
    if not reference_matches(log, prev_index, prev_term):
        return None
    return reference_merge(log, prev_index, entries)


def merge_outcome(merge, stored, prev_index, window):
    log = ReplicatedLog(stored)
    try:
        result = merge(log, prev_index, window)
    except StorageError as error:
        result = f"StorageError: {error}"
    return result, list(log), log.last_index, log.last_term


def merge_with_passing_check(log, prev_index, entries):
    return log.check_and_merge(prev_index, log.term_at(prev_index), entries)


@st.composite
def append_entries_cases(draw):
    """A stored log, an AppendEntries aimed at it, and how often it arrives.

    On top of :func:`merge_windows`: the previous term matches, is off by
    one, or the previous index is negative (malformed); a window entry may
    carry a term below its predecessor's; and the request may be delivered
    twice (a duplicated or stale retransmission).
    """
    stored, prev_index, window = draw(merge_windows())
    kind = draw(st.sampled_from(("match",) * 4 + ("lower", "higher", "negative")))
    stored_term = stored[prev_index - 1].term if 0 < prev_index <= len(stored) else 0
    prev_term = stored_term + {"lower": -1, "higher": 1}.get(kind, 0)
    if kind == "negative":
        prev_index = -draw(st.integers(min_value=1, max_value=3))
    if len(window) > 1 and draw(st.booleans()):
        position = draw(st.integers(min_value=1, max_value=len(window) - 1))
        entry = window[position]
        window = type(window)(
            [
                *window[:position],
                LogEntry(max(0, window[position - 1].term - 1), entry.index, entry.command),
                *window[position + 1 :],
            ]
        )
    return stored, prev_index, prev_term, window, draw(st.integers(1, 2))


def delivery_outcomes(check_and_merge, stored, prev_index, prev_term, window, deliveries):
    log = ReplicatedLog(stored)
    outcomes = []
    for _ in range(deliveries):
        try:
            result = check_and_merge(log, prev_index, prev_term, window)
        except StorageError as error:
            result = type(error)
        outcomes.append((result, list(log), log.last_index, log.last_term))
    return outcomes


class TestMergeEquivalence:
    @given(merge_windows())
    @settings(max_examples=300, deadline=None)
    def test_prefix_skip_merges_exactly_like_the_per_entry_loop(self, case):
        stored, prev_index, window = case
        # Past the tail the check fails first (see TestCheckAndMerge).
        assume(prev_index <= len(stored))
        assert merge_outcome(
            merge_with_passing_check, stored, prev_index, window
        ) == merge_outcome(reference_merge, stored, prev_index, window)

    @pytest.mark.parametrize("reload", (False, True))
    def test_a_stored_window_is_left_alone_whether_identical_or_reloaded(self, reload):
        log = log_from_terms([1, 1, 2, 3])
        held = list(log)
        window = tuple(
            LogEntry(entry.term, entry.index, entry.command) if reload else entry
            for entry in held[1:]
        )
        assert log.check_and_merge(1, 1, window) is False
        assert all(kept is original for kept, original in zip(log, held))


class TestCheckAndMerge:
    @given(append_entries_cases())
    @settings(max_examples=300, deadline=None)
    def test_one_call_does_what_the_check_then_the_merge_do(self, case):
        stored, prev_index, prev_term, window, deliveries = case
        assert delivery_outcomes(
            ReplicatedLog.check_and_merge, stored, prev_index, prev_term, window, deliveries
        ) == delivery_outcomes(
            reference_check_and_merge, stored, prev_index, prev_term, window, deliveries
        )


class TestUpToDateComparison:
    @given(term_sequences(), term_sequences())
    def test_comparison_is_total(self, a, b):
        # For any two logs, at least one is "at least as up to date" as the other.
        log_a, log_b = log_from_terms(a), log_from_terms(b)
        a_ok = log_b.candidate_is_acceptable(log_a.last_term, log_a.last_index)
        b_ok = log_a.candidate_is_acceptable(log_b.last_term, log_b.last_index)
        assert a_ok or b_ok

    @given(term_sequences())
    def test_comparison_is_reflexive(self, terms):
        log = log_from_terms(terms)
        assert log.candidate_is_acceptable(log.last_term, log.last_index)

    @given(term_sequences(), st.integers(min_value=1, max_value=3))
    def test_extending_a_log_keeps_it_at_least_as_up_to_date(self, terms, extra):
        shorter = log_from_terms(terms)
        log = log_from_terms(terms)
        for _ in range(extra):
            log.append_command(max(log.last_term, 1), command=None)
        assert shorter.candidate_is_acceptable(log.last_term, log.last_index)
