"""The follower's merge: one pass over the window, the same log as per entry.

``ReplicatedLog.check_and_merge`` skips a stored overlap, truncates at most
once and appends the new entries with one ``extend``.  The specification is
the merge it replaced, kept here as :func:`per_entry_merge`: the same
consistency check and overlap skip, then one ``truncate_from`` /
``append_entry`` per entry.  Random stored logs meet random windows -- an
equal overlap, a conflicting term mid-window, an empty window, a gap at
``prev_index``, a non-contiguous index, a lower term -- and both merges must
give the same return value or the same exception type and message, and leave
the same log: the same entry objects, ``last_index`` and ``last_term``.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.storage.log import LogEntry, ReplicatedLog


def per_entry_merge(log, prev_index, prev_term, entries):
    """The merge before the one-pass walk: a frame per appended entry."""
    stored_entries = log._entries
    if prev_index and not (
        0 < prev_index <= log.last_index
        and stored_entries[prev_index - 1].term == prev_term
    ):
        return None
    if not entries:
        return False
    stored = log.last_index - prev_index
    if stored > 0:
        stored = min(stored, len(entries))
        if stored_entries[prev_index : prev_index + stored] == list(entries[:stored]):
            if stored == len(entries):
                return False
            entries = entries[stored:]
            prev_index += stored
    changed = False
    for index, entry in enumerate(entries, prev_index + 1):
        if entry.index != index:
            raise StorageError(f"entry index {entry.index} does not match position {index}")
        if index <= log.last_index:
            if stored_entries[index - 1].term == entry.term:
                continue
            log.truncate_from(index)
        log.append_entry(entry)
        changed = True
    return changed


def outcome(merge, stored, prev_index, prev_term, window):
    """What *merge* returns or raises, and the log it leaves."""
    log = ReplicatedLog(stored)
    try:
        result = ("returned", merge(log, prev_index, prev_term, window))
    except StorageError as exc:
        result = ("raised", type(exc), str(exc))
    return result, [id(entry) for entry in log], log.last_index, log.last_term


def check(stored, prev_index, prev_term, window):
    mine = outcome(ReplicatedLog.check_and_merge, stored, prev_index, prev_term, window)
    assert mine == outcome(per_entry_merge, stored, prev_index, prev_term, window)
    return mine[0]


def entries(*terms, start=1):
    return [LogEntry(term, index, f"c{index}-{term}") for index, term in enumerate(terms, start)]


STORED = entries(1, 1, 2, 2, 3)

#: ``name -> (stored, prev_index, prev_term, window, outcome)``: each kind
#: of window, with what both merges do with it.
CASES = {
    "equal overlap": (STORED, 1, 1, tuple(STORED[1:]), ("returned", False)),
    "equal overlap, then new": (
        STORED, 2, 1, (*STORED[2:], *entries(3, start=6)), ("returned", True)
    ),
    "equal by value, not identity": (
        STORED, 0, 0, tuple(entries(1, 1, 2)), ("returned", False)
    ),
    "conflicting term mid-window": (
        STORED, 1, 1, (STORED[1], *entries(3, 3, 4, start=3)), ("returned", True)
    ),
    "empty window": (STORED, 3, 2, (), ("returned", False)),
    "gap at prev_index": (STORED, 7, 3, tuple(entries(3, start=8)), ("returned", None)),
    "wrong prev_term": (STORED, 2, 2, tuple(entries(2, start=3)), ("returned", None)),
    "non-contiguous index": (
        STORED,
        5,
        3,
        (*entries(3, 3, start=6), LogEntry(3, 9, "skip")),
        ("raised", StorageError, "entry index 9 does not match position 8"),
    ),
    "lower term after a conflict": (
        STORED,
        2,
        1,
        tuple(entries(4, 3, start=3)),
        ("raised", StorageError, "entry term 3 is lower than the previous entry's term 4"),
    ),
    "lower term than the stored tail": (
        STORED,
        5,
        3,
        tuple(entries(2, start=6)),
        ("raised", StorageError, "entry term 2 is lower than the previous entry's term 3"),
    ),
    "into an empty log": ([], 0, 0, tuple(entries(2, 2)), ("returned", True)),
    "truncate everything": (STORED, 0, 0, tuple(entries(5)), ("returned", True)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_each_kind_of_window_merges_as_per_entry(name):
    stored, prev_index, prev_term, window, expected = CASES[name]
    assert check(stored, prev_index, prev_term, window) == expected


@st.composite
def merges(draw):
    """A stored log (terms never fall), then a window after a ``prev_index``
    that may lie inside, at or beyond its end.  Each window entry is the
    stored one, an equal copy, or a fresh entry whose term is drawn freely
    (so it may conflict or fall) and whose index may be off by one."""
    terms = sorted(draw(st.lists(st.integers(1, 3), max_size=8)))
    stored = entries(*terms)
    prev_index = draw(st.integers(0, len(stored) + 2))
    if prev_index and prev_index <= len(stored) and draw(st.booleans()):
        prev_term = stored[prev_index - 1].term
    else:
        prev_term = draw(st.integers(0, 4))
    window = []
    for index in range(prev_index + 1, prev_index + 1 + draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["stored", "copy", "fresh", "fresh", "fresh"]))
        if kind != "fresh" and index <= len(stored):
            entry = stored[index - 1]
            window.append(entry if kind == "stored" else LogEntry(*entry_fields(entry)))
        else:
            offset = draw(st.sampled_from([0, 0, 0, 0, 0, 1, -1]))
            window.append(
                LogEntry(draw(st.integers(1, 4)), max(1, index + offset), f"w{index}")
            )
    return stored, prev_index, prev_term, tuple(window)


def entry_fields(entry):
    return entry.term, entry.index, entry.command


@given(merges())
@example((STORED, 1, 1, tuple(STORED[1:])))
@example((STORED, 1, 1, (STORED[1], *entries(3, 3, 4, start=3))))
@example((STORED, 3, 2, ()))
@example((STORED, 7, 3, tuple(entries(3, start=8))))
@example((STORED, 5, 3, (*entries(3, start=6), LogEntry(3, 8, "skip"))))
@example((STORED, 2, 1, tuple(entries(4, 3, start=3))))
def test_random_windows_merge_as_per_entry(case):
    check(*case)
