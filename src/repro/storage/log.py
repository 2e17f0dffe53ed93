"""The replicated log.

Raft's log is 1-indexed; index 0 denotes the empty-log sentinel with term 0.
The log exposes exactly the operations the protocol needs:

* append new entries (leader);
* the follower's side of AppendEntries in one call -- the *consistency check*
  and the merge that overwrites conflicting suffixes
  (:meth:`ReplicatedLog.check_and_merge`), which recognises an already-stored
  (retransmitted) window with one slice comparison before its per-entry loop;
* the *up-to-date comparison* used when granting votes (Section II-A,
  requirement 3): candidate logs are compared first by last term, then by
  last index.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.common.errors import StorageError
from repro.common.frozen import value_object
from repro.common.types import LogIndex, Term


@value_object(slots=True)
class LogEntry:
    """One entry of the replicated log.

    Attributes:
        term: the leader term under which the entry was created.
        index: the entry's position in the log (1-based).
        command: the opaque state-machine command carried by the entry.
    """

    term: Term
    index: LogIndex
    command: Any = None

    def __post_init__(self) -> None:
        if self.term < 0:
            raise StorageError(f"entry term must be non-negative, got {self.term}")
        if self.index < 1:
            raise StorageError(f"entry index must be >= 1, got {self.index}")


class ReplicatedLog:
    """In-memory replicated log with Raft semantics."""

    def __init__(self, entries: Iterable[LogEntry] = ()) -> None:
        self._entries: list[LogEntry] = []
        #: Index and term of the last entry (0 and 0 when the log is empty).
        #: Plain attributes, maintained by every mutation and read-only to
        #: everyone else: the AppendEntries and RequestVote handlers read the
        #: tail several times per message.
        self.last_index: LogIndex = 0
        self.last_term: Term = 0
        for entry in entries:
            self.append_entry(entry)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def term_at(self, index: LogIndex) -> Term:
        """Term of the entry at *index*; index 0 is the sentinel with term 0.

        Raises:
            StorageError: if *index* is beyond the end of the log or negative.
        """
        if index == 0:
            return 0
        entry = self.entry_at(index)
        return entry.term

    def entry_at(self, index: LogIndex) -> LogEntry:
        """The entry stored at *index* (1-based)."""
        if index < 1 or index > self.last_index:
            raise StorageError(
                f"log index {index} out of range [1, {self.last_index}]"
            )
        entry = self._entries[index - 1]
        return entry

    def has_entry(self, index: LogIndex) -> bool:
        """Whether an entry exists at *index*."""
        return 1 <= index <= self.last_index

    def entries_from(
        self, start_index: LogIndex, limit: int | None = None
    ) -> list[LogEntry]:
        """Entries with index >= *start_index*, up to *limit* of them (a new
        list, copied in one slice: O(*limit*), whatever the log's length)."""
        if start_index < 1:
            raise StorageError(f"start index must be >= 1, got {start_index}")
        start = start_index - 1
        if limit is None:
            return self._entries[start:]
        return self._entries[start : start + limit]

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def append_entry(self, entry: LogEntry) -> None:
        """Append a pre-built entry; its index must be contiguous."""
        expected = self.last_index + 1
        if entry.index != expected:
            raise StorageError(
                f"non-contiguous append: expected index {expected}, got {entry.index}"
            )
        if self._entries and entry.term < self.last_term:
            raise StorageError(
                f"entry term {entry.term} is lower than the previous entry's term "
                f"{self.last_term}"
            )
        self._entries.append(entry)
        self.last_index = entry.index
        self.last_term = entry.term

    def append_command(self, term: Term, command: Any) -> LogEntry:
        """Create and append a new entry for *command* in *term* (leader path)."""
        entry = LogEntry(term=term, index=self.last_index + 1, command=command)
        self.append_entry(entry)
        return entry

    def truncate_from(self, index: LogIndex) -> int:
        """Delete every entry with index >= *index*.

        Returns:
            The number of entries removed.
        """
        if index < 1:
            raise StorageError(f"truncate index must be >= 1, got {index}")
        removed = max(0, self.last_index - index + 1)
        del self._entries[index - 1 :]
        if self._entries:
            tail = self._entries[-1]
            self.last_index = tail.index
            self.last_term = tail.term
        else:
            self.last_index = 0
            self.last_term = 0
        return removed

    def check_and_merge(
        self, prev_index: LogIndex, prev_term: Term, entries: Sequence[LogEntry]
    ) -> bool | None:
        """The follower's side of AppendEntries: the consistency check, then
        the merge rule for *entries* following *prev_index*.

        The check passes when this log holds an entry at *prev_index* whose
        term is *prev_term*; index 0, the empty-log sentinel, always passes.
        Then existing entries that conflict (same index, different term) are
        removed together with everything after them, and new entries are
        appended.  Entries that already match are left untouched, so a
        delayed, duplicated AppendEntries never truncates committed data.

        A retransmitted window costs one slice comparison, not a per-entry
        walk: the part of *entries* that overlaps the stored log is compared
        with it in one step, and skipped when equal.  In the simulator a
        follower stores the leader's own frozen entry objects, so that
        comparison is an identity walk; entries reloaded from a store or a
        codec compare by value.  Equal entries have equal index and term, so
        every check the per-entry loop makes holds for them; the loop runs
        unchanged on whatever follows the skipped part (or on the whole
        window when the overlap differs anywhere).

        Returns:
            ``None`` if the consistency check failed (the log is untouched),
            otherwise whether the log changed.
        """
        stored_entries = self._entries
        if prev_index and not (
            0 < prev_index <= self.last_index
            and stored_entries[prev_index - 1].term == prev_term
        ):
            return None
        if not entries:
            return False
        stored = self.last_index - prev_index
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
                raise StorageError(
                    f"entry index {entry.index} does not match position {index}"
                )
            if index <= self.last_index:
                if stored_entries[index - 1].term == entry.term:
                    continue
                self.truncate_from(index)
            self.append_entry(entry)
            changed = True
        return changed

    # ------------------------------------------------------------------ #
    # Protocol predicates
    # ------------------------------------------------------------------ #
    def candidate_is_acceptable(
        self, candidate_last_term: Term, candidate_last_index: LogIndex
    ) -> bool:
        """Whether a candidate with the given log tail may receive our vote."""
        last_term = self.last_term
        if candidate_last_term != last_term:
            return candidate_last_term > last_term
        return candidate_last_index >= self.last_index

    # ------------------------------------------------------------------ #
    # Dunder helpers
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicatedLog(len={len(self)}, last_index={self.last_index}, "
            f"last_term={self.last_term})"
        )
