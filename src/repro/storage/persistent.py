"""Persistent server state: current term, vote, and the log.

Raft requires ``currentTerm`` and ``votedFor`` to be persisted before a server
answers an RPC, and the log to be persisted before entries are acknowledged.
Two implementations are provided:

* :class:`InMemoryStore` -- used by the simulator, where "durability" only
  needs to survive the simulated crash/recover cycle of a node object;
* :class:`FileStore` -- a JSON-file-backed store for tests exercising
  recovery from disk.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

from repro.common.errors import StorageError
from repro.common.types import ServerId, Term
from repro.storage.log import LogEntry, ReplicatedLog


@runtime_checkable
class PersistentState(Protocol):
    """Interface of the durable state every server keeps."""

    def load_term(self) -> Term:  # pragma: no cover - protocol signature
        ...

    def load_voted_for(self) -> ServerId | None:  # pragma: no cover
        ...

    def save_term_and_vote(
        self, term: Term, voted_for: ServerId | None
    ) -> None:  # pragma: no cover
        ...

    def load_log(self) -> ReplicatedLog:  # pragma: no cover
        ...

    def save_log(self, log: ReplicatedLog) -> None:  # pragma: no cover
        ...


class InMemoryStore:
    """Durable state held in memory.

    Survives protocol-level restarts of a node object (the store outlives the
    node), which is exactly what the simulated crash/recover scenarios need.
    """

    def __init__(self) -> None:
        self._term: Term = 0
        self._voted_for: ServerId | None = None
        self._log = ReplicatedLog()
        self.save_count = 0

    def load_term(self) -> Term:
        return self._term

    def load_voted_for(self) -> ServerId | None:
        return self._voted_for

    def save_term_and_vote(self, term: Term, voted_for: ServerId | None) -> None:
        if term < self._term:
            raise StorageError(
                f"refusing to persist a lower term: {term} < {self._term}"
            )
        self._term = term
        self._voted_for = voted_for
        self.save_count += 1

    def load_log(self) -> ReplicatedLog:
        return self._log

    def save_log(self, log: ReplicatedLog) -> None:
        self._log = log
        self.save_count += 1


class FileStore:
    """JSON-file-backed durable state.

    Writes are atomic (write-to-temp-then-rename), so a crash mid-write never
    leaves a corrupt state file.  Log entries' commands must be
    JSON-serialisable.
    """

    def __init__(self, directory: str | os.PathLike[str], server_id: ServerId) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._state_path = self._directory / f"server-{server_id}-state.json"
        self._log_path = self._directory / f"server-{server_id}-log.json"
        self.save_count = 0

    # ------------------------------------------------------------------ #
    # Term and vote
    # ------------------------------------------------------------------ #
    def load_term(self) -> Term:
        return int(self._read_state().get("term", 0))

    def load_voted_for(self) -> ServerId | None:
        voted_for = self._read_state().get("voted_for")
        return None if voted_for is None else int(voted_for)

    def save_term_and_vote(self, term: Term, voted_for: ServerId | None) -> None:
        current = self.load_term()
        if term < current:
            raise StorageError(f"refusing to persist a lower term: {term} < {current}")
        self._atomic_write(
            self._state_path, {"term": int(term), "voted_for": voted_for}
        )
        self.save_count += 1

    # ------------------------------------------------------------------ #
    # Log
    # ------------------------------------------------------------------ #
    def load_log(self) -> ReplicatedLog:
        if not self._log_path.exists():
            return ReplicatedLog()
        try:
            raw = json.loads(self._log_path.read_text())
        except json.JSONDecodeError as exc:
            raise StorageError(f"corrupt log file {self._log_path}") from exc
        entries = [
            LogEntry(term=int(item["term"]), index=int(item["index"]), command=item["command"])
            for item in raw
        ]
        return ReplicatedLog(entries)

    def save_log(self, log: ReplicatedLog) -> None:
        payload = [
            {"term": entry.term, "index": entry.index, "command": entry.command}
            for entry in log
        ]
        self._atomic_write(self._log_path, payload)
        self.save_count += 1

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _read_state(self) -> dict[str, Any]:
        if not self._state_path.exists():
            return {}
        try:
            return json.loads(self._state_path.read_text())
        except json.JSONDecodeError as exc:
            raise StorageError(f"corrupt state file {self._state_path}") from exc

    def _atomic_write(self, path: Path, payload: Any) -> None:
        fd, tmp_name = tempfile.mkstemp(dir=str(self._directory), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
