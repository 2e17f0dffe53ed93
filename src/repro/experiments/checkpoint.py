"""JSON-lines checkpointing for sweeps.

A sweep (:func:`repro.experiments.runner.run_sweep`) executes work in
deterministic chunks and merges the per-chunk partial containers in
chunk-index order.  That makes a sweep whose container serialises
(``to_state``/``from_state``) resumable *bit-identically*: persist each
completed chunk's partials, and a restarted sweep only has to re-run the
chunks that never completed -- the merge order (and therefore every float in
the final report) is the same as an uninterrupted run.

The on-disk format is one JSON object per line, append-only:

* line 1 -- a header pinning the sweep identity: a fingerprint over the
  scenario table / runs / seed / aggregate type, plus the chunk size the
  partition was built with.  Resuming with a different ``--workers`` count
  reuses the recorded chunk size, so the partition never shifts.
* every further line -- ``{"chunk": id, "partials": {label: state}}``, the
  JSON state of each label's partial aggregate for that chunk (floats
  round-trip exactly through ``json``).

Appends are flushed per line, so a killed process loses at most the line it
was writing; :meth:`SweepCheckpoint.open` tolerates (and trims) a truncated
trailing line.  A fingerprint or identity mismatch never corrupts results:
the stale file is discarded and the sweep starts fresh.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.common.errors import SweepError

__all__ = ["SweepCheckpoint", "checkpoint_fingerprint"]

_FORMAT = "repro-sweep-checkpoint"
_VERSION = 1

#: Rebuilds one partial aggregate from its JSON state.
StateLoader = Callable[[Mapping[str, object]], object]


def checkpoint_fingerprint(
    scenarios: Mapping[str, object], runs: int, seed: int, aggregate_type: type
) -> str:
    """A stable digest of everything that defines the sweep's work partition.

    Scenario identity rides on ``repr`` -- frozen dataclass reprs are
    deterministic and capture every parameter.  Any difference (an extra
    label, a changed timeout, another aggregate class) changes the
    fingerprint, so a checkpoint can never be resumed against different work.
    """
    identity = {
        "labels": {label: repr(scenario) for label, scenario in scenarios.items()},
        "runs": runs,
        "seed": seed,
        "aggregate": f"{aggregate_type.__module__}.{aggregate_type.__qualname__}",
    }
    digest = hashlib.sha256(
        json.dumps(identity, sort_keys=True).encode("utf-8")
    )
    return digest.hexdigest()


class SweepCheckpoint:
    """Append-only chunk ledger for one sweep.

    Use :meth:`open` to create-or-resume, :attr:`completed` for the chunks a
    previous run already finished, :meth:`record` after each chunk completes,
    and :meth:`close` (or a ``with`` block) when the sweep ends.
    """

    def __init__(
        self,
        path: Path,
        chunk_size: int,
        completed: dict[int, dict[str, object]],
    ) -> None:
        self.path = path
        #: Chunk size the partition was (and must keep being) built with.
        self.chunk_size = chunk_size
        #: chunk id -> label -> restored partial aggregate.
        self.completed = completed
        self._handle = path.open("a", encoding="utf-8")

    # ------------------------------------------------------------------ #
    # Opening / resuming
    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls,
        directory: str | os.PathLike,
        *,
        fingerprint: str,
        labels: Sequence[str],
        runs: int,
        seed: int,
        chunk_size: int,
        loader: StateLoader,
    ) -> "SweepCheckpoint":
        """Create a checkpoint in *directory*, resuming any compatible file.

        *chunk_size* is the partition the caller would use for a fresh sweep;
        when a compatible checkpoint already exists its recorded chunk size
        wins, so resuming with a different worker count cannot shift the
        chunk boundaries.
        """
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        path = root / f"sweep-{fingerprint[:16]}.jsonl"

        completed: dict[int, dict[str, object]] = {}
        if path.exists():
            header, chunk_lines, valid_text = cls._read(path)
            if (
                header is not None
                and header.get("format") == _FORMAT
                and header.get("version") == _VERSION
                and header.get("fingerprint") == fingerprint
                and header.get("labels") == list(labels)
                and header.get("runs") == runs
                and header.get("seed") == seed
            ):
                chunk_size = int(header["chunk_size"])
                for line in chunk_lines:
                    partials = {
                        label: loader(state)
                        for label, state in line["partials"].items()
                    }
                    completed[int(line["chunk"])] = partials
                # A kill mid-append leaves a torn trailing line; trim it so
                # the next append starts on a clean line boundary.
                if valid_text is not None:
                    path.write_text(valid_text, encoding="utf-8")
            else:
                # Different sweep (or unreadable header): never mix results.
                path.unlink()

        checkpoint = cls(path, chunk_size, completed)
        if not completed and path.stat().st_size == 0:
            checkpoint._append(
                {
                    "format": _FORMAT,
                    "version": _VERSION,
                    "fingerprint": fingerprint,
                    "labels": list(labels),
                    "runs": runs,
                    "seed": seed,
                    "chunk_size": chunk_size,
                }
            )
        return checkpoint

    @staticmethod
    def _read(
        path: Path,
    ) -> tuple[dict | None, list[dict], str | None]:
        """Parse a checkpoint file, trimming any torn trailing line.

        Returns ``(header, chunk_lines, valid_text)`` where *valid_text* is
        the clean prefix to rewrite when the file ends in a torn line (or
        ``None`` when the file is already clean).
        """
        raw = path.read_text(encoding="utf-8")
        header: dict | None = None
        chunk_lines: list[dict] = []
        consumed = 0
        for line in raw.splitlines(keepends=True):
            if not line.endswith("\n"):
                break  # torn tail from a mid-write kill
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                break  # corrupt line: keep the prefix, drop the rest
            if header is None:
                header = payload if isinstance(payload, dict) else {}
            elif isinstance(payload, dict) and "chunk" in payload:
                chunk_lines.append(payload)
            consumed += len(line)
        valid_text = raw[:consumed] if consumed != len(raw) else None
        return header, chunk_lines, valid_text

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record(self, chunk_id: int, partials: Mapping[str, object]) -> None:
        """Persist one completed chunk's partial aggregates (flushed)."""
        states = {}
        for label, partial in partials.items():
            to_state = getattr(partial, "to_state", None)
            if to_state is None:
                raise SweepError(
                    f"aggregate for {label!r} has no to_state(); "
                    "checkpointing needs JSON-able partials"
                )
            states[label] = to_state()
        self._append({"chunk": chunk_id, "partials": states})

    def _append(self, payload: Mapping[str, object]) -> None:
        self._handle.write(json.dumps(payload) + "\n")
        self._handle.flush()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
