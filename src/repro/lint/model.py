"""Core lint vocabulary: findings, rule descriptors, and pragmas.

A :class:`Finding` is one localised violation (file, line, rule id, message);
a :class:`Rule` is a frozen descriptor binding a stable id (``D1``, ``U1``,
...) to its checker.  Suppression pragmas (``repro: allow[rule-id]``
comments) are parsed here so the engine and the tests share one definition
of the syntax.
"""

from __future__ import annotations

import re
from dataclasses import field
from pathlib import Path
from typing import Callable, Mapping

from repro.common.frozen import value_object

__all__ = [
    "Finding",
    "PACKAGE_DIR",
    "Rule",
    "package_relative_path",
    "parse_pragmas",
]


@value_object(order=True)
class Finding:
    """One rule violation anchored to a source line."""

    path: str
    line: int
    rule_id: str
    message: str

    def to_json(self) -> dict[str, object]:
        """The finding as the JSON object the ``--json`` report emits."""
        return {
            "file": self.path,
            "line": self.line,
            "rule": self.rule_id,
            "message": self.message,
        }

    def render(self) -> str:
        """The finding as the one-line text report entry."""
        return f"{self.path}:{self.line}: [{self.rule_id}] {self.message}"


@value_object
class Rule:
    """Descriptor for one lint rule.

    Attributes:
        id: stable short id used in reports and suppression pragmas.
        name: short kebab-case label.
        description: one-line summary shown by ``--list-rules``.
        kind: ``"file"`` rules receive each parsed file; ``"tree"`` rules
            run once per invocation against the whole package's source and
            the reference directories, when a linted root can hold one of
            their findings; ``"meta"`` rules (the pragma rule) are applied
            by the engine itself and cannot be invoked directly.
        check: the checker callable (signature depends on *kind*); excluded
            from equality so rules compare by identity metadata.
    """

    id: str
    name: str
    description: str
    kind: str = "file"
    check: Callable[..., list[Finding]] | None = field(
        default=None, compare=False, repr=False
    )


#: The ``repro`` package: tree rules read its source (wherever it lives) and
#: anchor every finding in it.
PACKAGE_DIR = Path(__file__).resolve().parents[1]


def package_relative_path(path: str) -> str | None:
    """The path suffix from the last ``repro/`` component, or ``None``.

    ``/root/repo/src/repro/net/faults.py`` -> ``repro/net/faults.py``; a
    fixture file in a temp directory has no ``repro`` component and returns
    ``None`` (never allowlisted, always in scope).
    """
    parts = path.replace("\\", "/").split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return None


#: ``# repro: allow[D1]`` or ``# repro: allow[D1,D3]`` -- same-line
#: suppression; trailing prose after the bracket is the justification.
_PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")


def parse_pragmas(source: str) -> Mapping[int, frozenset[str]]:
    """Per-line suppression pragmas (1-indexed line -> allowed rule ids).

    Each pragma silences the named rule(s) on its own line only.  Ids are
    returned verbatim; the engine reports unknown ones as ``P1`` findings.
    """
    pragmas: dict[int, frozenset[str]] = {}
    for line_no, line in enumerate(source.splitlines(), start=1):
        ids: set[str] = set()
        for match in _PRAGMA_RE.finditer(line):
            ids.update(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
        if ids:
            pragmas[line_no] = frozenset(ids)
    return pragmas
