"""Core lint vocabulary: findings, rule descriptors, config, and pragmas.

A :class:`Finding` is one localised violation (file, line, rule id, message);
a :class:`Rule` is a frozen descriptor binding a stable id (``D1``, ``U1``,
...) to its checker; :class:`LintConfig` carries the explicit allowlists that
scope each rule to the parts of the tree where its hazard is real (the
progress reporter is *supposed* to read the wall clock).  Suppression pragmas
(``repro: allow[rule-id]`` comments) are parsed here so the engine and the
tests share one definition of the syntax.
"""

from __future__ import annotations

import re
from dataclasses import field
from typing import Callable, Mapping

from repro.common.frozen import value_object

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
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
            the reference directories; ``"meta"`` rules (the pragma rule)
            are applied by the engine itself and cannot be invoked directly.
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


@value_object
class LintConfig:
    """Scoping allowlists for the rule set.

    Paths are matched against the *package-relative* path of each linted
    file (``repro/obs/progress.py``); files that do not live under a
    ``repro`` package root (e.g. test fixtures in a temp directory) are never
    allowlisted and are in scope for every rule, so the strictest reading
    applies to unknown code.
    """

    #: D1/D4 -- module prefixes allowed to read the wall clock and wait on
    #: it: the Redis adapter models a live deployment, and the observability
    #: layer's progress/profiling modules report wall-clock rates and phase
    #: timings by definition.  Deliberately *files*, not the whole ``repro/obs/``
    #: package: telemetry and trace modules measure simulated facts and stay
    #: under the full determinism rules.
    wall_clock_allowed: tuple[str, ...] = (
        "repro/adapters/",
        "repro/obs/profiling.py",
        "repro/obs/progress.py",
    )
    #: D2 -- modules allowed to construct ``random.Random`` directly (the
    #: derivation helpers themselves live here).
    rng_construction_allowed: tuple[str, ...] = ("repro/common/rng.py",)
    #: D2 -- call names accepted as seed-derivation helpers.
    derivation_helpers: tuple[str, ...] = ("derive_seed", "derive_run_seed")
    #: D3 -- module prefixes on the simulation path, where unordered ``set``
    #: iteration feeding scheduling or RNG draws is the classic
    #: workers=1-vs-N divergence.  Files outside any ``repro`` package are
    #: always in scope.
    set_iteration_scope: tuple[str, ...] = (
        "repro/sim/",
        "repro/net/",
        "repro/raft/",
        "repro/escape/",
        "repro/chaos/",
        "repro/cluster/",
        "repro/zraft/",
    )

    def is_allowed(self, rel_path: str | None, prefixes: tuple[str, ...]) -> bool:
        """Whether a package-relative path falls under an allowlist."""
        if rel_path is None:
            return False
        return any(rel_path.startswith(prefix) for prefix in prefixes)

    def in_set_iteration_scope(self, rel_path: str | None) -> bool:
        """Whether D3 applies to this file (sim path, or outside the package)."""
        if rel_path is None:
            return True
        return any(
            rel_path.startswith(prefix) for prefix in self.set_iteration_scope
        )


DEFAULT_CONFIG = LintConfig()


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
