"""The lint driver: rule table, per-file AST pass, suppression, reports.

``lint_file`` parses one source file once and hands the tree to every
selected file rule; ``lint_paths`` walks directories, adds the
once-per-invocation tree rules, applies ``repro: allow[rule-id]``
suppressions uniformly (including to tree findings, which anchor to real
source lines), and reports unknown pragma ids as ``P1`` findings.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.common.frozen import value_object
from repro.lint.model import (
    DEFAULT_CONFIG,
    Finding,
    LintConfig,
    Rule,
    package_relative_path,
    parse_pragmas,
)
from repro.lint.rules_ast import (
    check_rng_construction,
    check_set_iteration,
    check_wall_clock,
    check_wall_clock_waits,
)
from repro.lint.rules_unused import check_unused_names

__all__ = [
    "ALL_RULE_IDS",
    "LintReport",
    "RULES",
    "get_rule",
    "lint_file",
    "lint_paths",
]

#: Every rule, in report order.  ``E1``/``P1`` are meta rules applied by the
#: engine itself (parse failures and pragma hygiene).
RULES: tuple[Rule, ...] = (
    Rule(
        id="D1",
        name="wall-clock",
        description=(
            "no wall-clock or entropy sources (time.time, datetime.now, "
            "module-level random.*, os.urandom, uuid.uuid4) outside the "
            "wall-clock allowlist"
        ),
        kind="file",
        check=check_wall_clock,
    ),
    Rule(
        id="D2",
        name="rng-construction",
        description=(
            "no unseeded random.Random(); RNGs are built from common.rng "
            "derivation helpers (derive_seed / derive_run_seed / streams)"
        ),
        kind="file",
        check=check_rng_construction,
    ),
    Rule(
        id="D3",
        name="set-iteration",
        description=(
            "no bare iteration over set/frozenset values in simulation-path "
            "modules (sim/net/raft/escape/chaos/cluster/zraft); use sorted()"
        ),
        kind="file",
        check=check_set_iteration,
    ),
    Rule(
        id="D4",
        name="sim-sleep",
        description=(
            "no time.sleep or wall-clock asyncio waits in simulation-path "
            "modules; simulated time comes from sim/clock.py only"
        ),
        kind="file",
        check=check_wall_clock_waits,
    ),
    Rule(
        id="U1",
        name="test-only",
        description=(
            "every top-level name and public method in src/repro has a use "
            "outside tests/: in the package, examples/ or bench/"
        ),
        kind="tree",
        check=check_unused_names,
    ),
    Rule(
        id="E1",
        name="parse-error",
        description="the file does not parse as Python",
        kind="meta",
    ),
    Rule(
        id="P1",
        name="pragma-hygiene",
        description=(
            "a suppression pragma names an unknown rule id (a typo cannot "
            "silently disable a rule)"
        ),
        kind="meta",
    ),
)

ALL_RULE_IDS: tuple[str, ...] = tuple(rule.id for rule in RULES)
_RULES_BY_ID: Mapping[str, Rule] = {rule.id: rule for rule in RULES}


def get_rule(rule_id: str) -> Rule:
    """The rule registered under *rule_id*.

    Raises:
        KeyError: listing every rule id when *rule_id* is unknown.
    """
    try:
        return _RULES_BY_ID[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown lint rule {rule_id!r}; known: {', '.join(ALL_RULE_IDS)}"
        ) from None


@value_object
class LintReport:
    """The outcome of one lint invocation."""

    findings: tuple[Finding, ...]
    checked_files: int
    rule_ids: tuple[str, ...]

    @property
    def clean(self) -> bool:
        """Whether the linted tree has no findings."""
        return not self.findings

    def to_json(self) -> dict[str, object]:
        """The report as the JSON object the ``--json`` flag emits."""
        return {
            "clean": self.clean,
            "checked_files": self.checked_files,
            "rules": list(self.rule_ids),
            "findings": [finding.to_json() for finding in self.findings],
        }


def _apply_pragmas(
    findings: Iterable[Finding],
    pragmas: Mapping[int, frozenset[str]],
    path: str,
    check_pragmas: bool = True,
) -> list[Finding]:
    """Suppress findings the file's pragmas allow; flag unknown pragma ids."""
    kept = [
        finding
        for finding in findings
        if finding.rule_id not in pragmas.get(finding.line, frozenset())
    ]
    if not check_pragmas:
        return kept
    for line, ids in sorted(pragmas.items()):
        for rule_id in sorted(ids - set(ALL_RULE_IDS)):
            if "P1" not in ids:
                kept.append(
                    Finding(
                        path,
                        line,
                        "P1",
                        f"suppression pragma names unknown rule id {rule_id!r} "
                        f"(known: {', '.join(ALL_RULE_IDS)})",
                    )
                )
    return kept


def lint_file(
    path: str | Path,
    rule_ids: Sequence[str] | None = None,
    config: LintConfig = DEFAULT_CONFIG,
) -> list[Finding]:
    """Run the (selected) file rules over one source file.

    Tree rules are invocation-wide and are not run here; use
    :func:`lint_paths` for the full gate.
    """
    path = Path(path)
    selected = _select(rule_ids)
    source = path.read_text(encoding="utf-8")
    text_path = str(path)
    try:
        tree = ast.parse(source, filename=text_path)
    except SyntaxError as exc:
        return [
            Finding(
                text_path,
                exc.lineno or 1,
                "E1",
                f"file does not parse: {exc.msg}",
            )
        ]
    rel = package_relative_path(text_path)
    findings: list[Finding] = []
    for rule in selected:
        if rule.kind == "file" and rule.check is not None:
            findings.extend(rule.check(text_path, rel, tree, config))
    return sorted(
        _apply_pragmas(
            findings,
            parse_pragmas(source),
            text_path,
            check_pragmas=any(rule.id == "P1" for rule in selected),
        )
    )


def _select(rule_ids: Sequence[str] | None) -> tuple[Rule, ...]:
    if rule_ids is None:
        return RULES
    return tuple(get_rule(rule_id) for rule_id in rule_ids)


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Every ``.py`` file under *paths* (files pass through), sorted."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
        else:
            raise FileNotFoundError(f"{path} is neither a directory nor a .py file")
    return sorted(files)


def _tree_findings(
    selected: tuple[Rule, ...],
    roots: Sequence[Path],
    config: LintConfig,
) -> list[Finding]:
    """Run the tree rules; keep findings anchored inside the linted roots.

    A tree rule reads this ``repro`` package's source wherever it lives;
    dropping anchors outside the linted tree keeps ``repro.lint
    some/fixture/dir`` focused on the caller's files while the default
    ``repro.lint src`` invocation sees everything.  Suppression pragmas apply
    through the anchored file like any other finding.
    """
    resolved_roots = [Path(root).resolve() for root in roots]
    findings: list[Finding] = []
    for rule in selected:
        if rule.kind == "tree" and rule.check is not None:
            findings.extend(rule.check(config))
    kept: list[Finding] = []
    pragma_cache: dict[str, Mapping[int, frozenset[str]]] = {}
    for finding in findings:
        anchor = Path(finding.path)
        try:
            resolved = anchor.resolve()
        except OSError:  # pragma: no cover - unresolvable anchor
            continue
        if not any(resolved.is_relative_to(root) for root in resolved_roots):
            continue
        if finding.path not in pragma_cache:
            try:
                pragma_cache[finding.path] = parse_pragmas(
                    anchor.read_text(encoding="utf-8")
                )
            except OSError:
                pragma_cache[finding.path] = {}
        pragmas = pragma_cache[finding.path]
        if finding.rule_id not in pragmas.get(finding.line, frozenset()):
            kept.append(finding)
    return kept


def lint_paths(
    paths: Sequence[str | Path],
    rule_ids: Sequence[str] | None = None,
    config: LintConfig = DEFAULT_CONFIG,
) -> LintReport:
    """Lint every Python file under *paths* with the selected rules."""
    selected = _select(rule_ids)
    files = iter_python_files(paths)
    findings: list[Finding] = []
    file_rule_ids = [rule.id for rule in selected if rule.kind != "tree"]
    for path in files:
        findings.extend(lint_file(path, file_rule_ids, config))
    findings.extend(_tree_findings(selected, [Path(p) for p in paths], config))
    return LintReport(
        findings=tuple(sorted(findings)),
        checked_files=len(files),
        rule_ids=tuple(rule.id for rule in selected),
    )
