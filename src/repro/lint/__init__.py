"""``repro.lint``: the static analyzer enforcing the reproducibility contract.

Every claim this reproduction makes rests on one invariant: a sweep is
bit-for-bit identical at any ``--workers`` count, because all randomness flows
from :mod:`repro.common.rng` seed derivation and every registered spec is a
frozen, picklable value.  This package turns the source half of that
convention into a mechanical gate; it parses the files it checks and never
imports them:

* **AST rules** (``D1``-``D4``) scan each source file for determinism hazards
  -- wall-clock and entropy sources, RNGs built outside the derivation
  helpers, ordered consumption of unordered ``set`` values on the simulation
  path, and wall-clock waits in simulated code.
* **Reachability rule** (``U1``) reports every top-level name and public
  method of the package that nothing outside ``tests/`` uses: not the
  package itself, ``examples/`` or ``bench/``.

The spec half -- every registered value is frozen, hashes and pickles, and
every experiments module registers exactly one declaration -- is a runtime
property, so the test suite checks it (``tests/unit/test_spec_conformance.py``
and ``tests/unit/test_experiments_registry.py``).

Findings can be suppressed line-by-line with a justification pragma::

    started = time.perf_counter()  # repro: allow[D1] -- report metadata only

Unknown rule ids inside a pragma are themselves findings (``P1``), so a typo
cannot silently disable a rule.

Run it as a CLI (``python -m repro.lint src --json``) or programmatically::

    from repro.lint import lint_paths

    report = lint_paths(["src"])
    assert not report.findings
"""

from repro.lint.engine import (
    ALL_RULE_IDS,
    RULES,
    LintReport,
    get_rule,
    lint_file,
    lint_paths,
)
from repro.lint.model import DEFAULT_CONFIG, Finding, LintConfig, Rule

__all__ = [
    "ALL_RULE_IDS",
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "LintReport",
    "RULES",
    "Rule",
    "get_rule",
    "lint_file",
    "lint_paths",
]
