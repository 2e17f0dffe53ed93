"""The tier-1 lint gate and the CLI surface.

``test_src_tree_is_lint_clean`` is the point of the whole subsystem: the
shipped tree has zero findings, so any new determinism hazard fails the test
suite (and CI's dedicated lint job) the moment it is introduced.  The
``classic`` oracle in ``tests/oracle/`` is held to the same rules: it is the
reference the simulator is diffed against.
``TestSourceOnly`` holds the linter to reading what it checks: a full lint in
a fresh interpreter loads no ``repro`` module beyond those ``repro.lint``
itself imports.  The CLI's output shape is checked on a small clean fixture,
so ``src`` is linted in full once in-process, by the gate.
"""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import ALL_RULE_IDS, RULES, engine, get_rule, lint_paths
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = str(REPO_ROOT / "src")
ORACLE = str(REPO_ROOT / "tests" / "oracle")


def _clean_fixture(tmp_path: Path) -> str:
    """A two-file tree with no findings under any rule."""
    (tmp_path / "core.py").write_text(
        "def double(value):\n    return sorted({value, 2 * value})\n",
        encoding="utf-8",
    )
    (tmp_path / "main.py").write_text(
        "from core import double\n\nprint(double(3))\n", encoding="utf-8"
    )
    return str(tmp_path)


class TestTreeGate:
    def test_src_tree_is_lint_clean(self):
        report = lint_paths([SRC])
        assert report.rule_ids == ALL_RULE_IDS
        assert report.checked_files > 90
        assert report.findings == (), "\n".join(
            finding.render() for finding in report.findings
        )
        assert report.clean
        oracle = lint_paths([ORACLE])
        assert oracle.checked_files == 3
        assert oracle.findings == (), "\n".join(
            finding.render() for finding in oracle.findings
        )

    def test_single_rule_selection_runs_only_that_rule(self):
        report = lint_paths([SRC], rule_ids=["D3"])
        assert report.rule_ids == ("D3",)
        assert report.clean


class TestTreeRulesRunWhereTheyAnchor:
    """U1 reads the whole package; it runs only when a linted root can hold
    one of its findings."""

    @pytest.fixture
    def u1_calls(self, monkeypatch) -> list[None]:
        """Replace U1's check, ``check_unused_names``, with a recording stub."""
        calls: list[None] = []

        def check_unused_names():
            calls.append(None)
            return []

        monkeypatch.setattr(
            engine,
            "RULES",
            tuple(
                dataclasses.replace(rule, check=check_unused_names)
                if rule.id == "U1"
                else rule
                for rule in RULES
            ),
        )
        return calls

    def test_a_fixture_lint_never_calls_check_unused_names(self, tmp_path, u1_calls):
        report = lint_paths([_clean_fixture(tmp_path)])
        assert report.rule_ids == ALL_RULE_IDS and report.clean
        assert u1_calls == []

    def test_a_root_inside_the_package_runs_it_once(self, u1_calls):
        lint_paths([str(REPO_ROOT / "src" / "repro" / "lint")])
        assert len(u1_calls) == 1


CHILD = """
import json, sys
from repro.lint import lint_paths

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "repro")

imported = loaded()
report = lint_paths([sys.argv[1]])
print(json.dumps({"imported": imported, "linted": loaded(), "clean": report.clean}))
"""


class TestSourceOnly:
    def test_a_full_lint_imports_nothing_it_checks(self):
        path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path}
        result = subprocess.run(
            [sys.executable, "-c", CHILD, SRC],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        child = json.loads(result.stdout)
        print(
            f"repro.lint: {len(child['imported'])} repro modules imported, "
            f"{len(child['linted'])} after a full lint"
        )
        assert child["clean"]
        assert sorted(set(child["linted"]) - set(child["imported"])) == []


class TestRuleTable:
    def test_rule_ids_are_unique_and_documented(self):
        assert len(set(ALL_RULE_IDS)) == len(ALL_RULE_IDS)
        for rule in RULES:
            assert rule.description
            assert rule.kind in ("file", "tree", "meta")

    def test_readme_rule_table_lists_every_non_meta_rule(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Determinism contract (`repro.lint`)", 1)[1]
        section = section.split("\n## ", 1)[0]
        documented = re.findall(r"^\| `([A-Z]\d)` ", section, re.MULTILINE)
        assert documented == [rule.id for rule in RULES if rule.kind != "meta"]

    def test_get_rule_rejects_unknown_ids(self):
        assert get_rule("D1").name == "wall-clock"
        with pytest.raises(KeyError, match="unknown lint rule 'Z9'"):
            get_rule("Z9")


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        assert main([_clean_fixture(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "repro.lint: clean in 2 file(s)" in out

    def test_json_report_shape(self, tmp_path, capsys):
        assert main([_clean_fixture(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["findings"] == []
        assert payload["rules"] == list(ALL_RULE_IDS)
        assert payload["checked_files"] == 2

    def test_findings_exit_one_and_render(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n", encoding="utf-8")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:2: [D1]" in out
        assert "1 finding(s)" in out

    def test_output_file_is_written_even_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n", encoding="utf-8")
        report_path = tmp_path / "report.json"
        assert main([str(bad), "--json", "--output", str(report_path)]) == 1
        capsys.readouterr()
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "D1"

    def test_rule_filter_limits_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import random\nimport time\n"
            "rng = random.Random(time.time())\n",
            encoding="utf-8",
        )
        assert main([str(bad), "--rule", "D2", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in payload["findings"]] == ["D2"]

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_list_rules_prints_the_table(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out
