"""Fixture tests for the tree rule U1 (test-only names).

U1 runs on fixture trees written to a temporary directory.
"""

import dataclasses
import textwrap

import pytest

from repro.lint import engine, get_rule, lint_paths
from repro.lint.rules_unused import find_unused_names


# --------------------------------------------------------------------------- #
# U1 -- names only tests use
# --------------------------------------------------------------------------- #
def _fixture_tree(tmp_path, files):
    """Write *files* (relative path -> source) under *tmp_path*; return the
    package dir and the two reference dirs U1 reads."""
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    references = [tmp_path / name for name in ("examples", "bench")]
    return tmp_path / "pkg", references


def _u1(tmp_path, files):
    """The qualified names U1 reports on a fixture tree, sorted."""
    package, references = _fixture_tree(tmp_path, files)
    return sorted(
        finding.message.split(" ")[0]
        for finding in find_unused_names(package, references)
    )


class TestU1TestOnlyNames:
    def test_a_test_only_function_is_reported_at_its_def_line(self, tmp_path):
        package, references = _fixture_tree(
            tmp_path,
            {
                "pkg/core.py": """\
                    def helper():
                        return 1


                    def only_tested():
                        return 2


                    def main():
                        return helper()
                """,
                "examples/run.py": "from pkg.core import main\nmain()\n",
                "tests/test_core.py": "from pkg.core import only_tested\nonly_tested()\n",
            },
        )
        (finding,) = find_unused_names(package, references)
        assert (finding.rule_id, finding.line) == ("U1", 5)
        assert finding.path.endswith("core.py")
        assert finding.message.startswith("only_tested has no use outside tests/")

    def test_engine_and_column_path_strings_count_as_uses(self, tmp_path):
        assert _u1(
            tmp_path,
            {
                "pkg/engines.py": 'FLAT = "pkg.flatnet:FlatNetwork"\n',
                "pkg/flatnet.py": "class FlatNetwork:\n    pass\n",
                "pkg/columns.py": """\
                    COLUMN = "total_summary.mean"


                    class Aggregate:
                        def total_summary(self):
                            return None
                """,
                "examples/show.py": (
                    "from pkg import columns, engines\n"
                    "print(engines.FLAT, columns.COLUMN, columns.Aggregate)\n"
                ),
            },
        ) == []

    def test_each_reference_dir_counts_and_their_tests_do_not(self, tmp_path):
        assert _u1(
            tmp_path,
            {
                "pkg/api.py": """\
                    def for_examples():
                        pass


                    def for_bench():
                        pass


                    def for_examples_via_the_package():
                        pass


                    def for_bench_tests():
                        pass
                """,
                "examples/a.py": "import pkg.api as api\napi.for_examples()\n",
                "bench/b.py": "from pkg.api import for_bench\nfor_bench()\n",
                "examples/c.py": (
                    "from pkg import api\napi.for_examples_via_the_package()\n"
                ),
                "bench/tests/test_b.py": "from pkg import api\napi.for_bench_tests()\n",
            },
        ) == ["for_bench_tests"]

    def test_imports_all_and_docstrings_are_not_uses(self, tmp_path):
        assert _u1(
            tmp_path,
            {
                "pkg/__init__.py": (
                    'from pkg.core import exported\n__all__ = ["exported"]\n'
                ),
                "pkg/core.py": """\
                    def exported():
                        pass


                    def documented():
                        pass


                    def imported():
                        pass


                    def main():
                        \"\"\"Calls documented() in prose only.\"\"\"
                """,
                "examples/run.py": "from pkg.core import imported, main\nmain()\n",
            },
        ) == ["documented", "exported", "imported"]

    def test_a_use_inside_its_own_definition_does_not_count(self, tmp_path):
        assert _u1(
            tmp_path,
            {
                "pkg/core.py": """\
                    def countdown(n):
                        return countdown(n - 1) if n else 0


                    class Node:
                        def clone(self):
                            return Node().clone()
                """,
            },
        ) == ["Node", "Node.clone", "countdown"]

    def test_a_write_is_not_a_use(self, tmp_path):
        assert _u1(
            tmp_path,
            {
                "pkg/core.py": """\
                    LIMIT = 1


                    class Box:
                        def size(self):
                            return 0


                    def reset(box):
                        global LIMIT
                        LIMIT = 2
                        box.size = None
                """,
                "examples/run.py": "from pkg.core import Box, reset\nreset(Box())\n",
            },
        ) == ["Box.size", "LIMIT"]

    def test_dunders_private_methods_and_visitor_hooks_are_out_of_scope(self, tmp_path):
        assert _u1(
            tmp_path,
            {
                "pkg/walk.py": """\
                    import ast


                    class Walker(ast.NodeVisitor):
                        def __init__(self):
                            self._seen = 0

                        def _bump(self):
                            self._seen += 1

                        def visit_Name(self, node):
                            self._bump()
                """,
                "examples/run.py": "from pkg.walk import Walker\nWalker()\n",
            },
        ) == []

    def test_a_pragma_on_the_def_line_suppresses_the_finding(
        self, tmp_path, monkeypatch
    ):
        package, references = _fixture_tree(
            tmp_path,
            {
                "pkg/core.py": """\
                    def kept():  # repro: allow[U1] -- the fixture's reference
                        pass


                    def dropped():
                        pass
                """,
            },
        )
        fixture_rule = dataclasses.replace(
            get_rule("U1"), check=lambda: find_unused_names(package, references)
        )
        monkeypatch.setitem(engine._RULES_BY_ID, "U1", fixture_rule)
        monkeypatch.setattr(engine, "PACKAGE_DIR", package)
        report = lint_paths([package], rule_ids=["U1"])
        assert [(f.line, f.message.split(" ")[0]) for f in report.findings] == [
            (5, "dropped")
        ]


def _u1_lines(tmp_path, files):
    """``{qualified name: line}`` for what U1 reports on a fixture tree."""
    package, references = _fixture_tree(tmp_path, files)
    return {
        finding.message.split(" ")[0]: finding.line
        for finding in find_unused_names(package, references)
    }


class TestU1Scope:
    """One case per kind of definition; ``Host`` is read by an example so
    only the definition under test can be reported."""

    _EXAMPLE = {"examples/run.py": "from pkg import core\ncore.Host()\ncore.outer()\n"}

    @pytest.mark.parametrize(
        "source, qualified, line",
        [
            pytest.param("def target():\n    pass\n", "target", 1, id="function"),
            pytest.param(
                "async def target():\n    pass\n", "target", 1, id="async-function"
            ),
            pytest.param(
                "def _target():\n    pass\n", "_target", 1, id="private-function"
            ),
            pytest.param("class Target:\n    pass\n", "Target", 1, id="class"),
            pytest.param("TARGET = 1\n", "TARGET", 1, id="constant"),
            pytest.param("TARGET: int = 1\n", "TARGET", 1, id="annotated-constant"),
            pytest.param("_TARGET = 1\n", "_TARGET", 1, id="private-constant"),
            pytest.param(
                "class Host:\n    def target(self):\n        pass\n",
                "Host.target",
                2,
                id="method",
            ),
            pytest.param(
                "class Host:\n    async def target(self):\n        pass\n",
                "Host.target",
                2,
                id="async-method",
            ),
            pytest.param(
                "class Host:\n    @property\n    def target(self):\n        return 1\n",
                "Host.target",
                3,
                id="property",
            ),
            pytest.param(
                "class Host:\n    @staticmethod\n    def target():\n        pass\n",
                "Host.target",
                3,
                id="staticmethod",
            ),
            pytest.param(
                "class Host:\n    @classmethod\n    def target(cls):\n        pass\n",
                "Host.target",
                3,
                id="classmethod",
            ),
            pytest.param(
                "class Host:\n    def visit_Name(self, node):\n        pass\n",
                "Host.visit_Name",
                2,
                id="visit-hook-outside-a-visitor",
            ),
        ],
    )
    def test_each_kind_of_definition_is_reported_at_its_def_line(
        self, tmp_path, source, qualified, line
    ):
        reported = _u1_lines(tmp_path, {"pkg/core.py": source, **self._EXAMPLE})
        assert reported == {qualified: line}

    @pytest.mark.parametrize(
        "source",
        [
            pytest.param('__version__ = "1.0"\n', id="module-dunder"),
            pytest.param(
                "def outer():\n    def inner():\n        pass\n    return inner\n",
                id="nested-function",
            ),
            pytest.param(
                "def outer():\n"
                "    class Inner:\n"
                "        def method(self):\n"
                "            pass\n"
                "    return Inner\n",
                id="class-inside-a-function",
            ),
            pytest.param("class Host:\n    LIMIT = 1\n", id="class-attribute"),
            pytest.param(
                "class Host:\n    def __init__(self):\n        self.limit = 1\n",
                id="instance-attribute",
            ),
            pytest.param(
                "class Host:\n    def __eq__(self, other):\n        return True\n",
                id="dunder-method",
            ),
            pytest.param(
                "class Host:\n    def _helper(self):\n        pass\n",
                id="private-method",
            ),
            pytest.param(
                "from ast import NodeVisitor\n\n\n"
                "class Host(NodeVisitor):\n"
                "    def visit_Call(self, node):\n"
                "        pass\n",
                id="visitor-hook-on-an-imported-base",
            ),
        ],
    )
    def test_out_of_scope_definitions_are_never_reported(self, tmp_path, source):
        assert _u1_lines(tmp_path, {"pkg/core.py": source, **self._EXAMPLE}) == {}


_TARGET_FUNCTION = {"pkg/core.py": "def target():\n    pass\n"}
_TARGET_CLASS = {"pkg/core.py": "class Target:\n    pass\n"}


class TestU1Uses:
    """Each case holds ``target`` (or ``Target`` / ``Host.target``) and one
    other reference to it; the first group keeps it, the second does not."""

    @pytest.mark.parametrize(
        "files, name",
        [
            pytest.param(
                {**_TARGET_FUNCTION, "pkg/main.py": "from pkg.core import target\n\ntarget()\n"},
                "target",
                id="call-from-another-package-module",
            ),
            pytest.param(
                {**_TARGET_FUNCTION, "examples/run.py": "import pkg.core\n\npkg.core.target\n"},
                "target",
                id="attribute-read-from-examples",
            ),
            pytest.param(
                {"pkg/core.py": "def target():\n    pass\n\n\nHOOK = target\n"},
                "target",
                id="same-module-outside-its-own-span",
            ),
            pytest.param(
                {
                    **_TARGET_FUNCTION,
                    "pkg/main.py": (
                        "from pkg.core import target\n\n\n@target\ndef main():\n    pass\n"
                    ),
                },
                "target",
                id="decorator",
            ),
            pytest.param(
                {
                    **_TARGET_CLASS,
                    "bench/b.py": (
                        "from pkg.core import Target\n\n\nclass Child(Target):\n    pass\n"
                    ),
                },
                "Target",
                id="base-class-in-bench",
            ),
            pytest.param(
                {
                    **_TARGET_FUNCTION,
                    "bench/c.py": (
                        "from pkg.core import target\n\n\n"
                        "def main(hook=target):\n    return hook\n"
                    ),
                },
                "target",
                id="default-argument-in-bench",
            ),
            pytest.param(
                {
                    **_TARGET_CLASS,
                    "pkg/main.py": 'def main(item: "Target") -> None:\n    pass\n',
                },
                "Target",
                id="string-annotation",
            ),
            pytest.param(
                {
                    **_TARGET_FUNCTION,
                    "examples/run.py": 'import pkg.core\n\ngetattr(pkg.core, "target")()\n',
                },
                "target",
                id="getattr-string",
            ),
            pytest.param(
                {
                    **_TARGET_FUNCTION,
                    "pkg/main.py": (
                        "from pkg.core import target\n\n"
                        "HOOKS = {'start': lambda: target()}\n"
                    ),
                },
                "target",
                id="inside-a-lambda",
            ),
            pytest.param(
                {
                    **_TARGET_FUNCTION,
                    "pkg/main.py": (
                        "from pkg.core import target\n\n"
                        "VALUES = [target() for _ in range(2)]\n"
                    ),
                },
                "target",
                id="inside-a-comprehension",
            ),
            pytest.param(
                {
                    "pkg/core.py": "class Host:\n    def target(self):\n        pass\n",
                    "examples/run.py": "from pkg.core import Host\n\nHost().target()\n",
                },
                "Host.target",
                id="method-call-on-an-instance",
            ),
            pytest.param(
                {
                    "pkg/core.py": (
                        "class Host:\n    @property\n    def target(self):\n        return 1\n"
                    ),
                    "examples/run.py": "from pkg.core import Host\n\nprint(Host().target)\n",
                },
                "Host.target",
                id="property-read",
            ),
        ],
    )
    def test_each_kind_of_read_is_a_use(self, tmp_path, files, name):
        assert name not in _u1_lines(tmp_path, files)

    @pytest.mark.parametrize(
        "path, source",
        [
            pytest.param("examples/run.py", "from pkg.core import target\n", id="from-import"),
            pytest.param("pkg/__init__.py", '__all__ = ["target"]\n', id="all-list"),
            pytest.param(
                "pkg/__init__.py",
                '__all__ = []\n__all__ += ["target"]\n',
                id="all-augmented",
            ),
            pytest.param(
                "pkg/__init__.py", '__all__: list = ["target"]\n', id="all-annotated"
            ),
            pytest.param(
                "pkg/main.py", '"""Call target() to start."""\n', id="module-docstring"
            ),
            pytest.param(
                "pkg/main.py",
                'class Runner:\n    """Wraps target()."""\n',
                id="class-docstring",
            ),
            pytest.param(
                "pkg/main.py",
                'class Runner:\n    def run(self):\n        """Calls target()."""\n',
                id="method-docstring",
            ),
            pytest.param("examples/run.py", "# target()\n", id="comment"),
            pytest.param(
                "pkg/main.py",
                "import pkg.core\n\npkg.core.target = None\n",
                id="attribute-write",
            ),
            pytest.param(
                "pkg/tests/test_core.py",
                "from pkg.core import target\n\ntarget()\n",
                id="package-tests-dir",
            ),
            pytest.param(
                "scripts/run.py",
                "from pkg.core import target\n\ntarget()\n",
                id="dir-outside-the-roots",
            ),
        ],
    )
    def test_a_reference_that_is_not_a_use_leaves_the_name_reported(
        self, tmp_path, path, source
    ):
        assert "target" in _u1_lines(tmp_path, {**_TARGET_FUNCTION, path: source})


class TestU1Robustness:
    def test_files_that_do_not_parse_are_skipped(self, tmp_path):
        assert _u1(
            tmp_path,
            {
                "pkg/core.py": "def used():\n    pass\n\n\ndef unused():\n    pass\n",
                "pkg/broken.py": "def unused(:\n",
                "examples/run.py": "from pkg.core import used\n\nused()\n",
                "examples/broken.py": "unused(\n",
            },
        ) == ["unused"]

    def test_missing_package_and_reference_dirs_report_nothing(self, tmp_path):
        assert find_unused_names(tmp_path / "pkg", [tmp_path / "examples"]) == []
