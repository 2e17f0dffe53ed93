"""Fixture tests for the AST determinism rules (D1-D4) and pragmas.

Each rule is proven against a seeded violation written to a temp file: temp
paths have no ``repro`` package component, so they are never allowlisted and
every rule is in scope -- the strictest reading the linter applies to unknown
code.  The D2 case includes the exact shape of the PR 2 ``run_many`` seed
drift (a locally-constructed ``random.Random(seed)`` feeding ``getrandbits``
draws), which is the regression this subsystem exists to prevent.
"""

import textwrap

import pytest

from repro.lint import lint_file
from repro.lint.model import package_relative_path, parse_pragmas


def _lint_source(tmp_path, source, rule_ids=None, name="fixture.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_file(path, rule_ids=rule_ids)


def _ids(findings):
    return [finding.rule_id for finding in findings]


class TestD1WallClock:
    def test_time_time_is_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """\
            import time

            def stamp():
                return time.time()
            """,
        )
        assert _ids(findings) == ["D1"]
        assert findings[0].line == 4
        assert "time.time" in findings[0].message

    @pytest.mark.parametrize(
        "call",
        [
            "time.perf_counter()",
            "datetime.datetime.now()",
            "datetime.date.today()",
            "os.urandom(8)",
            "uuid.uuid4()",
            "secrets.token_hex()",
        ],
    )
    def test_each_entropy_source_is_flagged(self, tmp_path, call):
        findings = _lint_source(tmp_path, f"value = {call}\n")
        assert _ids(findings) == ["D1"]

    def test_module_level_random_draw_is_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """\
            import random

            jitter = random.uniform(0.0, 1.0)
            """,
        )
        assert _ids(findings) == ["D1"]
        assert "global unseeded RNG" in findings[0].message

    def test_from_import_smuggling_is_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path, "from time import perf_counter\n"
        )
        assert _ids(findings) == ["D1"]
        assert "smuggles" in findings[0].message

    def test_clean_code_passes(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """\
            from repro.common.rng import derive_seed

            def seeds(root):
                return derive_seed(root, "fixture")
            """,
        )
        assert findings == []

    @pytest.mark.parametrize("module", ["profiling.py", "progress.py"])
    def test_obs_wall_clock_modules_are_file_allowlisted(self, tmp_path, module):
        # Progress/profiling report wall-clock rates by definition; the
        # allowlist names the two files explicitly.
        path = tmp_path / "repro" / "obs" / module
        path.parent.mkdir(parents=True)
        path.write_text("import time\n\nstamp = time.monotonic()\n")
        assert lint_file(path) == []

    def test_obs_telemetry_stays_under_the_wall_clock_rule(self, tmp_path):
        # The allowlist covers two files, not the repro/obs/ package:
        # telemetry measures simulated facts only.
        path = tmp_path / "repro" / "obs" / "telemetry.py"
        path.parent.mkdir(parents=True)
        path.write_text("import time\n\nstamp = time.monotonic()\n")
        assert _ids(lint_file(path)) == ["D1"]


class TestD2RngConstruction:
    def test_unseeded_random_is_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """\
            import random

            rng = random.Random()
            """,
        )
        assert _ids(findings) == ["D2"]
        assert "unseeded" in findings[0].message

    def test_pr2_run_many_seed_drift_shape_is_flagged(self, tmp_path):
        # The PR 2 regression: run_many derived per-run seeds from a locally
        # constructed Random(seed) instead of the paired derive_run_seed
        # design, so adding a protocol to a sweep shifted every later draw.
        findings = _lint_source(
            tmp_path,
            """\
            import random

            def run_many(seed, runs):
                rng = random.Random(seed)
                return [rng.getrandbits(32) for _ in range(runs)]
            """,
        )
        assert _ids(findings) == ["D2"]
        assert "derivation helpers" in findings[0].message

    @pytest.mark.parametrize(
        "construction",
        [
            "random.Random(derive_seed(0, 'fixture'))",
            "random.Random(derive_run_seed(0, 'raft', 3))",
        ],
    )
    def test_derived_seeds_pass(self, tmp_path, construction):
        findings = _lint_source(
            tmp_path,
            f"""\
            import random

            from repro.common.rng import derive_run_seed, derive_seed

            rng = {construction}
            """,
        )
        assert findings == []


class TestD3SetIteration:
    def test_for_loop_over_set_attribute_is_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """\
            class Cluster:
                def __init__(self, members):
                    self._members = frozenset(members)

                def poll(self):
                    for member in self._members:
                        yield member
            """,
        )
        assert _ids(findings) == ["D3"]
        assert findings[0].line == 6

    def test_comprehension_over_set_is_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """\
            ids = set(range(5))
            ordered = [i * 2 for i in ids]
            """,
        )
        assert _ids(findings) == ["D3"]

    def test_list_of_set_literal_is_flagged(self, tmp_path):
        findings = _lint_source(tmp_path, "order = list({3, 1, 2})\n")
        assert _ids(findings) == ["D3"]

    def test_sorted_iteration_and_membership_pass(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """\
            members = frozenset({3, 1, 2})
            ordered = [m for m in sorted(members)]
            hit = 2 in members
            widened = members | {9}
            still_unordered = {m + 1 for m in members}
            """,
        )
        assert findings == []

    def test_out_of_scope_repro_module_passes(self, tmp_path):
        # metrics/ is not on the simulation path, so D3 does not apply there.
        pkg = tmp_path / "repro" / "metrics"
        pkg.mkdir(parents=True)
        path = pkg / "tables.py"
        path.write_text("rows = list({3, 1, 2})\n", encoding="utf-8")
        assert lint_file(path) == []


class TestD4SimSleep:
    @pytest.mark.parametrize(
        "call", ["time.sleep(1)", "asyncio.sleep(0.1)", "asyncio.wait_for(x, 1)"]
    )
    def test_wall_clock_waits_are_flagged(self, tmp_path, call):
        findings = _lint_source(
            tmp_path,
            f"""\
            import asyncio
            import time

            async def pause(x):
                {call}
            """,
        )
        assert _ids(findings) == ["D4"]

    def test_allowlisted_modules_are_exempt(self, tmp_path):
        pkg = tmp_path / "repro" / "adapters"
        pkg.mkdir(parents=True)
        path = pkg / "loop.py"
        path.write_text(
            "import asyncio\n\nasync def pause():\n    await asyncio.sleep(0.1)\n",
            encoding="utf-8",
        )
        assert lint_file(path) == []


class TestPragmas:
    def test_pragma_silences_exactly_one_rule_on_one_line(self, tmp_path):
        # The flagged line violates D1 (time.time) *and* D2 (ad-hoc seed);
        # allow[D1] must leave the D2 finding standing, and the identical
        # unpragma'd line below keeps both.
        findings = _lint_source(
            tmp_path,
            """\
            import random
            import time

            a = random.Random(time.time())  # repro: allow[D1] fixture
            b = random.Random(time.time())
            """,
        )
        assert _ids(findings) == ["D2", "D1", "D2"]
        assert [f.line for f in findings] == [4, 5, 5]

    def test_pragma_only_applies_to_its_own_line(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """\
            import time
            # repro: allow[D1]
            stamp = time.time()
            """,
        )
        assert _ids(findings) == ["D1"]

    def test_unknown_pragma_id_is_itself_a_finding(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """\
            import time

            stamp = time.time()  # repro: allow[D7]
            """,
        )
        assert _ids(findings) == ["D1", "P1"]
        assert "unknown rule id 'D7'" in findings[1].message

    def test_comma_separated_ids_parse(self):
        pragmas = parse_pragmas("x = 1  # repro: allow[D1, S1] reason\n")
        assert pragmas == {1: frozenset({"D1", "S1"})}

    def test_syntax_error_reports_e1(self, tmp_path):
        findings = _lint_source(tmp_path, "def broken(:\n")
        assert _ids(findings) == ["E1"]


class TestPackageRelativePath:
    def test_finds_last_repro_component(self):
        assert (
            package_relative_path("/root/repo/src/repro/net/faults.py")
            == "repro/net/faults.py"
        )

    def test_outside_package_is_none(self):
        assert package_relative_path("/tmp/pytest-1/fixture.py") is None
