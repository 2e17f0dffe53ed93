"""The benchmark ledger's compare gate (``benchmarks/ledger.py``).

The recording half is exercised by the CI ``bench-smoke`` job (it is a
wall-clock measurement and has no place in a deterministic test suite); the
*compare* half is pure logic and is pinned here: direction-aware deltas, the
25% regression threshold, and the non-zero exit code that gates CI.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_LEDGER_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger.py"
_spec = importlib.util.spec_from_file_location("bench_ledger", _LEDGER_PATH)
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)


def _ledger_with(entries):
    return {"schema": 1, "suite": "core", "entries": entries}


def _rate(name, value):
    return {
        "name": name,
        "metric": "episodes_per_s",
        "value": value,
        "unit": "1/s",
        "higher_is_better": True,
    }


def _rss(name, value):
    return {
        "name": name,
        "metric": "parent_max_rss_mb",
        "value": value,
        "unit": "MiB",
        "higher_is_better": False,
    }


class TestCompare:
    def test_identical_ledgers_have_no_regressions(self, capsys):
        base = _ledger_with([_rate("a", 100.0), _rss("b", 2.0)])
        assert ledger.compare(base, base, threshold=0.25) == 0

    def test_rate_drop_beyond_threshold_is_a_regression(self):
        base = _ledger_with([_rate("a", 100.0)])
        worse = _ledger_with([_rate("a", 70.0)])
        assert ledger.compare(base, worse, threshold=0.25) == 1

    def test_rate_drop_within_threshold_passes(self):
        base = _ledger_with([_rate("a", 100.0)])
        slightly_worse = _ledger_with([_rate("a", 80.0)])
        assert ledger.compare(base, slightly_worse, threshold=0.25) == 0

    def test_improvement_is_never_a_regression(self):
        base = _ledger_with([_rate("a", 100.0), _rss("b", 2.0)])
        better = _ledger_with([_rate("a", 400.0), _rss("b", 0.5)])
        assert ledger.compare(base, better, threshold=0.25) == 0

    def test_memory_direction_is_lower_is_better(self):
        base = _ledger_with([_rss("b", 2.0)])
        larger = _ledger_with([_rss("b", 3.0)])
        assert ledger.compare(base, larger, threshold=0.25) == 1

    def test_new_and_missing_entries_are_reported_not_fatal(self, capsys):
        base = _ledger_with([_rate("gone", 10.0)])
        candidate = _ledger_with([_rate("fresh", 10.0)])
        assert ledger.compare(base, candidate, threshold=0.25) == 0
        out = capsys.readouterr().out
        assert "NEW" in out and "MISSING" in out


class TestMainExitCodes:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_regression_exits_one(self, tmp_path):
        base = self._write(tmp_path, "base.json", _ledger_with([_rate("a", 100.0)]))
        bad = self._write(tmp_path, "bad.json", _ledger_with([_rate("a", 10.0)]))
        assert ledger.main(["compare", base, bad]) == 1

    def test_clean_compare_exits_zero(self, tmp_path):
        base = self._write(tmp_path, "base.json", _ledger_with([_rate("a", 100.0)]))
        assert ledger.main(["compare", base, base]) == 0

    def test_suite_mismatch_exits_two(self, tmp_path):
        core = self._write(tmp_path, "core.json", _ledger_with([]))
        experiments = self._write(
            tmp_path,
            "experiments.json",
            {"schema": 1, "suite": "experiments", "entries": []},
        )
        assert ledger.main(["compare", core, experiments]) == 2

    def test_custom_threshold_is_honoured(self, tmp_path):
        base = self._write(tmp_path, "base.json", _ledger_with([_rate("a", 100.0)]))
        dip = self._write(tmp_path, "dip.json", _ledger_with([_rate("a", 90.0)]))
        assert ledger.main(["compare", base, dip]) == 0
        assert ledger.main(["compare", base, dip, "--threshold", "0.05"]) == 1


class TestHelpers:
    def test_second_highest_resists_one_fast_outlier(self):
        assert ledger._second_highest([10.0, 11.0, 99.0]) == 11.0
        assert ledger._second_highest([10.0]) == 10.0

    def test_episode_counts_scale_down_with_size(self):
        assert ledger._episodes_for(16, quick=False) >= ledger._episodes_for(
            256, quick=False
        )
        assert ledger._episodes_for(256, quick=False) >= 2
