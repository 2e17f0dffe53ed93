"""The statistical-equivalence gate (``tests/stat_gate.py``): its three tests,
Holm's correction, and its calibration on real episodes.

Calibration, on small n: the gate must pass two disjoint seed blocks of one
scenario (A/A) and must fail a known small change.  The change is Raft's
one-way latency 100-200 ms against 100-230 ms at five servers with Figure 3's
narrowest timeout range (1500-1800 ms), where the longer round trip makes
split votes more likely.  At the paper's default range the same shift moves
the mean election time by about 2 % of its spread, which 1000 episodes cannot
see.  Blocks are ``run_many`` base seeds 1 (A) and 2 (B and the shift).
Checked on five other block pairs before pinning: the shift was rejected in
all five; one A/A pair of the five was rejected (KS p = 0.015), which is the
rate ``ALPHA = 0.05`` allows.

Re-measured when the harness began bootstrapping the first leader (which
moves every Raft episode's random stream): over 30 disjoint block pairs
(base seeds 1/2 ... 59/60) at 1,000 episodes, the shift was detected in
29 of 30 both before and after, and blocks 1/2 were the miss after (KS
p = 0.022, which Holm does not reject).  At 2,000 episodes the shift was
detected in 10 of 10 pairs on both trees, blocks 1/2 at KS p = 4e-5 with
their A/A pair passing (KS p = 0.19); so the blocks grew, the seeds did not
move.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from stat_gate import (
    PANEL,
    bootstrap_mean_difference,
    compare_archives,
    holm,
    kolmogorov_sf,
    ks_two_sample,
    main,
    render,
    two_proportion_test,
)

from repro.cluster.scenarios import ElectionScenario
from repro.experiments import registry
from repro.experiments.export import write_measurements_json
from repro.net.latency import UniformLatency

EPISODES = 2000
LABEL = "1500-1800"


class TestTheThreeTests:
    def test_ks_statistic_on_hand_computed_samples(self):
        # ECDFs of [1, 2, 3] and [2, 3, 4, 5] differ by 1/3, 5/12 and 1/2 at
        # 1, 2 and 3, and less after.
        d, p = ks_two_sample([1, 2, 3], [2, 3, 4, 5])
        assert d == pytest.approx(1 / 2)
        assert p == pytest.approx(kolmogorov_sf(1 / 2 * math.sqrt(12 / 7)))

    def test_ks_of_identical_samples_is_zero(self):
        assert ks_two_sample([3.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == (0.0, 1.0)

    def test_ks_steps_over_ties_together(self):
        d, _ = ks_two_sample([1.0, 1.0, 2.0], [1.0, 2.0, 2.0])
        assert d == pytest.approx(1 / 3)

    @pytest.mark.parametrize(
        "x, expected", [(1.36, 0.0494), (1.63, 0.0098), (1.0, 0.2700), (0.5, 0.9639)]
    )
    def test_kolmogorov_tail_matches_its_table(self, x, expected):
        assert kolmogorov_sf(x) == pytest.approx(expected, abs=5e-4)

    def test_two_proportions(self):
        assert two_proportion_test(30, 100, 30, 100) == pytest.approx(1.0)
        # 0.5 vs 0.6 at n = 100 each: pooled 0.55, z = 0.1 / 0.07036.
        assert two_proportion_test(50, 100, 60, 100) == pytest.approx(
            math.erfc(0.1 / math.sqrt(0.55 * 0.45 * 0.02) / math.sqrt(2))
        )
        assert two_proportion_test(0, 10, 0, 20) == 1.0

    def test_bootstrap_is_seeded_and_brackets_the_difference(self):
        chooser = random.Random(5)
        a = [chooser.gauss(100.0, 10.0) for _ in range(200)]
        b = [chooser.gauss(110.0, 10.0) for _ in range(150)]
        first = bootstrap_mean_difference(a, b, seed=9, resamples=500)
        assert first == bootstrap_mean_difference(a, b, seed=9, resamples=500)
        assert first != bootstrap_mean_difference(a, b, seed=10, resamples=500)
        diff, (low, high), p = first
        assert diff == pytest.approx(sum(b) / len(b) - sum(a) / len(a))
        assert low < diff < high and low > 0.0
        assert p < 1e-6

    def test_holm_steps_down_and_stops_at_the_first_survivor(self):
        # Thresholds 0.05/4, 0.05/3, 0.05/2, 0.05 against the sorted p-values.
        assert holm([0.01, 0.04, 0.012, 0.03]) == [True, False, True, False]
        assert holm([0.2, 0.001]) == [False, True]
        assert holm([]) == []


def _episodes(base_seed: int, high_ms: float) -> list:
    scenario = ElectionScenario(
        "raft",
        5,
        raft_timeout_range=(1500.0, 1800.0),
        latency=UniformLatency(100.0, high_ms),
    )
    return scenario.run_many(EPISODES, base_seed)


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """Three one-cell ``fig3``-shaped archives: block A, block B, and block B
    with the longer latency."""
    blocks = {"a": (1, 200.0), "b": (2, 200.0), "shift": (2, 230.0)}
    paths = {}
    for name, (base_seed, high_ms) in blocks.items():
        paths[name] = tmp_path_factory.mktemp(name)
        write_measurements_json(
            paths[name] / "fig3.json",
            {LABEL: _episodes(base_seed, high_ms)},
            {"export_kind": "episodes"},
        )
    return paths


class TestCalibration:
    def test_two_disjoint_seed_blocks_pass(self, archives):
        (cell,) = compare_archives(archives["a"], archives["b"], resamples=1000)
        assert (cell.experiment, cell.label, cell.n_a, cell.n_b) == (
            "fig3",
            LABEL,
            EPISODES,
            EPISODES,
        )
        assert cell.passed, render([cell])

    def test_a_known_small_latency_shift_fails(self, archives):
        (cell,) = compare_archives(archives["a"], archives["shift"], resamples=1000)
        assert not cell.passed, render([cell])
        assert cell.mean_b > cell.mean_a and cell.split_b > cell.split_a

    def test_the_command_line_exits_nonzero_on_a_failing_panel(self, archives, capsys):
        assert main(["compare", str(archives["a"]), str(archives["b"])]) == 0
        assert "panel: PASS" in capsys.readouterr().out
        assert main(["compare", str(archives["a"]), str(archives["shift"])]) == 1
        assert "panel: FAIL" in capsys.readouterr().out


class TestArchives:
    def test_archives_must_hold_the_same_cells(self, archives, tmp_path):
        write_measurements_json(
            tmp_path / "fig3.json", {"other": []}, {"export_kind": "episodes"}
        )
        with pytest.raises(ValueError, match="labels"):
            compare_archives(archives["a"], tmp_path)
        with pytest.raises(ValueError, match="experiments"):
            compare_archives(archives["a"], tmp_path / "missing")

    def test_row_archives_are_not_cells(self, archives, tmp_path):
        (tmp_path / "fig3.json").write_text(
            (archives["b"] / "fig3.json").read_text(encoding="utf-8"), encoding="utf-8"
        )
        (tmp_path / "throughput.json").write_text(
            json.dumps({"metadata": {"export_kind": "rows"}, "cells": []}),
            encoding="utf-8",
        )
        assert len(compare_archives(archives["a"], tmp_path, resamples=50)) == 1

    def test_the_panel_builds_twenty_cells(self):
        cells = {}
        for name, overrides in PANEL.items():
            spec = registry.get(name)
            _, _, scenarios = spec.build(spec.resolved_params(**overrides), 0)
            cells[name] = len(scenarios)
        assert cells == {"fig3": 2, "fig9": 6, "fig10": 6, "fig11": 6}
