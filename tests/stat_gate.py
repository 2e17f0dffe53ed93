"""A statistical-equivalence gate between two ``--output`` archives.

Byte-identical goldens pin a change that keeps the random stream.  A change
that moves the stream (it removes a draw, or reorders events) is judged on
distributions instead: the parent's and the change's episodes of each panel
cell are two independent samples of the same election-time distribution, or
the change moved a result.

Per cell (an experiment's label present in both archives) three tests run:

* a two-sample Kolmogorov-Smirnov test on ``total_ms``, with the asymptotic
  p-value;
* a bootstrap 95 % interval for the difference of the ``total_ms`` means
  (change minus parent), and the two-sided p-value of "no difference" read
  off the same resamples; the resampling stream is seeded through
  :func:`repro.common.rng.derive_seed`;
* a two-proportion z-test on the ``split_vote`` share.

Holm's step-down correction runs over the three p-values of every cell of
the whole panel, so the panel's family-wise error rate is :data:`ALPHA`.  A
cell passes when none of its three p-values is rejected; the verdict reads
nothing else.  The bootstrap interval is printed for information only: an
interval that leaves out zero can still pass, because its p-value is judged
against Holm's threshold, not against 0.05.  Standard library only.

Run the panel on two checkouts, then compare (from a checkout's root)::

    PYTHONPATH=src python tests/stat_gate.py panel /tmp/parent-panel --seed 1
    PYTHONPATH=src python tests/stat_gate.py panel /tmp/change-panel --seed 2
    PYTHONPATH=src python tests/stat_gate.py compare /tmp/parent-panel /tmp/change-panel

``compare`` prints one row per cell and exits 1 when any cell fails.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import random
import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from repro.common.rng import derive_seed

#: The panel a stream-moving change runs on its parent and on itself:
#: experiment -> parameter overrides.  Figure 3 at its narrowest and its
#: paper-default timeout range; Figure 9 at three scales; Figure 10's three
#: forced-contention phases; Figure 11 at low and high broadcast loss.
PANEL: dict[str, dict[str, object]] = {
    "fig3": {"timeout_ranges": ((1500.0, 1800.0), (1500.0, 3000.0))},
    "fig9": {"sizes": (8, 32, 128)},
    "fig10": {"sizes": (32,), "phases": (1, 2, 3)},
    "fig11": {"sizes": (100,), "loss_rates": (0.1, 0.4)},
}

#: Episodes per cell when the panel is run (the paper's run count is 1000).
PANEL_RUNS = 1000

#: The panel's family-wise error rate.
ALPHA = 0.05


# --------------------------------------------------------------------------- #
# The three tests
# --------------------------------------------------------------------------- #
def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """The two-sample Kolmogorov-Smirnov statistic ``D`` and its asymptotic
    two-sided p-value (the Kolmogorov distribution at ``D * sqrt(nm/(n+m))``).
    Tied values are stepped over together."""
    xs, ys = sorted(a), sorted(b)
    n, m = len(xs), len(ys)
    if not n or not m:
        raise ValueError("both samples must be non-empty")
    d = 0.0
    for value in set(xs) | set(ys):
        d = max(d, abs(bisect.bisect_right(xs, value) / n - bisect.bisect_right(ys, value) / m))
    return d, kolmogorov_sf(d * math.sqrt(n * m / (n + m)))


def kolmogorov_sf(x: float) -> float:
    """``P(K > x)`` for the Kolmogorov distribution:
    ``2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 x^2)``."""
    if x < 0.2:
        return 1.0  # the series converges slowly here, and the value is 1
    total = 0.0
    for k in range(1, 101):
        term = math.exp(-2.0 * k * k * x * x)
        total += term if k % 2 else -term
        if term < 1e-16:
            break
    return min(1.0, max(0.0, 2.0 * total))


def bootstrap_mean_difference(
    a: Sequence[float], b: Sequence[float], seed: int, resamples: int = 2000
) -> tuple[float, tuple[float, float], float]:
    """``mean(b) - mean(a)``, its percentile bootstrap 95 % interval, and the
    two-sided p-value of a zero difference.

    The samples are resampled independently (they are not paired).  The
    p-value is the normal one at the bootstrap standard error: unlike a count
    of resamples beyond zero it has no floor at ``1 / resamples``, which a
    Holm step over a large panel would otherwise never get under.
    """
    rng = random.Random(seed)
    n, m = len(a), len(b)
    observed = sum(b) / m - sum(a) / n
    choices = rng.choices
    diffs = sorted(
        sum(choices(b, k=m)) / m - sum(choices(a, k=n)) / n for _ in range(resamples)
    )
    low = diffs[int(0.025 * (resamples - 1))]
    high = diffs[int(math.ceil(0.975 * (resamples - 1)))]
    spread = statistics.stdev(diffs)
    if spread == 0.0:
        return observed, (low, high), 1.0 if observed == 0.0 else 0.0
    return observed, (low, high), math.erfc(abs(observed) / spread / math.sqrt(2.0))


def two_proportion_test(hits_a: int, n_a: int, hits_b: int, n_b: int) -> float:
    """Two-sided p-value of the pooled two-proportion z-test."""
    pooled = (hits_a + hits_b) / (n_a + n_b)
    if pooled in (0.0, 1.0):
        return 1.0
    z = (hits_b / n_b - hits_a / n_a) / math.sqrt(
        pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b)
    )
    return math.erfc(abs(z) / math.sqrt(2.0))


def holm(p_values: Sequence[float]) -> list[bool]:
    """Holm's step-down procedure: which hypotheses are rejected at
    family-wise error rate :data:`ALPHA`."""
    order = sorted(range(len(p_values)), key=p_values.__getitem__)
    rejected = [False] * len(p_values)
    for rank, index in enumerate(order):
        if p_values[index] > ALPHA / (len(p_values) - rank):
            break
        rejected[index] = True
    return rejected


# --------------------------------------------------------------------------- #
# Archives and the panel verdict
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CellVerdict:
    """The three tests of one cell, parent (``a``) against change (``b``)."""

    experiment: str
    label: str
    n_a: int
    n_b: int
    mean_a: float
    mean_b: float
    ks_d: float
    ks_p: float
    mean_diff: float
    mean_diff_ci: tuple[float, float]
    mean_p: float
    split_a: float
    split_b: float
    split_p: float
    rejected: tuple[bool, bool, bool] = (False, False, False)

    @property
    def passed(self) -> bool:
        return not any(self.rejected)

    @property
    def p_values(self) -> tuple[float, float, float]:
        return (self.ks_p, self.mean_p, self.split_p)


def read_episodes(directory: str | Path) -> dict[str, dict[str, list[dict]]]:
    """``experiment -> label -> episode records`` of every episode archive
    (``<name>.json`` with ``export_kind == "episodes"``) in *directory*."""
    archives = {}
    for path in sorted(Path(directory).glob("*.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        if document.get("metadata", {}).get("export_kind") == "episodes":
            archives[path.stem] = document["cells"]
    return archives


def compare_cell(
    experiment: str, label: str, a: list[dict], b: list[dict], resamples: int
) -> CellVerdict:
    totals_a = [float(record["total_ms"]) for record in a]
    totals_b = [float(record["total_ms"]) for record in b]
    splits_a = sum(bool(record["split_vote"]) for record in a)
    splits_b = sum(bool(record["split_vote"]) for record in b)
    ks_d, ks_p = ks_two_sample(totals_a, totals_b)
    diff, interval, mean_p = bootstrap_mean_difference(
        totals_a,
        totals_b,
        derive_seed(0, "stat-gate", "bootstrap", experiment, label),
        resamples,
    )
    return CellVerdict(
        experiment=experiment,
        label=label,
        n_a=len(a),
        n_b=len(b),
        mean_a=sum(totals_a) / len(a),
        mean_b=sum(totals_b) / len(b),
        ks_d=ks_d,
        ks_p=ks_p,
        mean_diff=diff,
        mean_diff_ci=interval,
        mean_p=mean_p,
        split_a=splits_a / len(a),
        split_b=splits_b / len(b),
        split_p=two_proportion_test(splits_a, len(a), splits_b, len(b)),
    )


def compare_archives(
    parent: str | Path,
    change: str | Path,
    *,
    resamples: int = 2000,
) -> list[CellVerdict]:
    """Every cell the two archive directories share, judged as one panel.

    Raises:
        ValueError: when the directories do not hold the same experiments
            and labels, or hold none.
    """
    archives_a, archives_b = read_episodes(parent), read_episodes(change)
    if not archives_a or archives_a.keys() != archives_b.keys():
        raise ValueError(
            f"archives differ in experiments: {sorted(archives_a)} vs {sorted(archives_b)}"
        )
    cells = []
    for experiment, by_label in archives_a.items():
        if by_label.keys() != archives_b[experiment].keys():
            raise ValueError(f"{experiment}: the archives differ in labels")
        for label, records in by_label.items():
            cells.append(
                compare_cell(
                    experiment, label, records, archives_b[experiment][label], resamples
                )
            )
    flat = [p for cell in cells for p in cell.p_values]
    rejected = holm(flat)
    return [
        replace(cell, rejected=tuple(rejected[3 * index : 3 * index + 3]))
        for index, cell in enumerate(cells)
    ]


def render(cells: Sequence[CellVerdict]) -> str:
    """The verdict table, as Markdown."""
    lines = [
        f"Holm over {3 * len(cells)} tests at alpha = {ALPHA}; "
        "a = parent, b = change; * = rejected",
        "the verdict reads only the Holm-adjusted p-values (KS p, mean p, "
        "split p); the 95 % interval is for information",
        "",
        "| cell | n a/b | mean ms a → b | Δ mean [95 % CI] | KS D (p) "
        "| mean p | split a → b (p) | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for cell in cells:
        ks, mean, split = ("*" if flag else "" for flag in cell.rejected)
        low, high = cell.mean_diff_ci
        lines.append(
            f"| {cell.experiment} {cell.label} | {cell.n_a}/{cell.n_b} "
            f"| {cell.mean_a:.0f} → {cell.mean_b:.0f} "
            f"| {cell.mean_diff:+.0f} [{low:+.0f}, {high:+.0f}] "
            f"| {cell.ks_d:.3f} ({cell.ks_p:.3g}){ks} | {cell.mean_p:.3g}{mean} "
            f"| {cell.split_a:.3f} → {cell.split_b:.3f} ({cell.split_p:.3g}){split} "
            f"| {'pass' if cell.passed else 'FAIL'} |"
        )
    verdict = "PASS" if all(cell.passed for cell in cells) else "FAIL"
    lines += ["", f"panel: {verdict}"]
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------------- #
def run_panel(output: str | Path, seed: int, workers: int) -> None:
    """Run every :data:`PANEL` experiment and archive it into *output*."""
    from repro.experiments import run_experiment
    from repro.experiments.export import save_run

    for name, overrides in PANEL.items():
        run = run_experiment(name, runs=PANEL_RUNS, seed=seed, workers=workers, **overrides)
        save_run(run, output)
        print(f"{name}: archived {len(run.result.by_label)} cells", flush=True)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="stat_gate", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    panel = commands.add_parser("panel", help="run the panel into an archive directory")
    panel.add_argument("output")
    panel.add_argument("--seed", type=int, default=0)
    panel.add_argument("--workers", type=int, default=2)
    compare = commands.add_parser("compare", help="judge two archive directories")
    compare.add_argument("parent")
    compare.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "panel":
        run_panel(args.output, args.seed, args.workers)
        return 0
    cells = compare_archives(args.parent, args.change)
    print(render(cells))
    return 0 if all(cell.passed for cell in cells) else 1


if __name__ == "__main__":
    sys.exit(main())
