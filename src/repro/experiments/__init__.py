"""Experiment harness: a plugin registry of the paper's evaluation figures.

Every module under this package declares one experiment and registers it with
:mod:`repro.experiments.registry`.  Every experiment -- each paper figure and
each extension -- is a frozen
:class:`~repro.experiments.sweep.SweepExperiment` (axes, a label and a
scenario function, a container, a report table) from which its run, result
(:class:`~repro.experiments.sweep.GridResult`), capabilities and archive are
derived.  The registry is the single source of truth for "which experiments
exist": the CLI (``python -m repro.experiments``), ``--output DIR`` and the
registry table embedded in EXPERIMENTS.md are all generated from it.

Programmatic use goes through one entry point::

    from repro.experiments import run_experiment

    run = run_experiment("fig9", runs=100, workers=0)
    print(run.report)          # the table the CLI prints
    run.result                 # the GridResult: cell(protocol=..., size=...)
    run.elapsed_s, run.seed    # run metadata

All sweeps execute through the parallel engine in
:mod:`repro.experiments.runner`: pass ``workers=N`` (or ``--workers N`` on
the CLI) to fan the episodes out over N processes with bit-for-bit identical
results.

See EXPERIMENTS.md for the registry table and the paper-vs-measured
comparison, and ``python -m repro.experiments --list`` for the live registry.
"""

# Importing an experiment module registers its declaration; the import order below
# is the registration order, which the CLI surfaces as its choice order
# (paper figures first, then the extension experiments and ablations).
from repro.experiments import fig03_randomization
from repro.experiments import fig04_randomization_average
from repro.experiments import fig09_scale
from repro.experiments import fig09_xl_scale
from repro.experiments import fig10_competing_candidates
from repro.experiments import fig11_message_loss
from repro.experiments import exp_wan
from repro.experiments import exp_availability
from repro.experiments import exp_throughput
from repro.experiments import ablation_ppf
from repro.experiments import ablation_k_sweep
from repro.experiments import adapter_redis
from repro.experiments import registry
from repro.experiments.registry import run_experiment
from repro.experiments.spec import ExperimentRun
from repro.experiments.sweep import GridResult, SweepExperiment

__all__ = [
    "ExperimentRun",
    "GridResult",
    "SweepExperiment",
    "ablation_k_sweep",
    "ablation_ppf",
    "adapter_redis",
    "exp_availability",
    "exp_throughput",
    "exp_wan",
    "fig03_randomization",
    "fig04_randomization_average",
    "fig09_scale",
    "fig09_xl_scale",
    "fig10_competing_candidates",
    "fig11_message_loss",
    "registry",
    "run_experiment",
]
