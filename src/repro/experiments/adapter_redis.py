"""Extension experiment: ESCAPE applied to Redis-Cluster-style failover.

Not a paper figure -- it substantiates the Section IV-C claim that ESCAPE's
"prepare future leaders in advance" idea transfers to other failover
elections.  The sweep compares the stock Redis replica election against the
ESCAPE-groomed variant while the quality of the replicas' rank information
degrades (``rank_confusion``) and vote messages get lost.

The two analytic models of :mod:`repro.adapters.redis_cluster` are the
scenarios themselves (``run(seed)`` is all a sweep cell needs), so the grid,
the seeds, the worker pool and the archive are the ones every figure uses.
"""

from __future__ import annotations

from repro.adapters.redis_cluster import (
    EscapeFailoverModel,
    FailoverSet,
    RedisClusterParameters,
    RedisFailoverModel,
)
from repro.common.errors import ConfigurationError
from repro.experiments.registry import register
from repro.experiments.sweep import (
    Axis,
    Column,
    Derived,
    GridResult,
    PerProtocol,
    RowHeader,
    SweepExperiment,
    Table,
    percent,
)
from repro.metrics.stats import reduction_percent

DEFAULT_CONFUSION_LEVELS: tuple[float, ...] = (0.0, 0.3, 0.6)
DEFAULT_VOTE_LOSS: float = 0.1

#: The compared failover models, by variant name.
MODELS = {"redis": RedisFailoverModel, "escape-redis": EscapeFailoverModel}


def cell_label(confusion: float, variant: str) -> str:
    """Label for one cell, e.g. ``"redis@confusion30"``."""
    return f"{variant}@confusion{int(round(confusion * 100))}"


def scenario(
    confusion: float, variant: str, vote_loss_rate: float, replicas: int
) -> RedisFailoverModel | EscapeFailoverModel:
    """The failover model of one (rank confusion, variant) cell."""
    if variant not in MODELS:
        raise ConfigurationError(
            f"unknown failover variant {variant!r}; variants: {', '.join(MODELS)}"
        )
    return MODELS[variant](
        RedisClusterParameters(
            replicas=replicas, rank_confusion=confusion, vote_loss_rate=vote_loss_rate
        )
    )


def variant_title(variant: str) -> str:
    """The variant's name in the report's column headers."""
    return {"redis": "Redis", "escape-redis": "ESCAPE-Redis"}[variant]


def both_swept(result: GridResult) -> bool:
    """Whether the reduction's two variants are both present."""
    return set(MODELS) <= set(result.axes["variant"])


def escape_reduction(result: GridResult, confusion: float) -> float | None:
    """ESCAPE-variant failover-time reduction vs stock Redis, in percent."""
    stock = result.cell(confusion=confusion, variant="redis").mean_ms()
    groomed = result.cell(confusion=confusion, variant="escape-redis").mean_ms()
    if stock is None or groomed is None:
        return None
    return reduction_percent(stock, groomed)


EXPERIMENT = register(
    SweepExperiment(
        name="adapter-redis",
        title="ESCAPE grooming applied to Redis-Cluster failover",
        paper_ref="Section IV-C (transfer claim)",
        description=(
            "stock Redis replica election vs the ESCAPE-groomed variant "
            "while rank information degrades and votes get lost"
        ),
        default_runs=200,
        axes=(
            Axis("confusion_levels", DEFAULT_CONFUSION_LEVELS, coord="confusion"),
            Axis("variants", tuple(MODELS), coord="variant"),
            Axis("vote_loss_rate", DEFAULT_VOTE_LOSS),
            Axis("replicas", 5),
        ),
        label=cell_label,
        scenario=scenario,
        container=FailoverSet,
        table=Table(
            title=(
                "Adapter — Redis-Cluster replica failover with and without "
                "ESCAPE ({runs} runs per cell)"
            ),
            rows=(RowHeader("confusion", "rank confusion", percent),),
            columns=(
                PerProtocol(
                    (
                        Column("mean (ms)", "mean_ms"),
                        Column("epoch collisions", "collision_rate", "{:.1%}"),
                    ),
                    coord="variant",
                    title=variant_title,
                ),
                Derived("reduction", escape_reduction, when=both_swept),
            ),
        ),
    )
)
