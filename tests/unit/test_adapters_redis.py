"""Unit tests for the Redis-Cluster failover adapter (Section IV-C)."""

import pickle

import pytest

from repro.adapters.redis_cluster import (
    EscapeFailoverModel,
    FailoverSet,
    RedisClusterParameters,
    RedisFailoverModel,
)
from repro.common.errors import ClusterError, ConfigurationError
from repro.common.rng import paired_seeds
from repro.experiments import adapter_redis, run_experiment


def run_many(model, runs, base_seed):
    """*runs* episodes of *model* on the seeds a sweep cell would get."""
    return FailoverSet(
        model.run(seed) for seed in paired_seeds(runs, base_seed, model.variant)
    )


class TestParameters:
    def test_quorum_is_majority_of_voting_masters(self):
        assert RedisClusterParameters(voting_masters=5).quorum == 3
        assert RedisClusterParameters(voting_masters=7).quorum == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RedisClusterParameters(replicas=0)
        with pytest.raises(ConfigurationError):
            RedisClusterParameters(rank_confusion=1.5)
        with pytest.raises(ConfigurationError):
            RedisClusterParameters(vote_loss_rate=-0.1)


class TestStockRedisFailover:
    def test_failover_converges_on_a_single_replica(self):
        model = RedisFailoverModel(RedisClusterParameters())
        measurement = model.run(seed=3)
        assert measurement.converged
        assert measurement.promoted_replica is not None
        assert measurement.failover_ms > 0

    def test_runs_are_deterministic_per_seed(self):
        model = RedisFailoverModel(RedisClusterParameters())
        assert model.run(seed=5) == model.run(seed=5)
        assert model.run(seed=5) != model.run(seed=6)

    def test_rank_confusion_produces_epoch_collisions(self):
        confused = RedisFailoverModel(RedisClusterParameters(rank_confusion=0.8))
        measurements = run_many(confused, runs=100, base_seed=1)
        assert any(m.epoch_collisions > 0 for m in measurements)

    def test_collisions_increase_with_confusion(self):
        def collision_rate(confusion):
            model = RedisFailoverModel(RedisClusterParameters(rank_confusion=confusion))
            return run_many(model, runs=150, base_seed=2).collision_rate()

        assert collision_rate(0.7) > collision_rate(0.0)


class TestEscapeFailover:
    def test_groomed_failover_never_collides(self):
        model = EscapeFailoverModel(RedisClusterParameters(rank_confusion=0.8))
        measurements = run_many(model, runs=100, base_seed=3)
        assert all(m.epoch_collisions == 0 for m in measurements)
        assert all(m.converged for m in measurements)

    def test_freshest_replica_is_promoted(self):
        model = EscapeFailoverModel(RedisClusterParameters())
        measurement = model.run(seed=9)
        # Replica 0 holds the highest groomed priority in the model's schedule.
        assert measurement.promoted_replica == 0
        assert measurement.attempts == 1

    def test_stale_assignments_are_gated_but_failover_still_converges(self):
        model = EscapeFailoverModel(
            RedisClusterParameters(), stale_assignment_rate=1.0
        )
        # Every replica is stale: nothing can be promoted (all gated).
        measurement = model.run(seed=1)
        assert not measurement.converged
        partially_stale = EscapeFailoverModel(
            RedisClusterParameters(), stale_assignment_rate=0.3
        )
        measurements = run_many(partially_stale, runs=50, base_seed=4)
        assert any(m.converged for m in measurements)

    def test_a_stale_rate_outside_the_unit_interval_is_rejected(self):
        with pytest.raises(ConfigurationError, match="stale_assignment_rate"):
            EscapeFailoverModel(RedisClusterParameters(), stale_assignment_rate=1.5)


class TestModelsAreScenarios:
    """A model is the frozen, picklable value a sweep cell runs."""

    @pytest.mark.parametrize("model_type", [RedisFailoverModel, EscapeFailoverModel])
    def test_a_model_is_a_hashable_value_that_survives_the_pool(self, model_type):
        model = model_type(RedisClusterParameters(rank_confusion=0.5))
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model and hash(clone) == hash(model)
        assert repr(clone) == repr(model) and "rank_confusion=0.5" in repr(model)
        assert clone.run(11) == model.run(11)
        # An analytic model runs on no simulation engine.
        assert model.with_engine("classic") is model


class TestComparison:
    """The two variants, compared through :class:`FailoverSet`'s queries."""

    def test_escape_variant_is_at_least_as_fast_and_collision_free(self):
        params = RedisClusterParameters(rank_confusion=0.5)
        stock = run_many(RedisFailoverModel(params), runs=150, base_seed=7)
        groomed = run_many(EscapeFailoverModel(params), runs=150, base_seed=7)
        assert groomed.mean_ms() <= stock.mean_ms()
        assert groomed.p95_ms() <= stock.p95_ms()
        assert groomed.collision_rate() == 0.0 and stock.collision_rate() > 0.0
        assert groomed.convergence_fraction() == stock.convergence_fraction() == 1.0

    def test_nothing_converged_is_none_not_infinity(self):
        all_stale = EscapeFailoverModel(
            RedisClusterParameters(), stale_assignment_rate=1.0
        )
        lost = run_many(all_stale, runs=3, base_seed=1)
        assert lost.convergence_fraction() == 0.0
        assert lost.mean_ms() is None and lost.p95_ms() is None

    def test_an_empty_set_refuses_its_rates(self):
        with pytest.raises(ClusterError, match="no runs"):
            FailoverSet(label="empty").collision_rate()


class TestAdapterExperiment:
    def test_run_and_report(self):
        run = run_experiment(
            "adapter-redis", runs=40, seed=0, confusion_levels=(0.0, 0.5)
        )
        assert run.result.axes == {
            "confusion": (0.0, 0.5),
            "variant": ("redis", "escape-redis"),
        }
        assert list(run.result.by_label)[:2] == [
            "redis@confusion0",
            "escape-redis@confusion0",
        ]
        assert adapter_redis.escape_reduction(run.result, confusion=0.5) >= 0.0
        assert "ESCAPE-Redis mean (ms)" in run.report and "reduction" in run.report

    def test_the_requested_run_count_is_the_run_count(self):
        """No floor: ``--runs 2`` means 2, like every other sweep."""
        run = run_experiment("adapter-redis", runs=2, workers=2)
        assert run.runs == 2 and run.workers == 2
        assert all(len(cell) == 2 for cell in run.result.by_label.values())

    def test_one_variant_alone_drops_the_other_columns_and_the_reduction(self):
        run = run_experiment("adapter-redis", runs=2, variants=("escape-redis",))
        header = run.report.splitlines()[1]
        assert "ESCAPE-Redis mean (ms)" in header
        assert "Redis mean (ms)" not in header.replace("ESCAPE-Redis", "")
        assert "reduction" not in header
        with pytest.raises(ConfigurationError, match="unknown failover variant"):
            run_experiment("adapter-redis", runs=1, variants=("sentinel",))

    def test_a_sweep_where_nothing_converges_renders_dashes(self):
        run = run_experiment(
            "adapter-redis", runs=2, vote_loss_rate=1.0, confusion_levels=(0.0,)
        )
        assert run.report.splitlines()[-1].split() == ["0%", "-", "0.0%", "-", "0.0%", "-"]
