"""Values that only one setting served are constants, not options.

Each case names one former field or keyword parameter: the constant that
replaced it must keep the old default (so no report moves), and the old
keyword must be refused rather than silently ignored.  The two types that
only carried such values, ``LintConfig`` and ``ValueSizeSpec``, are gone.
"""

import pytest

import repro.lint.model
import repro.workload
from repro.adapters import redis_cluster
from repro.adapters.redis_cluster import RedisClusterParameters
from repro.chaos import plans
from repro.chaos.plans import ChaosPlan, partition_flap
from repro.chaos.scenario import ChaosScenario
from repro.chaos.specs import PartitionGroups
from repro.cluster.scenarios import ElectionScenario
from repro.common.config import ScaParameters
from repro.escape import ppf
from repro.escape.ppf import ProbingPatrol
from repro.lint import rules_ast
from repro.lint.engine import lint_file, lint_paths
from repro.workload import driver
from repro.workload.specs import WorkloadSpec


def _election(**kwargs):
    return ElectionScenario("raft", 3, **kwargs)


def _chaos(**kwargs):
    return ChaosScenario("raft", 3, plan=ChaosPlan("p", 1_000.0), **kwargs)


def _patrol(**kwargs):
    return ProbingPatrol(1, (2, 3), 3, ScaParameters(1500.0, 500.0), **kwargs)


def _flap_partitions():
    return [e for e in partition_flap().events if isinstance(e, PartitionGroups)]


#: The constant each retired value became, read as callers now see it, and
#: the default the field or keyword had.
CONSTANTS = {
    "Scenario.stabilize_ms": (lambda: _election().stabilize_ms, 120_000.0),
    "ElectionScenario.pre_crash_ms": (lambda: _election().pre_crash_ms, 2_000.0),
    "ElectionScenario.max_election_ms": (
        lambda: _election().max_election_ms,
        120_000.0,
    ),
    "WindowedScenario.preserve_quorum": (lambda: _chaos().preserve_quorum, True),
    "RedisClusterParameters.voting_masters": (lambda: redis_cluster.VOTING_MASTERS, 5),
    "RedisClusterParameters.base_delay_ms": (
        lambda: redis_cluster.BASE_DELAY_MS,
        500.0,
    ),
    "RedisClusterParameters.jitter_ms": (lambda: redis_cluster.JITTER_MS, 500.0),
    "RedisClusterParameters.rank_step_ms": (
        lambda: redis_cluster.RANK_STEP_MS,
        1_000.0,
    ),
    "RedisClusterParameters.vote_rtt_ms": (lambda: redis_cluster.VOTE_RTT_MS, 150.0),
    "RedisClusterParameters.retry_timeout_ms": (
        lambda: redis_cluster.RETRY_TIMEOUT_MS,
        2_000.0,
    ),
    "RedisClusterParameters.max_attempts": (lambda: redis_cluster.MAX_ATTEMPTS, 20),
    "LintConfig.wall_clock_allowed": (
        lambda: rules_ast._WALL_CLOCK_ALLOWED,
        ("repro/adapters/", "repro/obs/profiling.py", "repro/obs/progress.py"),
    ),
    "LintConfig.rng_construction_allowed": (
        lambda: rules_ast._RNG_CONSTRUCTION_ALLOWED,
        ("repro/common/rng.py",),
    ),
    "LintConfig.derivation_helpers": (
        lambda: rules_ast._DERIVATION_HELPERS,
        ("derive_seed", "derive_run_seed"),
    ),
    "LintConfig.set_iteration_scope": (
        lambda: rules_ast._SET_ITERATION_SCOPE,
        (
            "repro/sim/",
            "repro/net/",
            "repro/raft/",
            "repro/escape/",
            "repro/chaos/",
            "repro/cluster/",
            "repro/zraft/",
        ),
    ),
    "ProbingPatrol.lag_entries_threshold": (lambda: ppf.LAG_ENTRIES_THRESHOLD, 2),
    "repeated_leader_kill.jitter_ms": (lambda: plans.KILL_JITTER_MS, 2_000.0),
    "rolling_restart.jitter_ms": (lambda: plans.RESTART_JITTER_MS, 1_000.0),
    "partition_flap.jitter_ms": (lambda: plans.FLAP_JITTER_MS, 2_000.0),
    "partition_flap.group_count": (
        lambda: {event.group_count for event in _flap_partitions()},
        {2},
    ),
    "partition_flap.isolate_leader": (
        lambda: {event.isolate_leader for event in _flap_partitions()},
        {True},
    ),
    "WorkloadSpec.request_timeout_ms": (lambda: driver.REQUEST_TIMEOUT_MS, 4_000.0),
    "WorkloadSpec.retry_backoff_ms": (lambda: driver.RETRY_BACKOFF_MS, 50.0),
    "WorkloadSpec.value_size": (lambda: driver.VALUE_SIZE, 16),
}

#: A use of each retired option, and what it raises now.  The name after the
#: last dot is the keyword or type the error must name.
REFUSED = {
    "Scenario.stabilize_ms": (lambda: _election(stabilize_ms=1.0), TypeError),
    "ElectionScenario.pre_crash_ms": (lambda: _election(pre_crash_ms=1.0), TypeError),
    "ElectionScenario.max_election_ms": (
        lambda: _election(max_election_ms=1.0),
        TypeError,
    ),
    "WindowedScenario.preserve_quorum": (
        lambda: _chaos(preserve_quorum=False),
        TypeError,
    ),
    "RedisClusterParameters.voting_masters": (
        lambda: RedisClusterParameters(voting_masters=7),
        TypeError,
    ),
    "RedisClusterParameters.base_delay_ms": (
        lambda: RedisClusterParameters(base_delay_ms=1.0),
        TypeError,
    ),
    "RedisClusterParameters.jitter_ms": (
        lambda: RedisClusterParameters(jitter_ms=1.0),
        TypeError,
    ),
    "RedisClusterParameters.rank_step_ms": (
        lambda: RedisClusterParameters(rank_step_ms=1.0),
        TypeError,
    ),
    "RedisClusterParameters.vote_rtt_ms": (
        lambda: RedisClusterParameters(vote_rtt_ms=1.0),
        TypeError,
    ),
    "RedisClusterParameters.retry_timeout_ms": (
        lambda: RedisClusterParameters(retry_timeout_ms=1.0),
        TypeError,
    ),
    "RedisClusterParameters.max_attempts": (
        lambda: RedisClusterParameters(max_attempts=1),
        TypeError,
    ),
    "repro.lint.model.LintConfig": (
        lambda: repro.lint.model.LintConfig,
        AttributeError,
    ),
    "lint_file.config": (lambda: lint_file(__file__, config=None), TypeError),
    "lint_paths.config": (lambda: lint_paths([__file__], config=None), TypeError),
    "ProbingPatrol.lag_entries_threshold": (
        lambda: _patrol(lag_entries_threshold=5),
        TypeError,
    ),
    "repeated_leader_kill.jitter_ms": (
        lambda: plans.repeated_leader_kill(jitter_ms=0.0),
        TypeError,
    ),
    "rolling_restart.jitter_ms": (
        lambda: plans.rolling_restart(jitter_ms=0.0),
        TypeError,
    ),
    "partition_flap.jitter_ms": (lambda: partition_flap(jitter_ms=0.0), TypeError),
    "partition_flap.group_count": (lambda: partition_flap(group_count=3), TypeError),
    "partition_flap.isolate_leader": (
        lambda: partition_flap(isolate_leader=False),
        TypeError,
    ),
    "WorkloadSpec.request_timeout_ms": (
        lambda: WorkloadSpec(name="w", request_timeout_ms=1.0),
        TypeError,
    ),
    "WorkloadSpec.retry_backoff_ms": (
        lambda: WorkloadSpec(name="w", retry_backoff_ms=1.0),
        TypeError,
    ),
    "WorkloadSpec.value_size": (
        lambda: WorkloadSpec(name="w", value_size=None),
        TypeError,
    ),
    "repro.workload.ValueSizeSpec": (
        lambda: repro.workload.ValueSizeSpec,
        AttributeError,
    ),
}


@pytest.mark.parametrize("name", sorted(CONSTANTS))
def test_the_constant_keeps_the_old_default(name):
    read, old_default = CONSTANTS[name]
    assert read() == old_default


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_the_old_setting_is_refused(name):
    use, error = REFUSED[name]
    with pytest.raises(error, match=name.rsplit(".", 1)[-1]):
        use()
