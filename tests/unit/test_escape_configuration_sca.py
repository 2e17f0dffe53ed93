"""Unit tests for ESCAPE configurations and the stochastic configuration assignment."""

import itertools
import math

import pytest

from repro.common.config import ScaParameters
from repro.common.errors import ConfigurationError
from repro.common.validation import require_non_negative, require_positive
from repro.escape.configuration import Configuration
from repro.escape.sca import (
    assign_initial_configurations,
    follower_priority_ladder,
    validate_assignment,
)


class TestConfiguration:
    def test_fields_are_validated(self):
        with pytest.raises(ConfigurationError):
            Configuration(priority=0, timer_period_ms=100.0)
        with pytest.raises(ConfigurationError):
            Configuration(priority=1, timer_period_ms=0.0)
        with pytest.raises(ConfigurationError):
            Configuration(priority=1, timer_period_ms=100.0, conf_clock=-1)

    def test_describe_uses_paper_notation(self):
        config = Configuration(priority=3, timer_period_ms=2_000.0, conf_clock=17)
        assert config.describe() == "π(P=3, k=17, timeout=2000ms)"

    @pytest.mark.parametrize(
        "cls, checks",
        [
            (
                Configuration,
                (
                    (require_positive, "priority"),
                    (require_positive, "timer_period_ms"),
                    (require_non_negative, "conf_clock"),
                ),
            ),
        ],
    )
    def test_validation_raises_what_the_helpers_raise_in_field_order(self, cls, checks):
        """The chained success test must fail exactly when a helper would."""
        bad_values = (-1, 0, -0.0, 0.5, math.nan, -math.inf, math.inf)
        for values in itertools.product(bad_values + (3,), repeat=3):
            expected = None
            for (check, name), value in zip(checks, values):
                try:
                    check(value, name)
                except ConfigurationError as exc:
                    expected = str(exc)
                    break
            if expected is None:
                assert [getattr(cls(*values), name) for _, name in checks] == list(values)
            else:
                with pytest.raises(ConfigurationError) as raised:
                    cls(*values)
                assert str(raised.value) == expected


class TestInitialAssignment:
    def test_priority_equals_server_id(self):
        configs = assign_initial_configurations([1, 2, 3, 4, 5], ScaParameters(100.0, 10.0))
        assert {sid: config.priority for sid, config in configs.items()} == {
            1: 1, 2: 2, 3: 3, 4: 4, 5: 5,
        }

    def test_timeouts_follow_equation_one(self):
        # Paper example: n=10, baseTime=100, k=10 -> S2: 180ms, S10: 100ms.
        configs = assign_initial_configurations(
            list(range(1, 11)), ScaParameters(100.0, 10.0)
        )
        assert configs[2].timer_period_ms == 180.0
        assert configs[10].timer_period_ms == 100.0

    def test_all_initial_clocks_are_zero(self):
        configs = assign_initial_configurations([1, 2, 3], ScaParameters(100.0, 10.0))
        assert all(config.conf_clock == 0 for config in configs.values())

    def test_no_two_servers_share_a_configuration(self):
        configs = assign_initial_configurations(
            list(range(1, 33)), ScaParameters(1500.0, 500.0)
        )
        priorities = [config.priority for config in configs.values()]
        timeouts = [config.timer_period_ms for config in configs.values()]
        assert len(set(priorities)) == 32
        assert len(set(timeouts)) == 32
        validate_assignment(configs)

    def test_rejects_duplicate_or_out_of_range_ids(self):
        with pytest.raises(ConfigurationError):
            assign_initial_configurations([1, 1, 2], ScaParameters())
        with pytest.raises(ConfigurationError):
            assign_initial_configurations([1, 2, 7], ScaParameters())
        with pytest.raises(ConfigurationError):
            assign_initial_configurations([], ScaParameters())


class TestPriorityLadder:
    def test_ladder_covers_priorities_n_down_to_two(self):
        assert follower_priority_ladder(5) == [5, 4, 3, 2]

    def test_ladder_length_matches_follower_count(self):
        for n in (2, 8, 128):
            assert len(follower_priority_ladder(n)) == n - 1

    def test_single_server_cluster_has_no_ladder(self):
        with pytest.raises(ConfigurationError):
            follower_priority_ladder(1)


class TestValidateAssignment:
    def test_accepts_unique_configurations(self):
        validate_assignment(
            {
                1: Configuration(priority=2, timer_period_ms=100.0, conf_clock=3),
                2: Configuration(priority=3, timer_period_ms=90.0, conf_clock=3),
            }
        )

    def test_rejects_duplicate_priority_at_same_clock(self):
        # Lemma 3: two servers must never share a configuration at one clock.
        with pytest.raises(ConfigurationError):
            validate_assignment(
                {
                    1: Configuration(priority=2, timer_period_ms=100.0, conf_clock=3),
                    2: Configuration(priority=2, timer_period_ms=100.0, conf_clock=3),
                }
            )

    def test_same_priority_at_different_clocks_is_allowed(self):
        # Lemma 4: duplicates may exist only across different clocks.
        validate_assignment(
            {
                1: Configuration(priority=2, timer_period_ms=100.0, conf_clock=3),
                2: Configuration(priority=2, timer_period_ms=100.0, conf_clock=4),
            }
        )
