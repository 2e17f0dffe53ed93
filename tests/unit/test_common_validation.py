"""Unit tests for repro.common.validation."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.validation import (
    require_fraction,
    require_in_range,
    require_non_empty,
    require_non_negative,
    require_ordered_pair,
    require_positive,
    require_unique,
)


class TestRequirePositive:
    def test_returns_value_when_positive(self):
        assert require_positive(5, "x") == 5
        assert require_positive(0.1, "x") == 0.1

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ConfigurationError, match="x must be positive"):
            require_positive(0, "x")
        with pytest.raises(ConfigurationError):
            require_positive(-1.5, "x")


class TestRequireNonNegative:
    def test_accepts_zero(self):
        assert require_non_negative(0, "x") == 0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            require_non_negative(-0.001, "x")


class TestRequireInRange:
    def test_accepts_bounds_inclusively(self):
        assert require_in_range(1, 1, 10, "x") == 1
        assert require_in_range(10, 1, 10, "x") == 10

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError, match=r"\[1, 10\]"):
            require_in_range(11, 1, 10, "x")


class TestRequireFraction:
    def test_accepts_probabilities(self):
        assert require_fraction(0.0, "p") == 0.0
        assert require_fraction(1.0, "p") == 1.0

    def test_rejects_values_outside_unit_interval(self):
        with pytest.raises(ConfigurationError):
            require_fraction(1.2, "p")


class TestRequireOrderedPair:
    def test_accepts_equal_and_increasing(self):
        assert require_ordered_pair(1, 1, "pair") == (1, 1)
        assert require_ordered_pair(1, 2, "pair") == (1, 2)

    def test_rejects_decreasing(self):
        with pytest.raises(ConfigurationError, match="ordered pair"):
            require_ordered_pair(3, 2, "pair")


class TestNotANumber:
    """``nan`` compares false with everything, so every helper must refuse it
    explicitly -- or the run dies much later, scheduling at a non-finite time."""

    NAN = float("nan")

    def test_no_range_helper_lets_nan_through(self):
        for check in (require_positive, require_non_negative, require_fraction):
            with pytest.raises(ConfigurationError, match="x must be"):
                check(self.NAN, "x")
        with pytest.raises(ConfigurationError, match=r"\[1, 10\]"):
            require_in_range(self.NAN, 1, 10, "x")

    @pytest.mark.parametrize("pair", [(NAN, 1.0), (1.0, NAN), (NAN, NAN)])
    def test_no_ordered_pair_contains_nan(self, pair):
        with pytest.raises(ConfigurationError, match="ordered pair"):
            require_ordered_pair(*pair, "pair")

    def test_the_models_that_use_them_refuse_nan(self):
        from repro.common.config import RaftTimeoutConfig
        from repro.net.latency import UniformLatency

        with pytest.raises(ConfigurationError):
            UniformLatency(self.NAN, 200.0)
        with pytest.raises(ConfigurationError):
            RaftTimeoutConfig(self.NAN, self.NAN)


class TestRequireUnique:
    def test_accepts_unique_values(self):
        assert list(require_unique([1, 2, 3], "ids")) == [1, 2, 3]

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            require_unique([1, 2, 1], "ids")


class TestRequireNonEmpty:
    def test_returns_list_copy(self):
        assert require_non_empty((1, 2), "xs") == [1, 2]

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError, match="must not be empty"):
            require_non_empty([], "xs")
