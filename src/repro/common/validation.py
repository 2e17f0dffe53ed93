"""Small argument-validation helpers.

These helpers raise :class:`repro.common.errors.ConfigurationError` with a
consistent message format, so configuration mistakes surface early and read
the same everywhere in the library.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TypeVar

from repro.common.errors import ConfigurationError

T = TypeVar("T")
Number = TypeVar("Number", int, float)


def require_positive(value: Number, name: str) -> Number:
    """Return *value* if it is strictly positive, otherwise raise (NaN included)."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return value


def require_non_negative(value: Number, name: str) -> Number:
    """Return *value* if it is zero or positive, otherwise raise (NaN included)."""
    if not value >= 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value!r}")
    return value


def require_in_range(value: Number, low: Number, high: Number, name: str) -> Number:
    """Return *value* if ``low <= value <= high``, otherwise raise."""
    if not (low <= value <= high):
        raise ConfigurationError(
            f"{name} must be within [{low}, {high}], got {value!r}"
        )
    return value


def require_fraction(value: float, name: str) -> float:
    """Return *value* if it is a probability/fraction in ``[0, 1]``."""
    return require_in_range(value, 0.0, 1.0, name)


def require_ordered_pair(low: Number, high: Number, name: str) -> tuple[Number, Number]:
    """Return ``(low, high)`` if ``low <= high``, otherwise raise (NaN included)."""
    if not low <= high:
        raise ConfigurationError(
            f"{name} must be an ordered pair, got ({low!r}, {high!r})"
        )
    return low, high


def require_unique(values: Sequence[T], name: str) -> Sequence[T]:
    """Return *values* if it contains no duplicates, otherwise raise."""
    seen: set[T] = set()
    for value in values:
        if value in seen:
            raise ConfigurationError(f"{name} contains duplicate value {value!r}")
        seen.add(value)
    return values


def require_non_empty(values: Iterable[T], name: str) -> list[T]:
    """Return *values* as a list if it is non-empty, otherwise raise."""
    collected = list(values)
    if not collected:
        raise ConfigurationError(f"{name} must not be empty")
    return collected
