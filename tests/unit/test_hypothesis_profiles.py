"""Tier-1 is a pure function of the tree: Hypothesis draws fixed examples.

``tests/conftest.py`` loads the ``tier1`` profile unless
``REPRO_HYPOTHESIS_PROFILE`` names another (the scheduled ``nightly`` job).
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

HYPOTHESIS_PROFILE_ENV = "REPRO_HYPOTHESIS_PROFILE"


def test_the_tier1_profile_is_derandomized_without_an_example_database():
    tier1 = settings.get_profile("tier1")
    assert tier1.derandomize is True
    assert tier1.database is None


def test_nightly_draws_at_random_and_draws_more():
    nightly = settings.get_profile("nightly")
    assert nightly.derandomize is False
    assert nightly.max_examples > settings.get_profile("tier1").max_examples


def test_tier1_runs_under_the_tier1_profile():
    if os.environ.get(HYPOTHESIS_PROFILE_ENV, "tier1") != "tier1":
        return  # the nightly job chose another profile on purpose
    assert settings.default.derandomize is True
    assert settings.default.database is None


drawn: list[int] = []


@given(st.integers())
def _record_draw(value):
    drawn.append(value)


def test_two_runs_of_one_test_draw_the_same_examples():
    if os.environ.get(HYPOTHESIS_PROFILE_ENV, "tier1") != "tier1":
        return
    _record_draw()
    first = list(drawn)
    drawn.clear()
    _record_draw()
    assert drawn == first and first
