"""Pytest configuration shared by every test module.

Hypothesis runs under the ``tier1`` profile unless the environment variable
``REPRO_HYPOTHESIS_PROFILE`` names another one: ``tier1`` draws the same
examples on every run (``derandomize``) and keeps no example database, so a
tier-1 result is a function of the tree alone.  The scheduled CI job sets
``REPRO_HYPOTHESIS_PROFILE=nightly``: fresh random draws, and more examples
for every test that does not fix its own count.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

HYPOTHESIS_PROFILE_ENV = "REPRO_HYPOTHESIS_PROFILE"

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("nightly", max_examples=500, database=None)
settings.load_profile(os.environ.get(HYPOTHESIS_PROFILE_ENV, "tier1"))

# Make the sibling ``helpers`` module importable from nested test packages.
TESTS_DIR = Path(__file__).parent
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))


@pytest.fixture
def fake_env():
    """A fresh hand-driven node environment."""
    from helpers import FakeEnvironment

    return FakeEnvironment(node_id=1)


@pytest.fixture
def fast_config():
    """A protocol configuration with short, test-friendly timings."""
    from helpers import fast_protocol_config

    return fast_protocol_config()
