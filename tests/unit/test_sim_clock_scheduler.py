"""Unit tests for the virtual clock.

The schedulers driving it are covered, on every engine, by
``tests/unit/test_engine_contract.py``.
"""

import pytest

from repro.common.errors import SimulationError
from repro.sim.clock import VirtualClock


class TestVirtualClock:
    def test_starts_at_zero_by_default(self):
        assert VirtualClock().now() == 0.0

    def test_advance_to_moves_forward(self):
        clock = VirtualClock()
        clock.advance_to(125.5)
        assert clock.now() == 125.5

    def test_cannot_move_backwards(self):
        clock = VirtualClock(100.0)
        with pytest.raises(SimulationError):
            clock.advance_to(50.0)

    def test_cannot_start_negative(self):
        with pytest.raises(SimulationError):
            VirtualClock(-1.0)
