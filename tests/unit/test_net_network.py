"""Unit tests for the partition manager.

The networks built on it are covered, on every engine, by
``tests/unit/test_engine_contract.py``.
"""

import pytest

from repro.common.errors import NetworkError
from repro.net.partition import PartitionManager


class TestPartitionManager:
    def test_unnamed_members_form_their_own_cell(self):
        manager = PartitionManager([1, 2, 3, 4])
        manager.partition([1, 2])
        assert manager.can_communicate(1, 2)
        assert manager.can_communicate(3, 4)
        assert not manager.can_communicate(1, 3)
        assert manager.cell_members(3) == frozenset({3, 4})

    def test_duplicate_membership_rejected(self):
        manager = PartitionManager([1, 2, 3])
        with pytest.raises(NetworkError):
            manager.partition([1, 2], [2, 3])

    def test_unknown_member_rejected(self):
        manager = PartitionManager([1, 2])
        with pytest.raises(NetworkError):
            manager.partition([1, 9])
        with pytest.raises(NetworkError):
            manager.can_communicate(1, 9)

    def test_no_partition_means_full_connectivity(self):
        manager = PartitionManager([1, 2, 3])
        assert not manager.is_partitioned
        assert manager.can_communicate(1, 3)
        assert manager.cell_members(2) == frozenset({1, 2, 3})
