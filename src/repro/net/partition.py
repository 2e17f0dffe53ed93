"""Network partitions for the simulated network.

A partition groups the membership into disjoint cells; messages only flow
within a cell.  Partitions are used by the churn/ablation experiments and by
tests exercising Raft and ESCAPE safety under network splits (Section II-B
notes that network splits exacerbate split votes).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.common.errors import NetworkError
from repro.common.types import ServerId


class PartitionManager:
    """Tracks the current partitioning of the cluster.

    With no partition installed every pair of servers can communicate.
    """

    def __init__(self, members: Iterable[ServerId]) -> None:
        self._members = frozenset(members)
        if not self._members:
            raise NetworkError("partition manager requires at least one member")
        # Mutated in place (never rebound) so engines can cache the dict:
        # empty means "no partition installed".
        self._cell_of: dict[ServerId, int] = {}

    @property
    def members(self) -> frozenset[ServerId]:
        """The full cluster membership this manager knows about."""
        return self._members

    @property
    def cell_map(self) -> dict[ServerId, int]:
        """The current server -> cell assignment (empty when healed).

        The returned dict's identity is stable for the manager's lifetime --
        :meth:`partition`/:meth:`heal` mutate it in place -- so engine fast
        paths may hold it and test ``if cells and cells[src] != cells[dst]``
        per message instead of calling :meth:`can_communicate`.  Treat it as
        read-only.
        """
        return self._cell_of

    @property
    def is_partitioned(self) -> bool:
        """Whether a partition is currently installed."""
        return bool(self._cell_of)

    def partition(self, *groups: Sequence[ServerId]) -> None:
        """Install a partition consisting of the given disjoint groups.

        Members not named in any group form one extra implicit cell together.

        Raises:
            NetworkError: if a server appears in two groups or is unknown.
        """
        cell_of: dict[ServerId, int] = {}
        for cell_index, group in enumerate(groups):
            for server_id in group:
                if server_id not in self._members:
                    raise NetworkError(f"S{server_id} is not a cluster member")
                if server_id in cell_of:
                    raise NetworkError(f"S{server_id} appears in two partition groups")
                cell_of[server_id] = cell_index
        leftover_cell = len(groups)
        for server_id in sorted(self._members):
            cell_of.setdefault(server_id, leftover_cell)
        self._cell_of.clear()
        self._cell_of.update(cell_of)

    def heal(self) -> None:
        """Remove the current partition; all servers can communicate again."""
        self._cell_of.clear()

    def can_communicate(self, src: ServerId, dst: ServerId) -> bool:  # repro: allow[U1] -- the classic oracle, tests/oracle/network.py
        """Whether a message from *src* can currently reach *dst*."""
        if src not in self._members or dst not in self._members:
            raise NetworkError(f"unknown servers S{src} or S{dst}")
        if not self._cell_of:
            return True
        return self._cell_of[src] == self._cell_of[dst]

    def cell_members(self, server_id: ServerId) -> frozenset[ServerId]:
        """Servers currently reachable from *server_id* (including itself)."""
        if not self._cell_of:
            return self._members
        cell = self._cell_of[server_id]
        return frozenset(
            other for other, other_cell in self._cell_of.items() if other_cell == cell
        )
