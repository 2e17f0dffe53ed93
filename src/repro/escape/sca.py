"""Stochastic Configuration Assignment (SCA, Section IV-A).

When a server joins the system it adopts a unique priority -- ESCAPE simply
uses the server identifier, so ``P_i = i`` -- and derives its election timeout
from Eq. 1::

    period_i = baseTime + k * (n - P_i)

The highest-priority server therefore has the shortest timeout.  These initial
configurations carry configuration clock 0; the Probing Patrol Function
(:mod:`repro.escape.ppf`) re-stamps and re-distributes them once a leader is
running.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

from repro.common.config import ScaParameters
from repro.common.errors import ConfigurationError
from repro.common.types import ServerId
from repro.common.validation import require_non_empty, require_unique
from repro.escape.configuration import Configuration


def joining_configuration(
    server_id: ServerId,
    cluster_size: int,
    params: ScaParameters,
) -> Configuration:
    """One joining server's initial configuration per SCA (Eq. 1).

    The server needs nothing but its own identifier: ``P_i = i`` and
    ``period_i = baseTime + k * (n - P_i)``, stamped with configuration
    clock 0.

    Every node of a cluster asks, so the cluster's configurations are derived
    and validated once per distinct ``(cluster_size, params)`` (they are
    frozen values, which clusters of that size and parameters share).

    Raises:
        ConfigurationError: if the identifier lies outside ``[1, n]``.
    """
    if not 1 <= server_id <= cluster_size:
        raise ConfigurationError(
            f"server id {server_id} is outside [1, {cluster_size}]; "
            "SCA uses ids as priorities"
        )
    return _joining_configurations(cluster_size, params)[server_id - 1]


@lru_cache(maxsize=32)
def _joining_configurations(
    cluster_size: int, params: ScaParameters
) -> tuple[Configuration, ...]:
    """Every joining configuration of a *cluster_size* cluster, S1's first."""
    return tuple(
        Configuration(priority, params.election_timeout_ms(priority, cluster_size), 0)
        for priority in range(1, cluster_size + 1)
    )


def assign_initial_configurations(
    server_ids: Sequence[ServerId],
    params: ScaParameters,
) -> dict[ServerId, Configuration]:
    """Build every server's initial configuration per SCA.

    Args:
        server_ids: the cluster membership; each identifier doubles as the
            server's initial priority (``P_i = i``).
        params: the Eq. 1 parameters (``baseTime`` and ``k``).

    Returns:
        A mapping from server id to its initial :class:`Configuration`
        (configuration clock 0).

    Raises:
        ConfigurationError: if identifiers are duplicated or exceed the
            cluster size (priorities must lie in ``[1, n]``).
    """
    ids = require_non_empty(server_ids, "server_ids")
    require_unique(ids, "server_ids")
    n = len(ids)
    return {server_id: joining_configuration(server_id, n, params) for server_id in ids}


def follower_priority_ladder(cluster_size: int) -> list[int]:
    """Priorities the PPF hands out to followers, best first.

    The pool managed by a leader contains ``n - 1`` configurations for its
    ``n - 1`` followers.  The most responsive follower receives priority ``n``
    (and therefore the ``baseTime`` timeout -- it is the groomed "future
    leader"), the next one ``n - 1``, and so on down to priority ``2``.  The
    leader itself holds no active configuration while leading (its row is
    ``NA/∞`` in Figure 5 of the paper).
    """
    if cluster_size < 2:
        raise ConfigurationError("a configuration pool needs at least 2 servers")
    return list(range(cluster_size, 1, -1))


def validate_assignment(
    assignment: Mapping[ServerId, Configuration],
) -> None:
    """Check Lemma 3: no two servers share a configuration at the same clock.

    Raises:
        ConfigurationError: if two servers hold the same priority with the
            same configuration clock.
    """
    seen: dict[tuple[int, int], ServerId] = {}
    for server_id, configuration in assignment.items():
        key = (configuration.priority, configuration.conf_clock)
        if key in seen:
            raise ConfigurationError(
                f"S{server_id} and S{seen[key]} share configuration "
                f"priority={configuration.priority} at clock={configuration.conf_clock}"
            )
        seen[key] = server_id
