"""Fault injection for the simulated network.

Two message-loss models are provided:

* :class:`BroadcastOmissionFault` -- the paper's model (Section VI-D): for a
  loss rate Δ, every broadcast from a leader or candidate simply never reaches
  a uniformly chosen ⌈Δ·(n-1)⌉ subset of the peers.
* :class:`PacketLossFault` -- i.i.d. per-message loss, provided for
  sensitivity analysis (it is the model NetEm's ``loss`` option implements).

:class:`LinkFault` cuts specific directed links and :class:`CompositeFault`
combines several injectors.

Like the latency models, every injector is a frozen, validated, picklable
dataclass, so a scenario's ``fault=``, a catalog condition and a
:class:`~repro.chaos.specs.SwapFault` event hold the injector itself.
:func:`bind` is where such a condition meets a concrete membership.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Any, Protocol, Sequence, runtime_checkable

from repro.common.errors import ConfigurationError
from repro.common.types import ServerId
from repro.common.validation import require_fraction

def bind(condition: object, server_ids: Sequence[ServerId]) -> Any:
    """The runtime model of a latency or fault *condition* for one membership.

    A condition that cannot be final before the membership is known has a
    ``resolve(server_ids)``: :class:`~repro.net.latency.GeoLatencySpec`
    assigns its regions, :class:`LinkFault` checks that its links name
    members, :class:`CompositeFault` binds its parts.  Every other model
    depends on no membership and is returned as it is.
    """
    resolve = getattr(condition, "resolve", None)
    return condition if resolve is None else resolve(server_ids)


@runtime_checkable
class FaultInjector(Protocol):
    """Decides which messages the network silently drops."""

    def drop_unicast(
        self, rng: random.Random, src: ServerId, dst: ServerId
    ) -> bool:  # pragma: no cover - protocol signature
        """Whether to drop a single point-to-point message."""
        ...

    def omitted_broadcast_targets(
        self, rng: random.Random, src: ServerId, targets: Sequence[ServerId]
    ) -> frozenset[ServerId]:  # pragma: no cover - protocol signature
        """Subset of *targets* a broadcast from *src* will never reach."""
        ...


@dataclass(frozen=True)
class NoFault:
    """The fault injector used when the network is healthy (Δ = 0)."""

    def drop_unicast(self, rng: random.Random, src: ServerId, dst: ServerId) -> bool:
        return False

    def omitted_broadcast_targets(
        self, rng: random.Random, src: ServerId, targets: Sequence[ServerId]
    ) -> frozenset[ServerId]:
        return frozenset()


@dataclass(frozen=True)
class PacketLossFault:
    """Independent per-message loss with probability *loss_rate*."""

    loss_rate: float

    def __post_init__(self) -> None:
        require_fraction(self.loss_rate, "loss_rate")

    def drop_unicast(self, rng: random.Random, src: ServerId, dst: ServerId) -> bool:
        return rng.random() < self.loss_rate

    def omitted_broadcast_targets(
        self, rng: random.Random, src: ServerId, targets: Sequence[ServerId]
    ) -> frozenset[ServerId]:
        return frozenset(
            target for target in targets if rng.random() < self.loss_rate
        )


@dataclass(frozen=True)
class BroadcastOmissionFault:
    """The paper's broadcast loss model (Section VI-D).

    "At each rate, a broadcast only reaches ``1 - Δ`` servers.  For example, in
    a cluster of 10 servers and Δ = 20 %, a sender (leader or candidate)
    randomly omits two servers in each broadcast."

    Unicast messages (such as vote replies) are left untouched; the paper's
    loss model applies to the sender's broadcast only.  Set
    ``affect_unicast=True`` to additionally drop unicasts with probability Δ
    for sensitivity analysis.
    """

    loss_rate: float
    affect_unicast: bool = False

    def __post_init__(self) -> None:
        require_fraction(self.loss_rate, "loss_rate")

    def drop_unicast(self, rng: random.Random, src: ServerId, dst: ServerId) -> bool:
        if not self.affect_unicast:
            return False
        return rng.random() < self.loss_rate

    def omitted_broadcast_targets(
        self, rng: random.Random, src: ServerId, targets: Sequence[ServerId]
    ) -> frozenset[ServerId]:
        if self.loss_rate <= 0.0 or not targets:
            return frozenset()
        omit_count = min(len(targets), math.ceil(self.loss_rate * len(targets)))
        return frozenset(rng.sample(list(targets), omit_count))


@dataclass(frozen=True)
class LinkFault:
    """Drops every message on an explicit set of directed links.

    Args:
        broken_links: pairs ``(src, dst)`` that can no longer communicate.
        symmetric: when true, ``(dst, src)`` is broken as well.
    """

    broken_links: frozenset[tuple[ServerId, ServerId]] = field(default_factory=frozenset)
    symmetric: bool = True

    def resolve(self, server_ids: Sequence[ServerId]) -> "LinkFault":
        """This fault, once every broken link is known to join two members."""
        members = set(server_ids)
        for src, dst in self.broken_links:
            if src not in members or dst not in members:
                raise ConfigurationError(
                    f"broken link ({src}, {dst}) names a server outside the "
                    f"cluster membership"
                )
        return self

    def _is_broken(self, src: ServerId, dst: ServerId) -> bool:
        if (src, dst) in self.broken_links:
            return True
        return self.symmetric and (dst, src) in self.broken_links

    def drop_unicast(self, rng: random.Random, src: ServerId, dst: ServerId) -> bool:
        return self._is_broken(src, dst)

    def omitted_broadcast_targets(
        self, rng: random.Random, src: ServerId, targets: Sequence[ServerId]
    ) -> frozenset[ServerId]:
        return frozenset(target for target in targets if self._is_broken(src, target))


@dataclass(frozen=True)
class MessageDuplicationFault:
    """Duplicates (rather than drops) messages with probability *rate*.

    UDP-style transports deliver occasional duplicates; consensus protocols
    must treat every RPC idempotently.  This injector never drops anything --
    it only asks the network to deliver some messages twice -- so it composes
    freely with the loss models above.
    """

    rate: float

    def __post_init__(self) -> None:
        require_fraction(self.rate, "rate")

    def drop_unicast(self, rng: random.Random, src: ServerId, dst: ServerId) -> bool:
        return False

    def omitted_broadcast_targets(
        self, rng: random.Random, src: ServerId, targets: Sequence[ServerId]
    ) -> frozenset[ServerId]:
        return frozenset()

    def should_duplicate(self, rng: random.Random, src: ServerId, dst: ServerId) -> bool:
        """Whether the network should deliver this message a second time."""
        return rng.random() < self.rate


@dataclass(frozen=True)
class CompositeFault:
    """Union of several fault injectors: a message is dropped if any says so.

    Duplication requests are forwarded as well: a message is delivered twice
    if any wrapped injector exposing ``should_duplicate`` asks for it, so
    :class:`MessageDuplicationFault` keeps working inside a composite.
    """

    injectors: tuple[FaultInjector, ...] = ()

    def __post_init__(self) -> None:
        for injector in self.injectors:
            if not isinstance(injector, FaultInjector):
                raise ConfigurationError(
                    f"CompositeFault parts must be fault injectors, got {injector!r}"
                )

    def resolve(self, server_ids: Sequence[ServerId]) -> "CompositeFault":
        """This composite with every part bound to the membership."""
        return replace(
            self, injectors=tuple(bind(part, server_ids) for part in self.injectors)
        )

    def drop_unicast(self, rng: random.Random, src: ServerId, dst: ServerId) -> bool:
        return any(injector.drop_unicast(rng, src, dst) for injector in self.injectors)

    def omitted_broadcast_targets(
        self, rng: random.Random, src: ServerId, targets: Sequence[ServerId]
    ) -> frozenset[ServerId]:
        omitted: set[ServerId] = set()
        for injector in self.injectors:
            omitted.update(injector.omitted_broadcast_targets(rng, src, targets))
        return frozenset(omitted)

    def should_duplicate(self, rng: random.Random, src: ServerId, dst: ServerId) -> bool:
        """Whether any wrapped injector wants this message delivered twice."""
        for injector in self.injectors:
            duplicator = getattr(injector, "should_duplicate", None)
            if duplicator is not None and duplicator(rng, src, dst):
                return True
        return False
