"""The asyncio implementation of the node environment."""

from __future__ import annotations

import asyncio
import logging
import random
import time
from typing import Any, Callable, Sequence

from repro.common.rng import derive_seed
from repro.common.types import Milliseconds, ServerId
from repro.runtime.transport import UdpJsonTransport

logger = logging.getLogger("repro.runtime")


class _AsyncTimerHandle:
    """Adapter giving ``asyncio.TimerHandle`` the library's ``cancel()`` shape."""

    __slots__ = ("_handle",)

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle

    def cancel(self) -> None:
        self._handle.cancel()


class AsyncNodeEnvironment:
    """Wall-clock / UDP environment for one protocol node.

    Args:
        node_id: the owning server.
        transport: the node's UDP transport (used for sends and broadcasts).
        rng: the node's private random stream (election-timeout draws).
        trace_log: optional list that trace events are appended to
            (``(time_ms, node_id, category, detail)`` tuples); when ``None``
            traces go to the ``repro.runtime`` logger at DEBUG level.
    """

    def __init__(
        self,
        node_id: ServerId,
        transport: UdpJsonTransport,
        rng: random.Random | None = None,
        trace_log: list[tuple[float, ServerId, str, dict[str, Any]]] | None = None,
    ) -> None:
        self.node_id = node_id
        self._transport = transport
        self._rng = rng if rng is not None else random.Random(
            derive_seed(0, "runtime", "node", node_id)
        )
        self._trace_log = trace_log
        self._origin = time.monotonic()

    @property
    def rng(self) -> random.Random:
        return self._rng

    def now(self) -> Milliseconds:
        """Milliseconds since this environment was created (monotonic)."""
        return (time.monotonic() - self._origin) * 1000.0

    def send(self, dst: ServerId, message: Any, inert: bool = False) -> None:
        # A real transport cannot know the receiver's state: inert or not,
        # the message goes on the wire.
        self._transport.send(dst, message)

    def broadcast(
        self,
        targets: Sequence[ServerId],
        payload_factory: Callable[[ServerId], Any],
    ) -> None:
        for dst in targets:
            self._transport.send(dst, payload_factory(dst))

    def set_timer(
        self,
        delay_ms: Milliseconds,
        callback: Callable[[], None],
        label: str = "",
    ) -> _AsyncTimerHandle:
        loop = asyncio.get_running_loop()
        return _AsyncTimerHandle(loop.call_later(delay_ms / 1000.0, callback))

    def cancel_timer(self, handle: _AsyncTimerHandle) -> None:
        handle.cancel()

    def trace(self, category: str, **detail: Any) -> None:
        if self._trace_log is not None:
            self._trace_log.append((self.now(), self.node_id, category, detail))
        else:
            logger.debug("S%s %s %s", self.node_id, category, detail)
