"""ESCAPE configurations (Listing 1 of the paper).

A configuration pairs a *priority* with an *election timeout* and is stamped
with the *configuration clock* of the PPF round that assigned it.  The
priority drives term growth (Eq. 2); the timeout drives failure detection
(Eq. 1); the clock lets voters reject candidates holding stale configurations
(Section IV-B).
"""

from __future__ import annotations

from repro.common.frozen import value_object
from repro.common.types import Milliseconds
from repro.common.validation import require_non_negative, require_positive


@value_object(order=True, slots=True)
class Configuration:
    """A prioritized configuration ``π(P, k)``.

    Attributes:
        priority: the integer priority ``P``; higher priorities win elections
            because they grow the term faster (Eq. 2).
        timer_period_ms: the election timeout paired with the priority
            (Eq. 1); higher priorities get shorter timeouts so the designated
            "future leader" detects the failure first.
        conf_clock: the PPF round that assigned this configuration; stale
            clocks disqualify a candidate from receiving votes.
    """

    priority: int
    timer_period_ms: Milliseconds
    conf_clock: int = 0

    def __post_init__(self) -> None:
        # One chained test on the success path (NaN fails it); the helpers
        # run only to raise their usual error for the first bad field.
        if not (
            self.priority > 0 and self.timer_period_ms > 0 and self.conf_clock >= 0
        ):
            require_positive(self.priority, "priority")
            require_positive(self.timer_period_ms, "timer_period_ms")
            require_non_negative(self.conf_clock, "conf_clock")

    def describe(self) -> str:
        """Paper-style rendering ``π(P=3, k=17, timeout=2000ms)``."""
        return (
            f"π(P={self.priority}, k={self.conf_clock}, "
            f"timeout={self.timer_period_ms:.0f}ms)"
        )

