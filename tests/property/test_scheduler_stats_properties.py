"""Property-based tests for the event schedulers (every engine) and statistics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.stats import percentile, summarize
from repro.sim import engines


@pytest.mark.parametrize("engine", engines.names())
class TestSchedulerProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=10_000.0), max_size=50))
    def test_events_always_execute_in_non_decreasing_time_order(self, engine, delays):
        scheduler = engines.get(engine).scheduler_class()()
        executed = []
        for delay in delays:
            scheduler.call_after(delay, lambda: executed.append(scheduler.now()))
        scheduler.run_until_idle()
        assert executed == sorted(executed)
        assert len(executed) == len(delays)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1_000.0), st.booleans()),
            max_size=40,
        )
    )
    def test_cancelled_events_never_run(self, engine, schedule):
        scheduler = engines.get(engine).scheduler_class()()
        fired = []
        handles = []
        for index, (delay, cancel) in enumerate(schedule):
            handles.append(
                (scheduler.call_after(delay, lambda index=index: fired.append(index)), cancel)
            )
        for handle, cancel in handles:
            if cancel:
                handle.cancel()
        scheduler.run_until_idle()
        cancelled = {index for index, (_, cancel) in enumerate(schedule) if cancel}
        assert cancelled.isdisjoint(fired)
        assert len(fired) == len(schedule) - len(cancelled)


class TestStatsProperties:
    @staticmethod
    def _leq(a: float, b: float) -> bool:
        """``a <= b`` up to one part in 10^9 of floating-point slack.

        Linear interpolation and averaging can land one ulp outside the exact
        sample bounds; the orderings below are meant up to that slack.
        """
        return a <= b or abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1.0)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_percentile_is_bounded_by_min_and_max(self, values, q):
        result = percentile(values, q)
        assert self._leq(min(values), result)
        assert self._leq(result, max(values))

    @given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=200))
    def test_summary_orderings_hold(self, values):
        summary = summarize(values)
        assert self._leq(summary.minimum, summary.median)
        assert self._leq(summary.median, summary.maximum)
        assert self._leq(summary.minimum, summary.mean)
        assert self._leq(summary.mean, summary.maximum)
        assert self._leq(summary.p95, summary.p99)
        assert self._leq(summary.p99, summary.maximum)
        assert summary.std_dev >= 0.0
