"""Span-tree arithmetic and the Chrome trace export."""

import json

from tracing import Tracer


class FakeClock:
    """Advances by a scripted amount on every read."""

    def __init__(self, *ticks: int) -> None:
        self._ticks = iter(ticks)
        self.now = 0

    def __call__(self) -> int:
        self.now += next(self._ticks)
        return self.now


def _two_episodes() -> Tracer:
    # Reads, in order: episode start, build start/end, run start/end, episode
    # end -- then the same for episode 1 with other durations.
    tracer = Tracer(clock=FakeClock(100, 5, 30, 2, 50, 3, 1000, 1, 10, 1, 20, 8))
    for episode in (0, 1):
        with tracer.span("episode", episode):
            with tracer.span("cluster.build", episode):
                pass
            with tracer.span("cluster.run", episode):
                pass
    return tracer


def test_totals_sum_every_span_of_a_name():
    totals = _two_episodes().totals_ns()
    assert totals["cluster.build"] == 30 + 10
    assert totals["cluster.run"] == 50 + 20
    assert totals["episode"] == (5 + 30 + 2 + 50 + 3) + (1 + 10 + 1 + 20 + 8)


def test_self_time_is_duration_minus_direct_children():
    tracer = _two_episodes()
    own = tracer.self_times_ns()
    assert own["cluster.build"] == 40
    assert own["cluster.run"] == 70
    assert own["episode"] == (5 + 2 + 3) + (1 + 1 + 8)
    assert sum(own.values()) == tracer.totals_ns()["episode"]


def test_self_time_subtracts_only_direct_children():
    tracer = Tracer(clock=FakeClock(0, 1, 1, 10, 1, 1))
    with tracer.span("outer", 0):
        with tracer.span("middle", 0):
            with tracer.span("inner", 0):
                pass
    own = tracer.self_times_ns()
    assert own == {"outer": 2, "middle": 2, "inner": 10}


def test_spans_record_parent_and_episode():
    tracer = _two_episodes()
    roots = [span for span in tracer.spans if span.parent is None]
    assert [span.episode for span in roots] == [0, 1]
    for span in tracer.spans:
        if span.parent is not None:
            assert tracer.spans[span.parent].name == "episode"
            assert tracer.spans[span.parent].episode == span.episode
    assert tracer.durations_ns("cluster.build") == [30, 10]


def test_a_raising_block_still_closes_its_span():
    tracer = Tracer(clock=FakeClock(0, 1, 7, 1, 1, 1))
    try:
        with tracer.span("episode", 0):
            with tracer.span("cluster.build", 0):
                raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert tracer.durations_ns("cluster.build") == [7]
    with tracer.span("episode", 1):
        pass
    assert tracer.spans[-1].parent is None


def test_chrome_trace_has_complete_events_with_parent_and_episode(tmp_path):
    tracer = _two_episodes()
    path = tmp_path / "out" / "trace.json"
    tracer.write_chrome_trace(path)
    document = json.loads(path.read_text())
    events = document["traceEvents"]
    assert len(events) == 6
    first_build = events[1]
    assert first_build["ph"] == "X"
    assert first_build["name"] == "cluster.build"
    assert first_build["ts"] == 5 / 1000.0
    assert first_build["dur"] == 30 / 1000.0
    assert first_build["args"] == {
        "episode": 0, "span": 1, "parent": "episode", "parent_span": 0,
    }
    assert events[0]["args"]["parent"] is None
