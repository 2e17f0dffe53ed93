"""An episode makes no reference cycles, and pausing the collector is safe.

``Scenario.run`` / ``run_traced`` pause the cyclic garbage collector for the
episode.  That is only free if an episode leaves nothing for the collector to
find: a closed cluster, and everything the episode built beside it, must be
freed by reference counting alone.  This suite checks exactly that -- with the
collector disabled, ``gc.collect()`` after an episode finds nothing -- for the
first label of each protocol in every registered experiment's quick grid, on
every engine, plain, with telemetry and traced.  It also pins how the pause
treats the collector's state: as found afterwards, when the episode raises,
and when one episode runs inside another.
"""

from __future__ import annotations

import gc

import pytest

from repro.cluster.scenarios import ElectionScenario, Scenario
from repro.common.rng import paired_seeds
from repro.experiments import registry
from repro.sim import engines


def _first_label_per_protocol(name: str) -> list[tuple[str, object]]:
    """``(label, scenario)`` for the first cell of each protocol in the quick grid."""
    spec = registry.get(name)
    scenarios = spec.build(spec.resolved_params(quick=True), 0)[2]
    chosen: dict[object, tuple[str, object]] = {}
    for label, scenario in scenarios.items():
        chosen.setdefault(getattr(scenario, "protocol", None), (label, scenario))
    return list(chosen.values())


def _variants(scenario) -> list[tuple[str, object]]:
    """Every way an episode of *scenario* is run, as ``(id, run)`` pairs."""
    if not isinstance(scenario, Scenario):  # an analytic model: no cluster
        return [("plain", scenario.run)]
    variants = []
    for engine in engines.names():
        on_engine = scenario.with_engine(engine)
        variants += [
            (f"{engine}-plain", on_engine.run),
            (f"{engine}-telemetry", on_engine.with_telemetry().run),
            (f"{engine}-traced", on_engine.run_traced),
        ]
    return variants


CASES = [
    pytest.param(run, seed, id=f"{name}-{label}-{variant}")
    for name in registry.names()
    for label, scenario in _first_label_per_protocol(name)
    for seed in paired_seeds(1, 0, label)
    for variant, run in _variants(scenario)
]


def _cyclic_garbage_left_by(run, seed: int) -> list[str]:
    """Type names of the objects only the cycle collector could free after
    ``run(seed)`` (the collector stays disabled while it runs)."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run(seed)
        gc.collect()
        return sorted({type(item).__name__ for item in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize(("run", "seed"), CASES)
def test_an_episode_leaves_no_cyclic_garbage(run, seed):
    assert _cyclic_garbage_left_by(run, seed) == []


# --------------------------------------------------------------------------- #
# The pause leaves the collector as it found it
# --------------------------------------------------------------------------- #
SCENARIO = ElectionScenario("escape", 5)


@pytest.fixture
def collector_state():
    """Restore the collector's state after a test that flips it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def seen_by_episode(monkeypatch):
    """Record ``gc.isenabled()`` as every episode body starts; an episode for
    seed 13 raises, and one for seed 17 runs a seed-11 episode inside it."""
    seen: list[bool] = []
    body = ElectionScenario._episode

    def episode(self, seed, metrics):
        seen.append(gc.isenabled())
        if seed == 13:
            raise RuntimeError("the episode failed")
        if seed == 17:
            self.run(11)
            seen.append(gc.isenabled())
        return body(self, seed, metrics)

    monkeypatch.setattr(ElectionScenario, "_episode", episode)
    return seen


@pytest.mark.usefixtures("collector_state")
@pytest.mark.parametrize("enabled", (True, False), ids=("enabled", "disabled"))
@pytest.mark.parametrize("entry", ("run", "run_traced"))
class TestTheCollectorIsLeftAsFound:
    def _start(self, enabled: bool) -> None:
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def test_after_an_episode(self, entry, enabled, seen_by_episode):
        self._start(enabled)
        getattr(SCENARIO, entry)(11)
        assert seen_by_episode == [False]
        assert gc.isenabled() is enabled

    def test_after_an_episode_that_raises(self, entry, enabled, seen_by_episode):
        self._start(enabled)
        with pytest.raises(RuntimeError, match="the episode failed"):
            getattr(SCENARIO, entry)(13)
        assert seen_by_episode == [False]
        assert gc.isenabled() is enabled

    def test_after_an_episode_inside_an_episode(self, entry, enabled, seen_by_episode):
        self._start(enabled)
        getattr(SCENARIO, entry)(17)
        # The inner episode leaves the collector paused for the outer one.
        assert seen_by_episode == [False, False, False]
        assert gc.isenabled() is enabled
