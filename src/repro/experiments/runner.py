"""Parallel sweep execution engine for the experiment modules.

Every figure of the paper is reproduced by running thousands of independent
leader-election episodes.  Each episode is a pure function of
``(scenario, seed)`` (see :mod:`repro.common.rng`), so the sweep fans out
perfectly: this module splits a scenario mapping into ``(label, run index)``
work items, cuts them into chunks, folds every chunk into one partial result
container per label -- in a :mod:`multiprocessing` pool worker or in-process
-- and merges the partials in the parent.

The *container* decides what a sweep keeps.  It is any class built as
``container(label=...)`` that provides ``add(measurement)``,
``merge(other)`` and ``__len__``:

* collecting containers (:class:`~repro.metrics.records.MeasurementSet`, the
  default; :class:`~repro.metrics.records.AvailabilitySet`;
  :class:`~repro.adapters.redis_cluster.FailoverSet`) keep every episode
  record, in run-index order;
* mergeable aggregates (:class:`~repro.metrics.streaming.ElectionAggregate`,
  :class:`~repro.workload.aggregate.WorkloadAggregate`) keep O(labels)
  state no matter how many episodes ran, and -- because they also provide
  ``to_state``/``from_state`` -- each completed chunk can be persisted to a
  JSON-lines checkpoint (:mod:`repro.experiments.checkpoint`) from which a
  killed sweep resumes bit-identically.

Those five are what the registered experiments sweep into.

Work items are lean ``(label, index, seed)`` triples: the label -> scenario
table ships **once** per worker through the pool initializer instead of being
pickled into every item.  Items are interleaved across labels before
chunking (run 0 of every label, then run 1, ...), so a size-mixed sweep like
fig9-xl -- where an s=1024 episode costs ~1000x an s=8 one -- never ends on a
straggler chunk of only-huge episodes, and a label's partials arrive in
run-index order.

Determinism is preserved bit-for-bit: seeds are derived by the shared
per-``(label, index)`` scheme (:func:`repro.common.rng.paired_seeds`),
workers never share random state, the chunk partition depends on the item
count alone, and partials merge strictly in chunk-index order regardless of
completion order.  ``run_sweep(..., workers=4)`` therefore returns the same
results as ``workers=1``, which regression tests pin.

``workers=1`` (the default) and platforms without a usable ``fork``/``spawn``
pool fold the same chunks in-process.

Its one caller in the package, :func:`repro.experiments.registry.run_experiment`,
imports it inside the call, so importing the package (``--list``, the
registry) never pays for :mod:`multiprocessing`.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import sys
from typing import TYPE_CHECKING, Callable, Mapping

from repro import protocols
from repro.cluster.scenarios import ElectionScenario
from repro.common.errors import SweepError
from repro.common.frozen import value_object
from repro.common.rng import paired_seeds
from repro.experiments.checkpoint import SweepCheckpoint, checkpoint_fingerprint
from repro.metrics.records import MeasurementSet
from repro.protocols import ProtocolSpec

if TYPE_CHECKING:
    from repro.obs.progress import ProgressCallback

__all__ = [
    "Container",
    "MAX_CHUNK_ITEMS",
    "SweepChunk",
    "SweepItem",
    "build_chunks",
    "build_work_items",
    "resolve_workers",
    "run_sweep",
    "streaming_chunk_size",
]

#: Builds one empty per-label result container, called as
#: ``container(label=...)``.  The product must provide ``add(measurement)``,
#: ``merge(other)`` and ``__len__`` (plus ``to_state`` and a ``from_state``
#: classmethod when checkpointing); see the module docstring for the
#: containers the repository provides.
Container = Callable[..., object]

#: Upper bound on items per chunk.  Chunking amortises per-item IPC, but a
#: chunk is also the unit of load balancing (and of checkpointing), so in a
#: size-mixed sweep an unbounded chunk would serialise many expensive
#: episodes behind one worker.
MAX_CHUNK_ITEMS = 64


@value_object
class SweepItem:
    """One unit of sweep work: a single seeded episode of one scenario.

    Deliberately lean -- the scenario itself is *not* embedded; workers
    resolve ``label`` against the scenario table the pool initializer
    installed once per process, so the task queue carries three scalars per
    episode instead of a pickled scenario.
    """

    label: str
    index: int
    seed: int


@value_object
class SweepChunk:
    """A contiguous slice of the interleaved work-item list.

    The unit of execution, IPC, aggregation and checkpointing: a chunk is
    folded into one partial container per label, and the parent merges
    chunks strictly in ``chunk_id`` order.
    """

    chunk_id: int
    items: tuple[SweepItem, ...]


def build_work_items(
    scenarios: Mapping[str, ElectionScenario], runs: int, seed: int
) -> list[SweepItem]:
    """Expand a scenario mapping into per-``(label, index)`` work items.

    Seed derivation delegates to :func:`repro.common.rng.paired_seeds`
    so the parallel engine and the paired A/B helpers can never drift apart.

    Items are interleaved across labels (run 0 of every label, then run 1,
    ...) so that chunking a size-mixed sweep yields chunks of roughly equal
    cost instead of label-major runs of only-cheap or only-expensive
    episodes.
    """
    seeds = {label: paired_seeds(runs, seed, label) for label in scenarios}
    items: list[SweepItem] = []
    for index in range(runs):
        for label in scenarios:
            items.append(SweepItem(label, index, seeds[label][index]))
    return items


def build_chunks(items: list[SweepItem], chunk_size: int) -> list[SweepChunk]:
    """Partition the interleaved item list into fixed-size chunks."""
    if chunk_size < 1:
        raise SweepError(f"chunk size must be >= 1, got {chunk_size}")
    return [
        SweepChunk(chunk_id, tuple(items[start : start + chunk_size]))
        for chunk_id, start in enumerate(range(0, len(items), chunk_size))
    ]


def streaming_chunk_size(item_count: int) -> int:
    """The sweep's chunk size: 1/128 of the items, capped.

    Deliberately **independent of the worker count**: the chunk partition
    fixes the merge tree, so making it worker-free keeps results
    bit-identical at any ``--workers`` value (and lets a checkpoint written
    under one worker count resume under another).  128 chunks (or one per
    item below that) leave eight per worker on a 16-CPU host; an episode
    costs milliseconds, a chunk's round trip microseconds.
    """
    return max(1, min(MAX_CHUNK_ITEMS, item_count // 128))


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request (``None`` means one per CPU)."""
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise SweepError(f"workers must be >= 1 (or None for auto), got {workers}")
    return workers


# --------------------------------------------------------------------------- #
# Worker-side state and execution
# --------------------------------------------------------------------------- #

#: Per-worker scenario table, installed once by the pool initializer so work
#: items never carry (and the task queue never re-pickles) scenarios.
_WORKER_SCENARIOS: Mapping[str, ElectionScenario] = {}

#: Per-worker result container, installed alongside the scenario table.
_WORKER_CONTAINER: Container = MeasurementSet


def _fold_chunk(
    chunk: SweepChunk,
    scenarios: Mapping[str, ElectionScenario],
    container: Container,
) -> dict[str, object]:
    """Execute one chunk and fold its episodes into per-label partials.

    A failing episode is re-raised as a :class:`SweepError` naming the
    ``(label, index, seed)`` that reproduces it, chained to the original
    exception so an in-process sweep keeps the failing frame's traceback.
    """
    partials: dict[str, object] = {}
    for item in chunk.items:
        try:
            measurement = scenarios[item.label].run(item.seed)
        except Exception as exc:
            raise SweepError(
                f"scenario {item.label!r} run {item.index} (seed {item.seed}) "
                f"failed: {type(exc).__name__}: {exc}"
            ) from exc
        partial = partials.get(item.label)
        if partial is None:
            partials[item.label] = partial = container(label=item.label)
        partial.add(measurement)
    return partials


def _execute_chunk(
    chunk: SweepChunk,
) -> tuple[int, dict[str, object] | None, str | None]:
    """Fold one chunk in a pool worker.

    An episode failure comes back as its message: the exception chain cannot
    cross the process boundary intact, so the parent re-raises the string.
    """
    try:
        partials = _fold_chunk(chunk, _WORKER_SCENARIOS, _WORKER_CONTAINER)
    except SweepError as error:
        return chunk.chunk_id, None, str(error)
    return chunk.chunk_id, partials, None


def _swept_specs(scenarios: Mapping[str, ElectionScenario]) -> tuple[ProtocolSpec, ...]:
    """The protocol specs the sweep's scenarios resolve to (deduplicated).

    Duck-typed scenario stubs (the runner's tests use them) may carry no
    ``protocol`` at all, and only names the parent actually has registered
    can be shipped -- anything else fails in the worker exactly as it would
    have in the parent.
    """
    names = {
        getattr(scenario, "protocol", None) for scenario in scenarios.values()
    }
    return tuple(
        protocols.get(name)
        for name in sorted(name for name in names if name is not None)
        if protocols.is_registered(name)
    )


def _register_worker_specs(
    specs: tuple[ProtocolSpec, ...],
    scenarios: Mapping[str, ElectionScenario] | None = None,
    container: Container | None = None,
) -> None:
    """Pool initializer: mirror the parent's protocols and scenario table.

    ``spawn`` workers re-import :mod:`repro.protocols` and therefore only see
    the built-in registrations; any custom spec the parent registered would
    make ``build_cluster`` fail with "unknown protocol" inside the worker.
    Specs pickle by reference, so shipping them through the initializer keeps
    registry-driven sweeps working on every start method.  Registration uses
    ``replace=True`` so a built-in the parent *replaced* is mirrored too
    (under ``fork`` the worker inherits the parent registry and this is a
    no-op).

    The label -> scenario table also rides in here exactly once per worker:
    work items then only carry ``(label, index, seed)``, which shrinks the
    task-queue pickle traffic by the full scenario size per episode.  Every
    scenario names its own simulation engine, so the table is also all a
    worker needs to run what the parent selected, on any start method.
    """
    for spec in specs:
        protocols.register(spec, replace=True)
    if scenarios is not None:
        global _WORKER_SCENARIOS
        _WORKER_SCENARIOS = scenarios
    if container is not None:
        global _WORKER_CONTAINER
        _WORKER_CONTAINER = container


def _pool_context() -> multiprocessing.context.BaseContext | None:
    """The process-pool context to use, or ``None`` to stay in-process.

    ``fork`` is preferred where it is safe (cheap start-up, no re-import);
    on macOS ``fork`` is unsafe once system frameworks are loaded (CPython
    switched the platform default to ``spawn`` for that reason), so there
    ``spawn`` comes first.  Platforms offering neither run sequentially.
    """
    preferred = ("spawn", "fork") if sys.platform == "darwin" else ("fork", "spawn")
    methods = multiprocessing.get_all_start_methods()
    for method in preferred:
        if method in methods:
            return multiprocessing.get_context(method)
    return None


def _make_pool(
    context: multiprocessing.context.BaseContext,
    workers: int,
    scenarios: Mapping[str, ElectionScenario],
    container: Container,
):
    """A pool whose workers carry the parent's protocols + scenario table."""
    return context.Pool(
        processes=workers,
        initializer=_register_worker_specs,
        initargs=(_swept_specs(scenarios), dict(scenarios), container),
    )


# --------------------------------------------------------------------------- #
# Parent-side accounting
# --------------------------------------------------------------------------- #


class _ChunkAccounting:
    """Merges per-chunk partial containers strictly in chunk-index order.

    Chunks complete in arbitrary order under a pool; out-of-order arrivals
    are buffered (bounded by the number of in-flight chunks) and folded in
    as soon as the next expected chunk lands.  Fixing the merge order fixes
    the merge tree, which is what makes results bit-identical across worker
    counts and checkpoint resumes -- and, because items are interleaved, it
    hands a collecting container its episodes in run-index order.  The
    parent holds one running container per label.
    """

    def __init__(
        self,
        scenarios: Mapping[str, ElectionScenario],
        runs: int,
        progress: ProgressCallback | None,
        container: Container,
        total_chunks: int,
    ) -> None:
        self._runs = runs
        self._progress = progress
        self._total_chunks = total_chunks
        self._merged: dict[str, object] = {
            label: container(label=label) for label in scenarios
        }
        self._done: dict[str, int] = {label: 0 for label in scenarios}
        self._next_chunk = 0
        self._pending: dict[int, Mapping[str, object]] = {}

    def record_chunk(self, chunk_id: int, partials: Mapping[str, object]) -> None:
        if chunk_id in self._pending or chunk_id < self._next_chunk:
            raise SweepError(f"chunk {chunk_id} reported twice")
        self._pending[chunk_id] = partials
        while self._next_chunk in self._pending:
            for label, partial in self._pending.pop(self._next_chunk).items():
                self._merged[label].merge(partial)
                self._done[label] += len(partial)
                if self._progress is not None:
                    self._progress(label, self._done[label], self._runs)
            self._next_chunk += 1

    def results(self) -> dict[str, object]:
        if self._next_chunk != self._total_chunks or self._pending:
            raise SweepError(
                f"sweep incomplete: merged {self._next_chunk} of "
                f"{self._total_chunks} chunks"
            )
        for label, done in self._done.items():
            if done != self._runs:
                raise SweepError(
                    f"scenario {label!r} merged {done} of {self._runs} "
                    "runs; a worker probably died without reporting"
                )
        return self._merged


def run_sweep(
    scenarios: Mapping[str, ElectionScenario],
    runs: int,
    seed: int = 0,
    progress: ProgressCallback | None = None,
    workers: int | None = 1,
    container: Container = MeasurementSet,
    checkpoint: str | os.PathLike | None = None,
) -> dict[str, object]:
    """Run every scenario *runs* times, fanned out over *workers* processes.

    Args:
        scenarios: label -> scenario mapping (label order is preserved in the
            result).
        runs: independent episodes per scenario.
        seed: root seed for the per-``(label, index)`` derivation.
        progress: optional callback invoked as ``progress(label, done,
            runs)`` once per label per merged chunk (a chunk is at most
            :data:`MAX_CHUNK_ITEMS` episodes and at most 1/128 of the sweep);
            per-label counts are monotonic and end at *runs*.
        workers: process count; ``1`` runs in-process, ``None`` uses one
            worker per CPU.
        container: builds each per-label result container (see
            :data:`Container`): a collecting set keeps every episode, a
            mergeable aggregate keeps O(labels) state.
        checkpoint: directory for the JSON-lines chunk checkpoint; completed
            chunks persist there and a re-run of the same sweep resumes
            bit-identically.  Needs a container with ``to_state`` /
            ``from_state``.

    Returns:
        One *container* product per scenario label -- identical contents for
        every worker count.

    Raises:
        SweepError: naming the ``(label, index, seed)`` of a failing episode.
    """
    workers = resolve_workers(workers)
    # Rich reporters (repro.obs.progress.ProgressReporter) learn the full
    # work plan up front through an optional duck-typed hook; plain callbacks
    # keep working untouched.
    sweep_begin = getattr(progress, "sweep_begin", None)
    if sweep_begin is not None:
        sweep_begin(tuple(scenarios), runs, workers)

    items = build_work_items(scenarios, runs, seed)
    chunk_size = streaming_chunk_size(len(items))
    with contextlib.ExitStack() as stack:
        ckpt: SweepCheckpoint | None = None
        if checkpoint is not None:
            loader = getattr(container, "from_state", None)
            if loader is None:
                raise SweepError(
                    f"container {container!r} has no from_state(); "
                    "checkpointing needs JSON-able partials"
                )
            ckpt = stack.enter_context(
                SweepCheckpoint.open(
                    checkpoint,
                    fingerprint=checkpoint_fingerprint(
                        scenarios, runs, seed, container
                    ),
                    labels=list(scenarios),
                    runs=runs,
                    seed=seed,
                    chunk_size=chunk_size,
                    loader=loader,
                )
            )
            # A resumed file pins the partition it was written with, so a
            # future heuristic change can't shift chunk boundaries mid-sweep.
            chunk_size = ckpt.chunk_size

        chunks = build_chunks(items, chunk_size)
        accounting = _ChunkAccounting(
            scenarios, runs, progress, container, len(chunks)
        )
        restored = ckpt.completed if ckpt is not None else {}
        # Resume-aware reporters get told how much work the checkpoint
        # replays: those episodes complete instantly and must not count
        # toward the episodes/sec rate or the ETA.
        mark_resumed = getattr(progress, "mark_resumed", None)
        for chunk_id in sorted(restored):
            if mark_resumed is not None:
                for label, partial in restored[chunk_id].items():
                    mark_resumed(label, len(partial))
            accounting.record_chunk(chunk_id, restored[chunk_id])
        pending = [chunk for chunk in chunks if chunk.chunk_id not in restored]

        context = _pool_context() if workers > 1 and len(pending) > 1 else None
        if context is None:
            outcomes = (
                (chunk.chunk_id, _fold_chunk(chunk, scenarios, container), None)
                for chunk in pending
            )
        else:
            pool = stack.enter_context(
                _make_pool(context, min(workers, len(pending)), scenarios, container)
            )
            outcomes = pool.imap_unordered(_execute_chunk, pending)
        for chunk_id, partials, error in outcomes:
            if error is not None:
                raise SweepError(error)
            if ckpt is not None:
                ckpt.record(chunk_id, partials)
            accounting.record_chunk(chunk_id, partials)
    return accounting.results()
