"""Deterministic, named random-number streams.

Every stochastic decision in the library (election-timeout draws, latency
samples, fault-injection choices) pulls from a stream derived from a single
experiment seed.  Two properties follow:

* an experiment is a pure function of ``(parameters, seed)`` and re-running it
  reproduces results bit-for-bit, and
* independent concerns (e.g. the latency model and a node's timeout draws) use
  *separate* streams, so adding randomness to one subsystem never perturbs the
  draws observed by another -- which keeps A/B comparisons between protocols
  paired on identical network behaviour.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["SeedSequence", "derive_run_seed", "derive_seed", "paired_seeds"]


def derive_seed(root_seed: int, *names: object) -> int:
    """Derive a child seed from a root seed and a path of names.

    The derivation hashes the textual path with SHA-256, so it is stable
    across processes and Python versions (unlike ``hash()``).
    """
    digest = hashlib.sha256()
    digest.update(str(int(root_seed)).encode("utf-8"))
    for name in names:
        digest.update(b"/")
        digest.update(str(name).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


class SeedSequence:
    """A tree of deterministic random streams rooted at one integer seed.

    Usage::

        seeds = SeedSequence(42)
        latency_rng = seeds.stream("latency")
        node_rng = seeds.stream("node", 3)       # S3's private stream
        child = seeds.child("run", 17)           # sub-tree for run #17
    """

    def __init__(self, root_seed: int, _path: tuple[object, ...] = ()) -> None:
        self._root_seed = int(root_seed)
        self._path = _path

    @property
    def root_seed(self) -> int:
        """The integer seed this sequence (or sub-tree) was rooted at."""
        return self._root_seed

    @property
    def path(self) -> tuple[object, ...]:
        """The path of names from the experiment root to this sub-tree."""
        return self._path

    def stream(self, *names: object) -> random.Random:
        """Return a fresh :class:`random.Random` for the given named stream.

        Calling ``stream`` twice with the same names returns two *independent
        instances* seeded identically, so callers should create a stream once
        and keep it.
        """
        seed = derive_seed(self._root_seed, *self._path, *names)
        return random.Random(seed)

    def child(self, *names: object) -> "SeedSequence":
        """Return a sub-tree rooted at ``path + names``.

        Useful for giving each run of a 1000-run sweep its own namespace:
        ``seeds.child("run", i)``.
        """
        return SeedSequence(self._root_seed, self._path + tuple(names))

    def spawn(self, count: int, *names: object) -> list["SeedSequence"]:
        """Return *count* numbered children under the given names."""
        return [self.child(*names, index) for index in range(count)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        path = "/".join(str(part) for part in self._path)
        return f"SeedSequence(root={self._root_seed}, path={path!r})"


def derive_run_seed(seed: int, label: str, index: int) -> int:
    """The seed of run *index* of the scenario labelled *label*.

    This is the single source of truth for sweep seed derivation:
    :func:`paired_seeds` (and through it the sweep engine) and
    :meth:`repro.cluster.scenarios.ElectionScenario.run_many` all call it, so
    the paired A/B design cannot drift no matter which entry point ran the
    episodes.
    """
    return SeedSequence(seed).stream("experiment", label, index).getrandbits(32)


def paired_seeds(runs: int, seed: int, label: str) -> list[int]:
    """Derive the per-run seeds for one scenario label (for paired designs)."""
    return [derive_run_seed(seed, label, index) for index in range(runs)]
