"""The batched sampling kernel.

The *kernel* turns probability arrays into batches of random draws.
Engines (Monte Carlo, Karp–Luby, world sampling) never loop over
``random.Random`` fact-by-fact themselves; they pre-materialise a
:mod:`~repro.sampling.plans` plan once and then ask the kernel for
``k`` draws at a time.  One kernel ships, :class:`PythonKernel`: pure
Python, batching by hoisting all per-fact attribute/dict lookups out of
the sampling loop.  ``backend="auto"`` and ``backend="python"`` both
name it.  ``backend="scalar"`` is *not* a kernel: it names the engines'
original one-draw-at-a-time reference paths, which they keep for
differential testing.

Determinism contract: the kernel seeded with the same integer produces
bit-identical draws on every run and every install.  The scalar paths
consume randomness differently and agree only statistically — the
differential suite in ``tests/sampling`` checks both properties.
"""

from __future__ import annotations

import bisect
import random

from repro.sampling.stream import as_stream

#: Engine-level name for the unbatched reference paths (not a kernel).
SCALAR = "scalar"

#: Default number of worlds generated per kernel call.
DEFAULT_BATCH_SIZE = 2048


class PythonKernel:
    """Pure-Python batched draws from a ``random.Random``.

    RNG objects come from :meth:`make_rng` (seeded, per batch) or
    :meth:`adapt_rng` (a caller-supplied ``random.Random``, checked) and
    go back into the draw methods.
    """

    name = "python"

    def make_rng(self, seed: int) -> random.Random:
        """A fresh RNG seeded with ``seed``."""
        return random.Random(seed)

    def adapt_rng(self, rng: random.Random) -> random.Random:
        """Check a caller-supplied RNG."""
        if not isinstance(rng, random.Random):
            raise TypeError(f"python kernel needs random.Random, got {type(rng)!r}")
        return rng

    def bernoulli_rows(self, probs, k, rng):
        """``k`` independent Bernoulli field draws.

        Each row is the sorted tuple of indices ``i`` whose coin
        ``u_i < probs[i]`` came up heads.
        """
        uniform = rng.random
        indexed = tuple(enumerate(probs))
        return [
            tuple(i for i, p in indexed if uniform() < p) for _ in range(k)
        ]

    def categorical(self, cumulative, k, rng, scale=None):
        """``k`` draws from the categorical with cumulative weights.

        Draws ``u ~ U[0, scale)`` (default ``scale = cumulative[-1]``)
        and returns the insertion index; an index equal to
        ``len(cumulative)`` selects the remainder mass
        ``scale − cumulative[-1]`` (the BID ``p_⊥``).
        """
        top = cumulative[-1] if scale is None else scale
        uniform = rng.random
        locate = bisect.bisect_right
        return [locate(cumulative, uniform() * top) for _ in range(k)]


_PYTHON = PythonKernel()


def get_kernel(backend: str = "auto") -> PythonKernel:
    """Resolve a backend name to the kernel.

    >>> get_kernel("python").name
    'python'
    """
    if backend in ("auto", "python"):
        return _PYTHON
    if backend == SCALAR:
        raise ValueError(
            "backend 'scalar' is the engines' unbatched reference path, "
            "not a kernel; pass it to the engine entry point instead"
        )
    raise ValueError(f"unknown sampling backend {backend!r}")


def resolve_rng(kernel: PythonKernel, rng=None, seed=None, batch_index: int = 0):
    """One kernel RNG from either a caller RNG or a ``(seed, batch)`` pair."""
    if rng is not None:
        return kernel.adapt_rng(rng)
    if seed is not None:
        return kernel.make_rng(as_stream(seed).child_seed(batch_index))
    raise ValueError("provide rng= or seed=")


def batch_rngs(kernel: PythonKernel, rng=None, seed=None):
    """A ``batch_index -> rng`` provider for multi-batch estimators.

    With ``seed`` every batch gets an independent RNG derived from
    ``(seed, batch_index)``; with a caller ``rng`` the single checked
    RNG is consumed sequentially across batches.
    """
    if seed is not None:
        stream = as_stream(seed)
        return lambda batch_index: kernel.make_rng(stream.child_seed(batch_index))
    if rng is not None:
        adapted = kernel.adapt_rng(rng)
        return lambda batch_index: adapted
    raise ValueError("provide rng= or seed=")
