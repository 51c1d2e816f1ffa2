"""The batched sampling draws.

Engines (Monte Carlo, Karp–Luby, world sampling) never loop over
``random.Random`` fact-by-fact themselves; they pre-materialise a
:mod:`~repro.sampling.plans` plan once and then draw ``k`` rows at a
time with :func:`bernoulli_rows` and :func:`categorical`, which hoist
every per-fact attribute and dict lookup out of the sampling loop;
:func:`batches` splits an estimate's samples into those batches.

Determinism contract: the same seed produces bit-identical draws on
every run and every install (``tests/sampling/test_seeded_corpus.py``
pins a fixed-seed corpus).
"""

from __future__ import annotations

import bisect
import random

from repro import obs
from repro.sampling.stream import as_stream

#: Number of worlds generated per draw call.
DEFAULT_BATCH_SIZE = 2048


def bernoulli_rows(probs, k, rng):
    """``k`` independent Bernoulli field draws.

    Each row is the sorted tuple of indices ``i`` whose coin
    ``u_i < probs[i]`` came up heads.

    >>> bernoulli_rows((0.0, 1.0), 2, random.Random(0))
    [(1,), (1,)]
    """
    uniform = rng.random
    indexed = tuple(enumerate(probs))
    return [
        tuple(i for i, p in indexed if uniform() < p) for _ in range(k)
    ]


def categorical(cumulative, k, rng, scale=None):
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


def batch_rngs(rng=None, seed=None):
    """A ``batch_index -> rng`` provider from exactly one source.

    With ``seed`` every batch gets an independent RNG derived from
    ``(seed, batch_index)``; with a caller ``rng`` that one RNG is
    consumed sequentially across batches.
    """
    if (rng is None) == (seed is None):
        raise ValueError("provide exactly one of rng= or seed=")
    if seed is not None:
        return as_stream(seed).python_rng
    return lambda batch_index: rng


def batches(samples, rng=None, seed=None):
    """Split ``samples`` draws into batches of at most
    :data:`DEFAULT_BATCH_SIZE`, yielding each batch's ``(size, rng)``
    and counting it as ``sampling.batches``."""
    rng_for = batch_rngs(rng=rng, seed=seed)
    for batch_index, done in enumerate(range(0, samples, DEFAULT_BATCH_SIZE)):
        obs.incr("sampling.batches")
        yield min(DEFAULT_BATCH_SIZE, samples - done), rng_for(batch_index)
