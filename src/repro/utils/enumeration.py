"""Enumeration combinatorics for countable sets.

Countable universes, fact spaces and instance spaces throughout the
library are represented as *deterministic enumerations*: generators that
yield every element exactly once, in a fixed order.  This module collects
the pairing functions and product/star enumerations those representations
are built from.

The pairing function :func:`paper_pair` is the one used in the proof of
Proposition 6.2 of the paper,

    ``⟨m, n⟩ = (m + n − 1)(m + n − 2) / 2 + m``

(a bijection ``ℕ≥1 × ℕ≥1 → ℕ≥1``), while :func:`cantor_pair` is the
standard Cantor pairing on ``ℕ≥0``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Iterator, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Fill value of :func:`interleave`'s exhausted inputs.
_MISSING = object()


def cantor_pair(x: int, y: int) -> int:
    """Cantor pairing bijection ``ℕ₀² → ℕ₀``.

    >>> cantor_pair(0, 0), cantor_pair(1, 0), cantor_pair(0, 1)
    (0, 1, 2)
    """
    if x < 0 or y < 0:
        raise ValueError("cantor_pair requires non-negative integers")
    return (x + y) * (x + y + 1) // 2 + y


def cantor_unpair(z: int) -> Tuple[int, int]:
    """Inverse of :func:`cantor_pair`.

    >>> all(cantor_unpair(cantor_pair(x, y)) == (x, y)
    ...     for x in range(20) for y in range(20))
    True
    """
    if z < 0:
        raise ValueError("cantor_unpair requires a non-negative integer")
    w = (math.isqrt(8 * z + 1) - 1) // 2
    t = w * (w + 1) // 2
    y = z - t
    x = w - y
    return x, y


def paper_pair(m: int, n: int) -> int:
    """The pairing function ``⟨m, n⟩`` from Proposition 6.2 of the paper.

    A bijection from pairs of *positive* integers to positive integers:
    ``⟨m, n⟩ = (m + n − 1)(m + n − 2)/2 + m``.

    >>> paper_pair(1, 1)
    1
    >>> sorted(paper_pair(m, n) for m in range(1, 4) for n in range(1, 4))
    [1, 2, 3, 4, 5, 6, 8, 9, 13]
    """
    if m < 1 or n < 1:
        raise ValueError("paper_pair requires positive integers")
    s = m + n
    return (s - 1) * (s - 2) // 2 + m


def paper_unpair(k: int) -> Tuple[int, int]:
    """Inverse of :func:`paper_pair` on positive integers.

    >>> all(paper_unpair(paper_pair(m, n)) == (m, n)
    ...     for m in range(1, 15) for n in range(1, 15))
    True
    """
    if k < 1:
        raise ValueError("paper_unpair requires a positive integer")
    # Find the diagonal s = m + n with (s-1)(s-2)/2 < k <= (s-1)(s-2)/2 + (s-1).
    s = 2
    while (s - 1) * (s - 2) // 2 + (s - 1) < k:
        s += 1
    m = k - (s - 1) * (s - 2) // 2
    n = s - m
    return m, n


def diagonal_product(*iterables: Iterable[T]) -> Iterator[Tuple[T, ...]]:
    """Enumerate the cartesian product of countably infinite iterables.

    Unlike :func:`itertools.product`, this works when the inputs are
    infinite: tuples are produced in order of increasing *total index sum*
    (Cantor's diagonal argument), so every tuple appears after finitely
    many steps.  Within one total, index tuples come in lexicographic
    order.

    >>> from itertools import count
    >>> it = diagonal_product(count(), count())
    >>> [next(it) for _ in range(6)]
    [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    """
    if not iterables:
        return iter(((),))
    if len(iterables) == 1:
        return zip(iterables[0])
    return _diagonal_product(iterables)


def _diagonal_product(
    iterables: Sequence[Iterable[T]],
) -> Iterator[Tuple[T, ...]]:
    """:func:`diagonal_product` of two or more factors."""
    caches: List[List[T]] = [[] for _ in iterables]
    iterators = [iter(it) for it in iterables]
    total = 0
    while True:
        # Every factor holds indices 0..total (or all it has): one
        # islice per factor and anti-diagonal.
        for cache, iterator in zip(caches, iterators):
            missing = total + 1 - len(cache)
            if missing > 0:
                cache.extend(itertools.islice(iterator, missing))
        sizes = [len(cache) for cache in caches]
        # A factor short of ``total + 1`` items is exhausted, so past
        # the largest reachable total nothing is left (an empty factor
        # makes that bound negative at once).
        if total > sum(sizes) - len(sizes):
            return
        if len(caches) == 2:
            # The anti-diagonal i + j = total, i ascending, as one slice
            # of each factor.
            first, second = caches
            lo = max(0, total - sizes[1] + 1)
            hi = min(total, sizes[0] - 1)
            yield from zip(
                first[lo:hi + 1], second[total - hi:total - lo + 1][::-1])
        else:
            for split in _bounded_compositions(total, sizes):
                yield tuple(cache[i] for cache, i in zip(caches, split))
        total += 1


def _bounded_compositions(
    total: int, sizes: Sequence[int]
) -> Iterator[Tuple[int, ...]]:
    """All tuples ``(i_0, …, i_{k-1})`` with ``0 <= i_j < sizes[j]``
    summing to ``total``, in lexicographic order."""
    if len(sizes) == 1:
        if total < sizes[0]:
            yield (total,)
        return
    rest = sizes[1:]
    reach = sum(rest) - len(rest)  # the largest total ``rest`` can make
    for head in range(max(0, total - reach), min(total, sizes[0] - 1) + 1):
        for tail in _bounded_compositions(total - head, rest):
            yield (head,) + tail


def interleave(*iterables: Iterable[T]) -> Iterator[T]:
    """Fair round-robin interleaving of countably many (finitely listed)
    iterables; exhausted inputs are dropped.

    >>> list(interleave([1, 2, 3], 'ab'))
    [1, 'a', 2, 'b', 3]
    """
    # Round r is the r-th item of every input still alive: zip_longest
    # pads the exhausted ones with a marker that the filter drops.
    return filter(
        functools.partial(operator.is_not, _MISSING),
        itertools.chain.from_iterable(
            itertools.zip_longest(*iterables, fillvalue=_MISSING)),
    )


def kleene_star(alphabet: Sequence[T]) -> Iterator[Tuple[T, ...]]:
    """Enumerate ``Σ*`` in length-lexicographic (shortlex) order.

    Yields tuples of alphabet symbols: the empty word first, then all
    length-1 words in alphabet order, then length-2 words, and so on.

    >>> [''.join(w) for w in take(7, kleene_star('ab'))]
    ['', 'a', 'b', 'aa', 'ab', 'ba', 'bb']
    """
    if not alphabet:
        yield ()
        return
    for length in itertools.count(0):
        for word in itertools.product(alphabet, repeat=length):
            yield word


# Re-exported here to keep doctests self-contained.
def take(n: int, iterable: Iterable[T]) -> List[T]:
    """Return the first ``n`` elements of ``iterable`` as a list."""
    return list(itertools.islice(iterable, n))
