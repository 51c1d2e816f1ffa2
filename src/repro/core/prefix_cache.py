"""Materialized enumeration prefixes with logarithmic truncation search.

The Proposition 6.1 pipeline repeatedly asks the same three questions of
a countable weighted enumeration (support facts of a
:class:`~repro.core.fact_distribution.FactDistribution`, or blocks of a
:class:`~repro.core.bid.BlockFamily`):

* *prefix materialization* — the first n items with their weights
  (``prefix``/``marginals_dict``/``truncate``);
* *cumulative mass* — partial sums of the weights;
* *truncation search* — the smallest n whose certified ``tail(n)`` drops
  below a bound (``prefix_for_tail``).

Before this module each question restarted from scratch: every call
re-ran the enumeration generator and the truncation search was a linear
scan evaluating ``tail(n)`` for every n from 0.  A :class:`PrefixCache`
answers all three incrementally from one shared materialization:

* items pulled from the enumeration are kept forever, so a later (or
  repeated) request only extends the materialized prefix;
* weights live in a shared :class:`repro.relational.columns.FloatColumn`
  with pure-Python running sums, so cumulative masses and truncation
  scans run on the marginal column;
* ``tail(n)`` evaluations are memoized, and
  :meth:`smallest_prefix_for_tail` replaces the linear scan with an
  exponential probe + bisection — O(log n) tail evaluations, returning
  the **bit-exact same n** because certified tails are non-increasing
  in n (all repo distributions satisfy this by construction: suffix
  sums, closed-form geometric/zeta bounds, level bounds).

Reuse is observable: ``prefix.cache.hits`` counts requests served
entirely from materialized data, ``prefix.cache.extensions`` counts
pulls on the underlying enumeration (see :mod:`repro.obs`).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import islice
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Tuple,
    TypeVar,
)

from repro import obs
from repro.errors import ApproximationError, ConvergenceError
from repro.relational.columns import FloatColumn

T = TypeVar("T")

#: Obs counter: prefix requests answered without touching the enumeration.
PREFIX_CACHE_HITS = "prefix.cache.hits"
#: Obs counter: times the underlying enumeration was pulled further.
PREFIX_CACHE_EXTENSIONS = "prefix.cache.extensions"

_ITEM, _WEIGHT = itemgetter(0), itemgetter(1)


class PrefixCache(Generic[T]):
    """A growing materialized prefix of a countable ``(item, weight)``
    enumeration, with memoized certified tails.

    Parameters
    ----------
    pairs:
        Iterable of ``(item, weight)`` in enumeration order; consumed
        lazily, each element at most once.
    tail:
        ``tail(n)`` — certified upper bound on the weight mass after the
        first n items.  Must be non-increasing in n for
        :meth:`smallest_prefix_for_tail` to match a linear scan exactly.

    >>> cache = PrefixCache(iter([("a", 0.5), ("b", 0.25)]),
    ...                     tail=lambda n: (0.75, 0.25, 0.0)[min(n, 2)])
    >>> cache.prefix(1)
    [('a', 0.5)]
    >>> cache.smallest_prefix_for_tail(0.3, 10)
    1
    >>> cache.cumulative_mass(2)
    0.75
    """

    def __init__(
        self,
        pairs: Iterable[Tuple[T, float]],
        tail: Callable[[int], float],
    ):
        self._iterator: Iterator[Tuple[T, float]] = iter(pairs)
        self._tail_fn = tail
        self._items: List[T] = []
        self._weights = FloatColumn()
        self._exhausted = False
        self._tail_memo: Dict[int, float] = {}
        #: Serializes pulls on the (single-consumer) enumeration
        #: iterator, and with them the growth of the item list and the
        #: weight column, so a read never sees one grown without the
        #: other.  Re-entrant: queries extend, then read, under one
        #: acquisition.
        self._lock = threading.RLock()
        #: Lifetime counters, mirrored into the active obs trace.
        self.hits = 0
        self.extensions = 0

    # ------------------------------------------------------------- basics
    def __len__(self) -> int:
        """Items materialized so far."""
        return len(self._items)

    @property
    def exhausted(self) -> bool:
        """Whether the underlying enumeration has ended."""
        return self._exhausted

    def tail(self, n: int) -> float:
        """Memoized certified tail bound after the first n items."""
        with self._lock:
            value = self._tail_memo.get(n)
            if value is None:
                value = self._tail_fn(n)
                self._tail_memo[n] = value
            return value

    # --------------------------------------------------------- extension
    def extend_to(self, n: int) -> int:
        """Materialize at least the first n pairs (or until exhaustion);
        returns the materialized length."""
        with self._lock:
            have = len(self._items)
            if n <= have or self._exhausted:
                self.hits += 1
                obs.incr(PREFIX_CACHE_HITS)
                return have
            self.extensions += 1
            obs.incr(PREFIX_CACHE_EXTENSIONS)
            missing = n - have
            pulled = list(islice(self._iterator, missing))
            if len(pulled) < missing:
                self._exhausted = True
            self._items.extend(map(_ITEM, pulled))
            self._weights.extend(map(_WEIGHT, pulled))
            return len(self._items)

    # ----------------------------------------------------------- queries
    def prefix(self, n: int) -> List[Tuple[T, float]]:
        """The first n ``(item, weight)`` pairs (fewer if exhausted)."""
        with self._lock:
            have = self.extend_to(n)
            stop = min(n, have)
            return list(
                zip(self._items[:stop], self._weights.slice(0, stop)))

    def items(self, n: int) -> List[T]:
        """The first n items (fewer if exhausted)."""
        with self._lock:
            have = self.extend_to(n)
            return list(self._items[: min(n, have)])

    def materialized_items(self) -> List[T]:
        """The items materialized so far, without extending — the live
        internal list (treat as read-only)."""
        return self._items

    def pairs(self, start: int, stop: int) -> List[Tuple[T, float]]:
        """Pairs in the half-open range ``[start, stop)`` (clipped to
        the enumeration's actual length)."""
        with self._lock:
            have = self.extend_to(stop)
            stop = min(stop, have)
            return list(zip(
                self._items[start:stop], self._weights.slice(start, stop)))

    def marginals_dict(self, n: int) -> Dict[T, float]:
        """The first n pairs as a dict, preserving enumeration order."""
        with self._lock:
            have = self.extend_to(n)
            stop = min(n, have)
            return dict(
                zip(self._items[:stop], self._weights.slice(0, stop)))

    def cumulative_mass(self, n: int) -> float:
        """``Σ`` of the first n weights (all of them if exhausted
        earlier)."""
        with self._lock:
            have = self.extend_to(n)
            return self._weights.prefix_sum(min(n, have))

    # -------------------------------------------------- truncation search
    def smallest_prefix_for_tail(
        self,
        bound: float,
        budget: int,
        budget_name: str = "max_facts",
        what: str = "",
    ) -> int:
        """Smallest n ≤ budget with ``tail(n) ≤ bound``, decided exactly:
        a float ``bound`` compares with the float tails as it is (IEEE
        comparisons are exact), any other number as its exact
        :class:`~fractions.Fraction`.

        Exponential probe (1, 2, 4, … capped at ``budget``) followed by
        bisection on the bracket ``tail(lo) > bound ≥ tail(hi)`` —
        O(log n) memoized tail evaluations.  Because the certified tail
        is non-increasing, the answer is the bit-exact n a linear scan
        from 0 would return (the differential tests assert this).

        Exhausting the budget raises
        :class:`~repro.errors.ApproximationError` carrying the tail mass
        actually achieved at ``budget`` — evaluated once (the seed's
        linear scan evaluated ``tail(budget)`` a second time just to
        build the message).
        """
        if bound <= 0:
            raise ConvergenceError(f"tail bound must be positive, got {bound}")
        if not isinstance(bound, float):
            bound = Fraction(bound)
        if self.tail(0) <= bound:
            return 0
        if budget <= 0:
            self._raise_exhausted(bound, budget, budget_name, what)
        lo, hi = 0, 1
        while self.tail(hi) > bound:
            if hi >= budget:
                self._raise_exhausted(bound, budget, budget_name, what)
            lo, hi = hi, min(hi * 2, budget)
        # Invariant: tail(lo) > bound >= tail(hi); bisect the bracket.
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.tail(mid) <= bound:
                hi = mid
            else:
                lo = mid
        return hi

    def _raise_exhausted(
        self, bound: float, budget: int, budget_name: str, what: str
    ) -> None:
        achieved = self.tail(budget)
        raise ApproximationError(
            f"{what}tail did not reach {bound} within "
            f"{budget_name}={budget} (achieved tail mass {achieved}); "
            f"raise {budget_name} or relax the guarantee",
            achieved_tail=achieved,
        )
