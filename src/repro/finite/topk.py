"""Ranked enumeration of the most probable worlds of a TI table.

A best-first search over partial fact decisions: the most probable world
takes each fact's majority choice (present iff ``p_f > 1/2``); the k-th
world is found by branching one fact decision at a time, ordered by the
probability penalty ``min(p, 1−p)/max(p, 1−p)`` of flipping it.  Runs in
``O(k log k · n)`` without enumerating the 2^n world space — the classic
"top-k possible worlds" primitive of probabilistic-database systems.

Also exposed for countable TI PDBs via their truncations: the globally
most probable worlds of the infinite PDB coincide with those of a
truncation once the truncated tail mass is below the k-th world's
probability gap.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, List, Tuple

from repro.errors import ProbabilityError
from repro.finite.tuple_independent import TupleIndependentTable
from repro.relational.instance import Instance


def top_k_worlds(
    table: TupleIndependentTable, k: int
) -> List[Tuple[Instance, float]]:
    """The k most probable worlds, most probable first.

    Ties are broken deterministically by the flip set's lexicographic
    order (the branching structure), so results are reproducible.

    >>> from repro.relational import Schema
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> table = TupleIndependentTable(schema, {R(1): 0.9, R(2): 0.2})
    >>> [(sorted(map(str, w)), round(p, 4)) for w, p in top_k_worlds(table, 2)]
    [(['R(1)'], 0.72), (['R(1)', 'R(2)'], 0.18)]
    """
    if k <= 0:
        raise ProbabilityError("k must be positive")
    return list(itertools.islice(iter_worlds_by_probability(table), k))


def iter_worlds_by_probability(
    table: TupleIndependentTable,
) -> Iterator[Tuple[Instance, float]]:
    """Lazily yield all worlds in non-increasing probability order.

    Uses the Lawler-style branching scheme: a state is a set of flips
    against the mode world, represented by the index of the last flipped
    fact plus the accumulated penalty; children extend or advance the
    last flip.

    >>> from repro.relational import Schema
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> table = TupleIndependentTable(schema, {R(1): 0.6, R(2): 0.6})
    >>> probabilities = [p for _, p in iter_worlds_by_probability(table)]
    >>> probabilities == sorted(probabilities, reverse=True)
    True
    >>> abs(sum(probabilities) - 1.0) < 1e-12
    True
    """
    facts = table.facts()
    probabilities = table.marginal_values(facts)
    # Mode world: include iff p > 1/2; its probability is the max.
    mode_probability = 1.0
    penalties: List[float] = []
    for p in probabilities:
        keep = max(p, 1.0 - p)
        flip = min(p, 1.0 - p)
        mode_probability *= keep
        penalties.append(flip / keep if keep > 0 else 0.0)
    # Sort facts by DESCENDING flip penalty: the "advance" move then
    # always multiplies by penalty[i+1]/penalty[i] ≤ 1, so children never
    # outrank their parents — required for best-first correctness.
    order = sorted(range(len(facts)), key=lambda i: -penalties[i])
    ordered_facts = [facts[i] for i in order]
    ordered_penalties = [penalties[i] for i in order]
    mode_presence = [probabilities[i] > 0.5 for i in order]

    def realize(flips: frozenset) -> Instance:
        present = []
        for index, fact in enumerate(ordered_facts):
            keep = mode_presence[index]
            if index in flips:
                keep = not keep
            if keep:
                present.append(fact)
        return Instance(present)

    if mode_probability == 0.0:
        # Some fact has p exactly 0.5... no: then keep=0.5 ≠ 0.  p ∈ {0,1}
        # never reaches here (0-facts dropped, 1-facts have flip 0 — flip
        # worlds carry probability 0 but are still enumerated last).
        pass
    # Heap of (negative probability, flip tuple).  Start with no flips.
    seen = {frozenset()}
    heap: List[Tuple[float, Tuple[int, ...]]] = [(-mode_probability, ())]
    n = len(ordered_facts)
    while heap:
        negative, flips = heapq.heappop(heap)
        probability = -negative
        yield realize(frozenset(flips)), probability
        last = flips[-1] if flips else -1
        # Children: (a) add a new flip after the last; (b) advance the
        # last flip to the next index (Lawler partitioning — every flip
        # set is generated exactly once).
        for child_kind in ("extend", "advance"):
            if child_kind == "extend":
                nxt = last + 1
                if nxt >= n:
                    continue
                child = flips + (nxt,)
                child_probability = probability * ordered_penalties[nxt]
            else:
                if not flips or last + 1 >= n:
                    continue
                child = flips[:-1] + (last + 1,)
                child_probability = (
                    probability
                    / max(ordered_penalties[last], 1e-300)
                    * ordered_penalties[last + 1]
                )
            key = frozenset(child)
            if key not in seen:
                seen.add(key)
                heapq.heappush(heap, (-child_probability, child))


def most_probable_world(table: TupleIndependentTable) -> Tuple[Instance, float]:
    """The single most probable world (mode): include iff ``p_f > 1/2``.

    >>> from repro.relational import Schema
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> world, p = most_probable_world(
    ...     TupleIndependentTable(schema, {R(1): 0.9, R(2): 0.2}))
    >>> str(next(iter(world))), round(p, 4)
    ('R(1)', 0.72)
    """
    return top_k_worlds(table, 1)[0]
