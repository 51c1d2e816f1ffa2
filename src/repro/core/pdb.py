"""Countable probabilistic databases (Definition 3.1, discrete case).

A :class:`CountablePDB` is a discrete probability space whose outcomes
are finite database instances of a fixed schema.  The sample space may be
countably infinite; it is represented by a deterministic enumeration of
``(instance, mass)`` pairs whose running mass tends to 1, optionally with
a certified mass tail.

Concrete subclasses with closed-form point masses (the Theorem 4.8 /
4.15 / 5.5 constructions) override :meth:`instance_probability`; the base
class supplies the generic machinery: fact-marginal events ``E_f``/
``E_F``, size distribution (§3.2), expected size (eq. (5)), and the
Proposition 3.4 enumeration of positive-probability facts.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import AbstractSet, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ProbabilityError
from repro.measure.space import DiscreteProbabilitySpace
from repro.relational.facts import Fact
from repro.relational.instance import Instance
from repro.relational.schema import Schema


class CountablePDB:
    """A countable PDB: enumerated instances with probability masses.

    Parameters
    ----------
    schema:
        The database schema τ.
    enumerate_worlds:
        Zero-argument callable yielding ``(Instance, mass)`` pairs,
        distinct instances, running mass → 1; None in a subclass that
        defines ``_enumerate`` itself.
    exhaustive:
        True iff the enumeration is finite.
    mass_tail:
        Optional certified bound on the un-enumerated mass after the
        first n pairs; a subclass may define ``_mass_tail`` instead.

    Subclasses define the two hooks as methods rather than passing
    their own bound methods: an instance that holds its own bound
    methods is a reference cycle, so it and everything it holds (a
    fact distribution with its materialized prefix, say) would outlive
    its last user until the cycle collector's next full pass.

    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> pdb = CountablePDB(schema, lambda: iter(
    ...     [(Instance(), 0.5), (Instance([R(1)]), 0.5)]), exhaustive=True)
    >>> pdb.fact_marginal(R(1))
    0.5
    """

    #: Certified bound on the un-enumerated mass after the first n
    #: worlds, or None when there is none.
    _mass_tail: Optional[Callable[[int], float]] = None

    def __init__(
        self,
        schema: Schema,
        enumerate_worlds: Optional[Callable[[], Iterator[Tuple[Instance, float]]]],
        exhaustive: bool,
        mass_tail: Optional[Callable[[int], float]] = None,
    ):
        self.schema = schema
        if enumerate_worlds is not None:
            self._enumerate = enumerate_worlds
        self.exhaustive = exhaustive
        if mass_tail is not None:
            self._mass_tail = mass_tail

    def _enumerate(self) -> Iterator[Tuple[Instance, float]]:
        raise NotImplementedError(
            "pass enumerate_worlds or define _enumerate in the subclass")

    # ---------------------------------------------------------------- measure
    def worlds(self) -> Iterator[Tuple[Instance, float]]:
        """Enumerate (instance, mass) pairs; fresh iterator per call."""
        return self._enumerate()

    def instance_probability(self, instance: Instance) -> float:
        """``P({D})``.  Base implementation scans the enumeration;
        constructions override with closed forms."""
        for world, mass in self.worlds():
            if world == instance:
                return mass
        return 0.0

    def probability(
        self,
        event: Callable[[Instance], bool],
        tolerance: float = 1e-9,
        max_worlds: int = 10**6,
    ) -> float:
        """``P({D : event(D)})`` to additive accuracy ``tolerance``."""
        acc = 0.0
        seen = 0.0
        for index, (world, mass) in enumerate(self.worlds()):
            if event(world):
                acc += mass
            seen += mass
            if self.exhaustive:
                continue
            remaining = (
                self._mass_tail(index + 1)
                if self._mass_tail is not None
                else 1.0 - seen
            )
            if remaining <= tolerance:
                return acc
            if index + 1 >= max_worlds:
                raise ProbabilityError(
                    f"event probability did not stabilize within "
                    f"{max_worlds} worlds (remaining mass ~{remaining:.3g})"
                )
        return acc

    def as_space(self) -> DiscreteProbabilitySpace:
        return DiscreteProbabilitySpace(
            lambda: self.worlds(), exhaustive=self.exhaustive,
            mass_tail=self._mass_tail,
        )

    # ------------------------------------------------------------ fact events
    def fact_marginal(self, fact: Fact, tolerance: float = 1e-9) -> float:
        """``P(E_f)`` — probability the fact occurs (Definition 3.1)."""
        return self.probability(lambda world: fact in world, tolerance=tolerance)

    def fact_set_marginal(
        self, facts: AbstractSet[Fact], tolerance: float = 1e-9
    ) -> float:
        """``P(E_F)`` for a set of facts F."""
        fact_set = frozenset(facts)
        return self.probability(
            lambda world: world.intersects(fact_set), tolerance=tolerance
        )

    def positive_probability_facts(
        self, limit: int, threshold: float = 0.0, max_worlds: int = 10**5
    ) -> List[Fact]:
        """Enumerate (a prefix of) the countable set ``F_ω`` of facts
        with positive marginal probability — Proposition 3.4 made
        effective: every positive-marginal fact appears in some
        positive-mass world, so scanning worlds finds them all.
        """
        found: List[Fact] = []
        seen: set = set()
        for world, mass in itertools.islice(self.worlds(), max_worlds):
            if mass <= threshold:
                continue
            for fact in world:
                if fact not in seen:
                    seen.add(fact)
                    found.append(fact)
                    if len(found) >= limit:
                        return found
        return found

    # ------------------------------------------------------------------- size
    def size_distribution(
        self, max_size: int, tolerance: float = 1e-9
    ) -> Dict[int, float]:
        """``P(S_D = n)`` for n ≤ max_size (remaining mass on larger
        sizes is implicit)."""
        dist: Dict[int, float] = {}
        seen = 0.0
        for index, (world, mass) in enumerate(self.worlds()):
            if world.size <= max_size:
                dist[world.size] = dist.get(world.size, 0.0) + mass
            seen += mass
            if not self.exhaustive:
                remaining = (
                    self._mass_tail(index + 1)
                    if self._mass_tail is not None
                    else 1.0 - seen
                )
                if remaining <= tolerance:
                    break
        return dist

    def size_tail(self, n: int, tolerance: float = 1e-9) -> float:
        """``P(S_D ≥ n)`` — eq. (6) of the paper says this tends to 0."""
        return self.probability(lambda world: world.size >= n, tolerance=tolerance)

    def expected_size(
        self,
        tolerance: float = 1e-9,
        max_worlds: int = 10**6,
        infinity_threshold: float = 1e12,
    ) -> float:
        """``E(S_D) = Σ_D P({D}) ‖D‖`` (eq. (5)).

        May legitimately be infinite (Example 3.3): partial sums
        exceeding ``infinity_threshold`` report ``math.inf``.
        """
        acc = 0.0
        seen = 0.0
        for index, (world, mass) in enumerate(self.worlds()):
            acc += mass * world.size
            seen += mass
            if acc > infinity_threshold:
                return math.inf
            if self.exhaustive:
                continue
            remaining = (
                self._mass_tail(index + 1)
                if self._mass_tail is not None
                else 1.0 - seen
            )
            if remaining <= tolerance:
                return acc
            if index + 1 >= max_worlds:
                # Unbounded sizes with slow mass decay: report the
                # partial sum; Example 3.3-style spaces hit the
                # infinity_threshold instead.
                return acc
        return acc

    # ---------------------------------------------------------------- sampling
    def sample(self, rng: random.Random) -> Instance:
        """Inverse-transform sampling along the enumeration."""
        u = rng.random()
        acc = 0.0
        last: Optional[Instance] = None
        for world, mass in self.worlds():
            acc += mass
            last = world
            if u < acc:
                return world
        if last is None:
            raise ProbabilityError("cannot sample from an empty PDB")
        return last

    def sample_many(self, n: int, rng: random.Random) -> List[Instance]:
        return [self.sample(rng) for _ in range(n)]

    def __repr__(self) -> str:
        kind = "finite" if self.exhaustive else "countably infinite"
        return f"CountablePDB({kind}, schema={self.schema!r})"
