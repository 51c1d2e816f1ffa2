"""Finite probabilistic databases as explicit world tables.

A finite PDB is a probability distribution over finitely many instances
of the same schema (the standard model, paper §3 intro).  This explicit
representation is the ground truth everything else is validated against:
tuple-independent and BID tables expand to it, and every query evaluator
must agree with exhaustive evaluation on it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Set, Tuple

from repro.errors import ProbabilityError
from repro.measure.space import DiscreteProbabilitySpace
from repro.relational.facts import Fact
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.utils.rationals import as_fraction


class FinitePDB:
    """An explicit finite probability space over database instances.

    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> pdb = FinitePDB(schema, {Instance([R(1)]): 0.4, Instance(): 0.6})
    >>> pdb.fact_marginal(R(1))
    0.4
    >>> pdb.expected_size()
    0.4
    """

    def __init__(
        self,
        schema: Schema,
        worlds: Mapping[Instance, float],
        tolerance: float = 1e-9,
    ):
        self.schema = schema
        total = 0.0
        cleaned: Dict[Instance, float] = {}
        for instance, mass in worlds.items():
            if mass < -tolerance:
                raise ProbabilityError(f"negative world probability {mass}")
            instance.validate_schema(schema)
            cleaned[instance] = cleaned.get(instance, 0.0) + max(mass, 0.0)
            total += max(mass, 0.0)
        if abs(total - 1.0) > tolerance:
            raise ProbabilityError(f"world probabilities sum to {total}, not 1")
        self.worlds: Dict[Instance, float] = cleaned

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self.worlds)

    def instances(self) -> Iterator[Instance]:
        return iter(sorted(self.worlds, key=Instance.sort_key))

    def probability_of(self, instance: Instance) -> float:
        """``P({D})``."""
        return self.worlds.get(instance, 0.0)

    def probability(self, event: Callable[[Instance], bool]) -> float:
        """``P({D : event(D)})`` by exhaustive summation, folded left to
        right in world order.  The built-in ``sum`` compensates float
        sums from Python 3.12 on, so it would give this oracle other
        bits on other interpreters."""
        total = 0.0
        for instance, mass in self.worlds.items():
            if event(instance):
                total += mass
        return total

    def fact_marginal(self, fact: Fact) -> float:
        """``P(E_f)`` — the probability that ``fact`` occurs."""
        return self.probability(lambda instance: fact in instance)

    # The tables' names for the same measures, so that code taking any
    # finite PDB (a completion's original) reads all three alike.
    instance_probability = probability_of
    marginal = fact_marginal

    def expand(self) -> "FinitePDB":
        """The explicit worlds: this PDB itself, as a table expands to."""
        return self

    def facts(self) -> Set[Fact]:
        """``F(D)``: all facts appearing in some instance (any mass)."""
        found: Set[Fact] = set()
        for instance in self.worlds:
            found |= instance.facts
        return found

    def expected_size(self) -> float:
        """``E(S_D) = Σ_D P({D}) ‖D‖`` (paper §3.2 eq. (5)), folded left
        to right like :meth:`probability`."""
        total = 0.0
        for instance, mass in self.worlds.items():
            total += mass * instance.size
        return total

    def size_distribution(self) -> Dict[int, float]:
        """``P(S_D = n)`` for every attained size n."""
        dist: Dict[int, float] = {}
        for instance, mass in self.worlds.items():
            dist[instance.size] = dist.get(instance.size, 0.0) + mass
        return dist

    def as_space(self) -> DiscreteProbabilitySpace:
        """View as a generic discrete probability space."""
        return DiscreteProbabilitySpace.from_dict(dict(self.worlds))

    # ---------------------------------------------------------------- sampling
    def sample(self, rng: random.Random) -> Instance:
        u = rng.random()
        acc = 0.0
        last: Optional[Instance] = None
        for instance in self.instances():
            acc += self.worlds[instance]
            last = instance
            if u < acc:
                return instance
        if last is None:
            raise ProbabilityError("empty PDB")
        return last

    # ------------------------------------------------------------ conditioning
    def condition(self, event: Callable[[Instance], bool]) -> "FinitePDB":
        """``P(· | event)`` — used to verify the completion condition."""
        mass = self.probability(event)
        if mass <= 0:
            raise ProbabilityError("conditioning on a null event")
        return FinitePDB(
            self.schema,
            {
                instance: p / mass
                for instance, p in self.worlds.items()
                if event(instance)
            },
        )

    # ------------------------------------------------------------------ exact
    def exact_worlds(self) -> Dict[Instance, Fraction]:
        """World probabilities as exact fractions (of the stored floats)."""
        return {
            instance: as_fraction(mass) for instance, mass in self.worlds.items()
        }

    def __repr__(self) -> str:
        return f"FinitePDB(worlds={len(self.worlds)}, schema={self.schema!r})"
