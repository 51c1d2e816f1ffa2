"""Database instances: finite sets of facts.

An instance ``D ∈ D[τ, U]`` is a finite subset of the fact space
``F[τ, U]`` (paper §2.1).  Instances are immutable, hashable and totally
ordered by their canonical fact sequence, so they can serve as sample
points of discrete probability spaces.
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from repro.errors import SchemaError
from repro.relational.facts import Fact, Value
from repro.relational.schema import RelationSymbol, Schema


class Instance:
    """An immutable finite set of facts.

    >>> R, S = RelationSymbol("R", 1), RelationSymbol("S", 2)
    >>> D = Instance([R(1), S(1, 2)])
    >>> D.size, sorted(D.active_domain())
    (2, [1, 2])
    >>> R(1) in D
    True
    """

    __slots__ = ("_facts", "_hash")

    EMPTY: "Instance"  # set below

    def __init__(self, facts: Iterable[Fact] = ()):
        self._facts: FrozenSet[Fact] = frozenset(facts)
        self._hash = hash(self._facts)

    def __reduce__(self):
        # Rebuild through the constructor, which hashes afresh (see
        # :meth:`Fact.__reduce__ <repro.relational.facts.Fact.__reduce__>`).
        return Instance, (self._facts,)

    # ------------------------------------------------------------------ set API
    def __contains__(self, fact: object) -> bool:
        return fact in self._facts

    def __iter__(self) -> Iterator[Fact]:
        """Iterate facts in canonical (sorted) order for determinism."""
        return iter(sorted(self._facts))

    def __len__(self) -> int:
        return len(self._facts)

    @property
    def size(self) -> int:
        """The size ``‖D‖`` = number of facts (paper §2.1)."""
        return len(self._facts)

    @property
    def facts(self) -> FrozenSet[Fact]:
        return self._facts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._facts == other._facts

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Instance") -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple:
        """Total order: by size, then lexicographically on sorted facts."""
        return (len(self._facts), tuple(f.sort_key() for f in self))

    def __repr__(self) -> str:
        inner = ", ".join(str(f) for f in self)
        return f"Instance({{{inner}}})"

    # ------------------------------------------------------------- operations
    def union(self, other: "Instance") -> "Instance":
        return Instance(self._facts | other._facts)

    def __or__(self, other: "Instance") -> "Instance":
        return self.union(other)

    def intersection(self, other: "Instance") -> "Instance":
        return Instance(self._facts & other._facts)

    def __and__(self, other: "Instance") -> "Instance":
        return self.intersection(other)

    def difference(self, other: "Instance") -> "Instance":
        return Instance(self._facts - other._facts)

    def __sub__(self, other: "Instance") -> "Instance":
        return self.difference(other)

    def with_fact(self, fact: Fact) -> "Instance":
        return Instance(self._facts | {fact})

    def without_fact(self, fact: Fact) -> "Instance":
        return Instance(self._facts - {fact})

    def issubset(self, other: "Instance") -> bool:
        return self._facts <= other._facts

    def isdisjoint(self, other: "Instance") -> bool:
        return self._facts.isdisjoint(other._facts)

    def intersects(self, facts: AbstractSet[Fact]) -> bool:
        """True iff this instance contains any of the given facts.

        This is membership in the event ``E_F = {D : F ∩ D ≠ ∅}`` of
        Definition 3.1.
        """
        if len(facts) < len(self._facts):
            return any(f in self._facts for f in facts)
        return any(f in facts for f in self._facts)

    # ---------------------------------------------------------------- queries
    def relation(self, symbol: RelationSymbol) -> Set[Tuple[Value, ...]]:
        """The relation ``R^D`` as a set of tuples.

        >>> R = RelationSymbol("R", 1)
        >>> Instance([R(3), R(5)]).relation(R) == {(3,), (5,)}
        True
        """
        return {f.args for f in self._facts if f.relation == symbol}

    def relations(self) -> Set[RelationSymbol]:
        """The relation symbols actually occurring in this instance."""
        return {f.relation for f in self._facts}

    def active_domain(self) -> Set[Value]:
        """``adom(D)``: all universe elements occurring in the relations."""
        domain: Set[Value] = set()
        for fact in self._facts:
            domain.update(fact.args)
        return domain

    def restrict(self, symbols: Iterable[RelationSymbol]) -> "Instance":
        """Sub-instance containing only facts over the given symbols."""
        wanted = set(symbols)
        return Instance(f for f in self._facts if f.relation in wanted)

    def validate_schema(self, schema: Schema) -> "Instance":
        """Raise :class:`SchemaError` unless every fact fits ``schema``."""
        for fact in self._facts:
            if fact.relation not in schema:
                raise SchemaError(
                    f"fact {fact} uses relation {fact.relation} absent "
                    f"from schema {schema}"
                )
        return self

    @classmethod
    def of(cls, *facts: Fact) -> "Instance":
        """Variadic convenience constructor.

        >>> R = RelationSymbol("R", 1)
        >>> Instance.of(R(1), R(2)).size
        2
        """
        return cls(facts)


Instance.EMPTY = Instance()


def active_domain_of(instances: Iterable[Instance]) -> Set[Value]:
    """Union of the active domains of several instances."""
    domain: Set[Value] = set()
    for instance in instances:
        domain |= instance.active_domain()
    return domain
