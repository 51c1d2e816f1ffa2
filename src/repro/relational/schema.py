"""Database schemas: relation symbols with arities and optional attribute
names.

A schema ``τ = {R₁, …, R_m}`` (paper §2.1) is a finite set of relation
symbols, each with an associated arity ``ar(R) ∈ ℕ``.  Relation symbols
are value objects: two symbols with the same name and arity are equal and
interchangeable.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.errors import SchemaError

_NAME_PATTERN = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class RelationSymbol:
    """A relation symbol ``R`` with arity ``ar(R)``.

    Parameters
    ----------
    name:
        Identifier of the relation (``[A-Za-z_][A-Za-z0-9_]*``).
    arity:
        Number of argument positions; must be >= 0.  Arity 0 relations are
        allowed (they model propositional facts / Boolean query answers).
    attributes:
        Optional attribute names, one per position.

    >>> R = RelationSymbol("Temp", 2, attributes=("office", "celsius"))
    >>> R.name, R.arity
    ('Temp', 2)
    """

    __slots__ = ("name", "arity", "attributes", "_hash")

    def __init__(
        self,
        name: str,
        arity: int,
        attributes: Optional[Sequence[str]] = None,
    ):
        if not _NAME_PATTERN.match(name):
            raise SchemaError(f"invalid relation name {name!r}")
        if arity < 0:
            raise SchemaError(f"arity must be non-negative, got {arity}")
        if attributes is not None:
            attributes = tuple(attributes)
            if len(attributes) != arity:
                raise SchemaError(
                    f"relation {name!r} has arity {arity} but "
                    f"{len(attributes)} attribute names"
                )
            if len(set(attributes)) != len(attributes):
                raise SchemaError(f"duplicate attribute names in {name!r}")
        self.name = name
        self.arity = arity
        self.attributes: Optional[Tuple[str, ...]] = attributes
        self._hash = hash((name, arity))

    def __reduce__(self):
        # Rebuild through the constructor: string hashes are salted per
        # process, so a cached hash must be recomputed on unpickling.
        return RelationSymbol, (self.name, self.arity, self.attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSymbol):
            return NotImplemented
        return self.name == other.name and self.arity == other.arity

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"RelationSymbol({self.name!r}, {self.arity})"

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"

    def __call__(self, *args) -> "Fact":
        """Build a fact ``R(a₁, …, a_k)``; convenience for tests/examples.

        >>> R = RelationSymbol("R", 1)
        >>> R(7)
        Fact(R(7))
        """
        from repro.relational.facts import Fact

        return Fact(self, args)


class Schema:
    """A finite set of relation symbols with distinct names.

    Iteration order is deterministic (insertion order), which downstream
    fact-space enumerations rely on for reproducibility.

    >>> schema = Schema([RelationSymbol("R", 1), RelationSymbol("S", 2)])
    >>> [str(r) for r in schema]
    ['R/1', 'S/2']
    >>> schema["S"].arity
    2
    """

    __slots__ = ("_by_name",)

    def __init__(self, relations: Iterable[RelationSymbol] = ()):
        self._by_name: Dict[str, RelationSymbol] = {}
        for symbol in relations:
            self._add(symbol)

    def _add(self, symbol: RelationSymbol) -> None:
        existing = self._by_name.get(symbol.name)
        if existing is not None and existing != symbol:
            raise SchemaError(
                f"conflicting declarations for relation {symbol.name!r}: "
                f"arities {existing.arity} and {symbol.arity}"
            )
        self._by_name.setdefault(symbol.name, symbol)

    @classmethod
    def of(cls, **arities: int) -> "Schema":
        """Shorthand constructor: ``Schema.of(R=1, S=2)``.

        >>> sorted(str(r) for r in Schema.of(R=1, S=2))
        ['R/1', 'S/2']
        """
        return cls(RelationSymbol(name, arity) for name, arity in arities.items())

    def __iter__(self) -> Iterator[RelationSymbol]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, RelationSymbol):
            return self._by_name.get(item.name) == item
        if isinstance(item, str):
            return item in self._by_name
        return False

    def __getitem__(self, name: str) -> RelationSymbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._by_name == other._by_name

    def __hash__(self) -> int:
        return hash(frozenset(self._by_name.values()))

    def __repr__(self) -> str:
        inner = ", ".join(str(r) for r in self)
        return f"Schema({{{inner}}})"

    def max_arity(self) -> int:
        """The maximum arity among relations (0 for an empty schema).

        Used by Proposition 4.9: ``|adom(D)| <= max_arity * ||D||``.
        """
        return max((r.arity for r in self), default=0)

    def union(self, other: "Schema") -> "Schema":
        """Schema containing the relations of both (names must agree)."""
        merged = Schema(self)
        for symbol in other:
            merged._add(symbol)
        return merged

    def restrict(self, names: Iterable[str]) -> "Schema":
        """Sub-schema with only the named relations."""
        return Schema(self[name] for name in names)
