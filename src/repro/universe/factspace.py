"""The fact space ``F[τ, U]``: all facts of a schema over a universe.

Enumerated deterministically: per-relation fact streams (arguments in
diagonal product order) interleaved round-robin across relations, exactly
like :class:`~repro.universe.union.TaggedUnion`.  This gives "an
algorithm can generate all facts f ∈ F[τ, U]" (paper §6) together with a
rank function used by decaying fact-probability distributions.

Per-position universes may differ (typed relations à la Example 5.7:
``R ⊆ {A,B,C,D} × ℕ``), via ``position_universes``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.errors import SchemaError, UniverseError
from repro.relational.facts import Fact, Value
from repro.relational.schema import RelationSymbol, Schema
from repro.universe.base import Universe
from repro.universe.product import ProductUniverse
from repro.universe.union import TaggedUnion


class _RelationFacts(Universe):
    """All facts of a single relation symbol, as a universe of facts."""

    def __init__(self, symbol: RelationSymbol, argument_universes: Sequence[Universe]):
        if len(argument_universes) != symbol.arity:
            raise SchemaError(
                f"{symbol} needs {symbol.arity} argument universes, "
                f"got {len(argument_universes)}"
            )
        self.symbol = symbol
        self.argument_universes = tuple(argument_universes)
        if symbol.arity == 0:
            self.finite = True
            self._product: Optional[ProductUniverse] = None
        else:
            self._product = ProductUniverse(self.argument_universes)
            self.finite = self._product.finite

    def enumerate(self) -> Iterator[Fact]:
        if self._product is None:
            return iter((Fact(self.symbol, ()),))
        return map(Fact, repeat(self.symbol), self._product.enumerate())

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, Fact) or value.relation != self.symbol:
            return False
        if self._product is None:
            return value.args == ()
        return value.args in self._product

    def rank(self, value: Value) -> int:
        if value not in self:
            raise UniverseError(f"{value!r} not a fact of {self.symbol}")
        assert isinstance(value, Fact)
        if self._product is None:
            return 0
        return self._product.rank(value.args)

    def __len__(self) -> int:
        if not self.finite:
            raise UniverseError(f"{self!r} is infinite")
        if self._product is None:
            return 1
        return len(self._product)

    def __repr__(self) -> str:
        return f"_RelationFacts({self.symbol})"


class FactSpace(Universe):
    """``F[τ, U]`` with a deterministic enumeration and rank.

    Parameters
    ----------
    schema:
        The database schema τ.
    universe:
        Default universe for every argument position.
    position_universes:
        Optional per-relation overrides: relation name → sequence of
        per-position universes (the Example 5.7 typing mechanism).

    >>> from repro.universe.naturals import Naturals
    >>> space = FactSpace(Schema.of(R=1, S=1), Naturals())
    >>> [str(f) for f in space.prefix(4)]
    ['R(1)', 'S(1)', 'R(2)', 'S(2)']
    >>> space.rank(space.unrank(7))
    7
    """

    def __init__(
        self,
        schema: Schema,
        universe: Universe,
        position_universes: Optional[Mapping[str, Sequence[Universe]]] = None,
    ):
        self.schema = schema
        self.universe = universe
        overrides: Dict[str, Tuple[Universe, ...]] = {}
        if position_universes:
            for name, universes in position_universes.items():
                overrides[name] = tuple(universes)
        parts = []
        for symbol in schema:
            argument_universes = overrides.get(
                symbol.name, (universe,) * symbol.arity
            )
            parts.append(_RelationFacts(symbol, argument_universes))
        if not parts:
            raise SchemaError("fact space of an empty schema")
        self._parts = tuple(parts)
        self._union = TaggedUnion(parts)
        self.finite = self._union.finite

    def enumerate(self) -> Iterator[Fact]:
        return self._union.enumerate()  # type: ignore[return-value]

    def __contains__(self, value: object) -> bool:
        return value in self._union

    def rank(self, value: Value) -> int:
        return self._union.rank(value)

    def unrank(self, index: int) -> Fact:
        fact = super().unrank(index)
        assert isinstance(fact, Fact)
        return fact

    def __len__(self) -> int:
        return len(self._union)

    def relation_facts(self, name: str) -> Universe:
        """The sub-universe of facts of one relation."""
        for part in self._parts:
            if part.symbol.name == name:
                return part
        raise SchemaError(f"unknown relation {name!r}")

    def __repr__(self) -> str:
        return f"FactSpace({self.schema!r}, {self.universe!r})"
