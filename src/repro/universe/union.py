"""Finite universes and unions of universes.

Example 5.7 of the paper uses ``U = {A, B, C, D} ∪ ℕ``; Example 2.4 uses
``Σ* ∪ ℝ``.  :class:`TaggedUnion` interleaves the enumerations of its
parts fairly, so infinite parts do not starve each other.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from repro.errors import UniverseError
from repro.relational.facts import Value
from repro.universe.base import Universe
from repro.utils.enumeration import interleave


class FiniteUniverse(Universe):
    """An explicitly listed finite universe.

    >>> u = FiniteUniverse(["A", "B", "C"])
    >>> u.rank("B"), len(u)
    (1, 3)
    """

    finite = True

    def __init__(self, values: Sequence[Value]):
        values = tuple(values)
        if len(set(values)) != len(values):
            raise UniverseError("finite universe values must be distinct")
        self.values = values
        self._rank = {v: i for i, v in enumerate(values)}

    def enumerate(self) -> Iterator[Value]:
        return iter(self.values)

    def __contains__(self, value: object) -> bool:
        try:
            return value in self._rank
        except TypeError:
            return False

    def rank(self, value: Value) -> int:
        try:
            return self._rank[value]
        except KeyError:
            raise UniverseError(f"{value!r} not in {self!r}") from None

    def unrank(self, index: int) -> Value:
        if not 0 <= index < len(self.values):
            raise UniverseError(f"rank {index} out of range")
        return self.values[index]

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"FiniteUniverse({list(self.values)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteUniverse) and self.values == other.values

    def __hash__(self) -> int:
        return hash(("FiniteUniverse", self.values))


class TaggedUnion(Universe):
    """The union of several universes with *disjoint* value sets.

    Enumeration interleaves the parts round-robin: finite parts are
    exhausted and dropped, infinite parts keep contributing.  Membership
    and ranks delegate to the first part containing a value; the caller
    must ensure the parts are disjoint as value sets (e.g. strings vs
    integers), which is checked lazily on rank collisions only.

    >>> from repro.universe.naturals import Naturals
    >>> u = TaggedUnion([FiniteUniverse(["A", "B"]), Naturals()])
    >>> u.prefix(6)
    ['A', 1, 'B', 2, 3, 4]
    >>> u.rank("B"), u.rank(1)
    (2, 1)
    """

    def __init__(self, parts: Sequence[Universe]):
        parts = tuple(parts)
        if not parts:
            raise UniverseError("union of no universes")
        self.parts: Tuple[Universe, ...] = parts
        self.finite = all(part.finite for part in parts)

    def enumerate(self) -> Iterator[Value]:
        return interleave(*(part.enumerate() for part in self.parts))

    def __contains__(self, value: object) -> bool:
        return any(value in part for part in self.parts)

    def rank(self, value: Value) -> int:
        """Rank in the interleaved enumeration (closed form).

        The element with rank r in part i appears after all elements of
        every part with smaller per-part rank, plus the parts before i in
        the same round — adjusted for finite parts that have dropped out
        of earlier rounds.
        """
        if value not in self:
            raise UniverseError(f"{value!r} not in {self!r}")
        part_index = next(
            i for i, part in enumerate(self.parts) if value in part
        )
        inner = self.parts[part_index].rank(value)
        # Elements emitted before (part_index, inner): every part j
        # contributes its first min(|part_j|, inner) elements (rounds
        # 0..inner−1), plus the parts before part_index that are still
        # alive in round `inner`.  O(#parts), independent of the rank.
        position = 0
        for j, part in enumerate(self.parts):
            size = self._part_size(part)
            position += int(min(size, inner))
            if j < part_index and size > inner:
                position += 1
        return position

    @staticmethod
    def _part_size(part: Universe) -> float:
        if part.finite:
            return len(part)
        return float("inf")

    def __repr__(self) -> str:
        return f"TaggedUnion({list(self.parts)!r})"
