"""Columnar fact storage: interned facts + parallel value columns.

The engines above this layer (the fact index, prefix caches, the
lifted evaluator) all reduce their hot loops to the same three
primitives over a truncation's facts:

* *interning* — map a :class:`~repro.relational.facts.Fact` to a dense
  integer row id once, then refer to it by id;
* *gather* — fetch the marginals of a set of row ids as one slice;
* *aggregate* — fold a marginal slice into ``Σ p``, ``Π (1 − p)`` or
  ``1 − Π (1 − p)`` (see :mod:`repro.utils.probability`).

This module stores those primitives as parallel growable columns,
:class:`FloatColumn` and :class:`IntColumn`.  The :class:`ColumnStore`
facade over facts, marginals and block ids has no library user; it is
kept for the benchmark's span rows, which patch it.  Each column is a
plain Python list: a tightening step appends a few
dozen to a few hundred rows and folds segments of about as many, sizes
at which converting to arrays costs more than it saves.  Extension is
strictly append-only and O(delta), so the refinement engine's warm
ε-sweeps keep their incremental cost; marginals of interned facts never
change (the same invariant the compile cache relies on).

Every fold goes through :class:`~repro.utils.probability.ComplementAccumulator`'s
hybrid underflow policy, in row order, so the aggregates are
bit-identical to the dict-of-floats path.

>>> from repro.relational import RelationSymbol
>>> R = RelationSymbol("R", 1)
>>> store = ColumnStore()
>>> store.extend_items([(R(1), 0.5), (R(2), 0.25)])
2
>>> store.row_of(R(1)), len(store)
(0, 2)
>>> store.sum_marginals()
0.75
>>> round(store.disjunction(), 10)
0.625
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.relational.facts import Fact
from repro.utils.probability import (
    disjunction,
    log_product_complement,
    product_complement,
    segmented_complement_product,
    segmented_fold,
    segmented_log_complement,
    sum_left_to_right,
)

# Not called here: perfbench's span wrappers patch these names in this module.
from repro.utils.probability import (  # noqa: F401
    segmented_disjunction,
    vector_complement_product,
    vector_disjunction,
    vector_log_complement,
)

__all__ = [
    "ColumnStore",
    "FloatColumn",
    "IntColumn",
]

#: Obs counter: facts interned into a column store.
COLUMNS_INTERNED = "columns.interned"
#: Obs counter: delta extensions applied to a column store.
COLUMNS_EXTENDS = "columns.extends"

#: No block: the block-id column's value for tuple-independent rows.
NO_BLOCK = -1


class FloatColumn:
    """A growable float column with prefix sums and probability folds.

    A plain list.  Sums fold it left to right when asked: only a BID
    family's total mass reads them, while every tightening step extends
    the columns.

    >>> col = FloatColumn()
    >>> col.extend([0.5, 0.25, 0.125])
    3
    >>> col.prefix_sum(2)
    0.75
    >>> col[1], len(col)
    (0.25, 3)
    """

    __slots__ = ("_data",)

    def __init__(self) -> None:
        self._data: List[float] = []

    # ------------------------------------------------------------- mutation
    def append(self, value: float) -> None:
        self._data.append(float(value))

    def extend(self, values: Iterable[float]) -> int:
        """Append ``values`` in order; returns how many were appended."""
        values = list(map(float, values))
        self._data.extend(values)
        return len(values)

    # -------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, row: int) -> float:
        if not 0 <= row < len(self._data):
            raise IndexError(row)
        return self._data[row]

    def slice(self, start: int = 0, stop: Optional[int] = None) -> List[float]:
        """Rows ``[start, stop)`` as a plain list."""
        return self._data[start:stop]

    def gather(self, rows: Sequence[int]) -> List[float]:
        """The values at ``rows``."""
        data = self._data
        return [data[row] for row in rows]

    def view(self) -> List[float]:
        """The live values, zero-copy: the backing list.  Callers must
        not mutate the result."""
        return self._data

    # ---------------------------------------------------------- aggregates
    def prefix_sum(self, n: int) -> float:
        """``Σ`` of the first ``n`` values (all of them past the end),
        added left to right."""
        return sum_left_to_right(islice(self._data, n))

    def total(self) -> float:
        return sum_left_to_right(self._data)

    def sum_rows(self, rows: Sequence[int]) -> float:
        return sum_left_to_right(self._values(rows))

    def _values(self, rows: Optional[Sequence[int]]) -> Iterable[float]:
        if rows is None:
            return self._data
        data = self._data
        return (data[row] for row in rows)

    def complement_product(self, rows: Optional[Sequence[int]] = None) -> float:
        """``Π (1 − p_i)`` over all rows (or a row subset)."""
        return product_complement(self._values(rows))

    def log_complement(self, rows: Optional[Sequence[int]] = None) -> float:
        """``Σ log1p(−p_i)`` over all rows (or a row subset)."""
        return log_product_complement(self._values(rows))

    def disjunction(self, rows: Optional[Sequence[int]] = None) -> float:
        """``1 − Π (1 − p_i)`` over all rows (or a row subset)."""
        return disjunction(self._values(rows))

    # ----------------------------------------------------- segmented folds
    # Group-at-a-time forms for the batched plan executor: ``rows`` is a
    # flat gather list, ``offsets`` (``n_groups + 1`` entries) delimits
    # contiguous per-group segments of it.  Each returns one aggregate
    # per group.

    def segmented_complement_product(
        self, rows: Sequence[int], offsets: Sequence[int]
    ) -> List[float]:
        """Per-group ``Π (1 − p_i)`` over row segments."""
        return segmented_complement_product(None, self.gather(rows), offsets)

    def segmented_disjunction(self, rows: Sequence[int], offsets: Sequence[int]):
        """Per-group ``1 − Π (1 − p_i)`` over row segments, with the
        state each segment's fold ended in: ``(disjunctions, products,
        residuals, zeros)``, as
        :func:`~repro.utils.probability.segmented_fold` returns them."""
        return segmented_fold(None, self.gather(rows), offsets)

    def segmented_log_complement(
        self, rows: Sequence[int], offsets: Sequence[int]
    ) -> List[float]:
        """Per-group ``Σ log1p(−p_i)`` over row segments."""
        return segmented_log_complement(None, self.gather(rows), offsets)


class IntColumn:
    """A growable integer column (block ids); no folds.

    >>> col = IntColumn()
    >>> col.extend([0, 0, 1])
    3
    >>> col[2]
    1
    """

    __slots__ = ("_data",)

    def __init__(self) -> None:
        self._data: List[int] = []

    def append(self, value: int) -> None:
        self._data.append(int(value))

    def extend(self, values: Iterable[int]) -> int:
        """Append ``values`` in order; returns how many were appended."""
        values = list(map(int, values))
        self._data.extend(values)
        return len(values)

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, row: int) -> int:
        if not 0 <= row < len(self._data):
            raise IndexError(row)
        return self._data[row]

    def slice(self, start: int = 0, stop: Optional[int] = None) -> List[int]:
        return self._data[start:stop]


class ColumnStore:
    """Interned facts with parallel marginal and block-id columns.

    The row id of a fact is its interning order — dense, stable, and
    append-only, so every downstream structure that captured a row id
    (signature indexes, BDD linearizations, prefix caches) stays valid
    across delta extensions.

    >>> from repro.relational import RelationSymbol
    >>> R = RelationSymbol("R", 1)
    >>> store = ColumnStore()
    >>> store.intern(R(1), 0.5)
    0
    >>> store.intern(R(1), 0.5)       # already interned: same row
    0
    >>> store.extend_items([(R(2), 0.25)])
    1
    >>> store.marginal_at(1), store.block_at(1)
    (0.25, -1)
    """

    __slots__ = ("_rows", "_facts", "marginals", "blocks")

    def __init__(self) -> None:
        self._rows: Dict[Fact, int] = {}
        self._facts: List[Fact] = []
        self.marginals = FloatColumn()
        self.blocks = IntColumn()

    # ------------------------------------------------------------- mutation
    def intern(self, fact: Fact, marginal: float, block: int = NO_BLOCK) -> int:
        """The row id of ``fact``, interning it (with its marginal and
        block id) on first sight."""
        row = self._rows.get(fact)
        if row is not None:
            return row
        row = len(self._facts)
        self._rows[fact] = row
        self._facts.append(fact)
        self.marginals.append(marginal)
        self.blocks.append(block)
        obs.incr(COLUMNS_INTERNED)
        return row

    def extend_items(
        self,
        items: Iterable[Tuple[Fact, float]],
        block: int = NO_BLOCK,
    ) -> int:
        """Intern ``(fact, marginal)`` pairs; returns the number of new
        rows (O(delta) — existing facts are skipped)."""
        before = len(self._facts)
        for fact, marginal in items:
            self.intern(fact, marginal, block)
        obs.incr(COLUMNS_EXTENDS)
        return len(self._facts) - before

    # -------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, fact: object) -> bool:
        return fact in self._rows

    def row_of(self, fact: Fact) -> int:
        """The row id of an interned fact (KeyError otherwise)."""
        return self._rows[fact]

    def get_row(self, fact: Fact) -> Optional[int]:
        return self._rows.get(fact)

    def fact_at(self, row: int) -> Fact:
        return self._facts[row]

    def marginal_at(self, row: int) -> float:
        return self.marginals[row]

    def block_at(self, row: int) -> int:
        return self.blocks[row]

    def facts(self) -> List[Fact]:
        """All interned facts in row order (a copy)."""
        return list(self._facts)

    def gather_facts(self, facts: Iterable[Fact]) -> List[float]:
        """Marginal slice for the given facts (must be interned)."""
        rows = self._rows
        return self.marginals.gather([rows[fact] for fact in facts])

    # ---------------------------------------------------------- aggregates
    def sum_marginals(self) -> float:
        """``Σ p`` over every row — expected instance size."""
        return self.marginals.total()

    def complement_product(self) -> float:
        """``Π (1 − p)`` over every row — empty-world probability."""
        return self.marginals.complement_product()

    def log_complement(self) -> float:
        return self.marginals.log_complement()

    def disjunction(self) -> float:
        return self.marginals.disjunction()

    def segmented_disjunction(self, rows: Sequence[int], offsets: Sequence[int]):
        """Per-group ``1 − Π (1 − p)`` over marginal row segments, with
        each segment's fold state (:meth:`FloatColumn.segmented_disjunction`)."""
        return self.marginals.segmented_disjunction(rows, offsets)

    def segmented_complement_product(
        self, rows: Sequence[int], offsets: Sequence[int]
    ) -> List[float]:
        """Per-group ``Π (1 − p)`` over marginal row segments."""
        return self.marginals.segmented_complement_product(rows, offsets)

    def segmented_log_complement(
        self, rows: Sequence[int], offsets: Sequence[int]
    ) -> List[float]:
        """Per-group ``Σ log1p(−p)`` over marginal row segments."""
        return self.marginals.segmented_log_complement(rows, offsets)

    def __repr__(self) -> str:
        return f"ColumnStore(rows={len(self._facts)})"
