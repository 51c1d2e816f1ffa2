"""Columnar fact storage: interned facts + parallel value columns.

The engines above this layer (finite tables, the fact index, prefix
caches, the lifted evaluator, BDD rescoring) all reduce their hot loops
to the same three primitives over a truncation's facts:

* *interning* — map a :class:`~repro.relational.facts.Fact` to a dense
  integer row id once, then refer to it by id;
* *gather* — fetch the marginals of a set of row ids as one slice;
* *aggregate* — fold a marginal slice into ``Σ p``, ``Π (1 − p)`` or
  ``1 − Π (1 − p)`` (see :mod:`repro.utils.probability`).

This module stores those primitives as parallel growable columns —
facts, marginals, block ids — behind one :class:`ColumnStore` facade
with the repo's established two-backend pattern: a pure-Python list
fallback and a numpy fast path under the ``[fast]`` extra
(``backend="auto"`` picks numpy when importable).  Extension is strictly
append-only and O(delta), so the refinement engine's warm ε-sweeps keep
their incremental cost; marginals of interned facts never change
(the same invariant the compile cache relies on).

Backends agree bit-near (≤1e-12) with each other and with the historic
dict-of-floats path; the pure-Python backend's aggregates are
bit-identical to it (same fold order, same hybrid underflow policy).

Observability: ``columns.interned`` counts facts interned,
``columns.extends`` counts delta extensions, and
``columns.vectorized_ops`` counts numpy kernel dispatches.

>>> from repro.relational import RelationSymbol
>>> R = RelationSymbol("R", 1)
>>> store = ColumnStore(backend="python")
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

from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.relational.facts import Fact
from repro.utils.probability import (
    disjunction,
    log_product_complement,
    numpy_or_none,
    product_complement,
    segmented_complement_product,
    segmented_disjunction,  # perfbench's span wrappers patch it here
    segmented_fold,
    segmented_log_complement,
    vector_complement_product,
    vector_disjunction,
    vector_log_complement,
)

__all__ = [
    "ColumnStore",
    "FloatColumn",
    "IntColumn",
    "available_backends",
    "resolve_backend",
]

#: Obs counter: facts interned into a column store.
COLUMNS_INTERNED = "columns.interned"
#: Obs counter: delta extensions applied to a column store.
COLUMNS_EXTENDS = "columns.extends"
#: Obs counter: numpy kernel dispatches on any column.
COLUMNS_VECTOR_OPS = "columns.vectorized_ops"

#: No block: the block-id column's value for tuple-independent rows.
NO_BLOCK = -1


def resolve_backend(backend: str = "auto") -> str:
    """Resolve ``"auto"`` to the best available backend and validate.

    >>> resolve_backend("python")
    'python'
    """
    if backend == "auto":
        return "numpy" if numpy_or_none() is not None else "python"
    if backend == "numpy" and numpy_or_none() is None:
        raise ValueError(
            "columnar backend 'numpy' requires numpy "
            "(pip install .[fast]); use backend='python' instead"
        )
    if backend not in ("python", "numpy"):
        raise ValueError(f"unknown columnar backend {backend!r}")
    return backend


def available_backends() -> Tuple[str, ...]:
    """Backends importable right now, pure-Python first."""
    if numpy_or_none() is not None:
        return ("python", "numpy")
    return ("python",)


def _reserved(np, data, size: int, needed: int):
    """``data`` (``size`` rows live) if it holds ``needed`` rows, else a
    copy of its live rows in a buffer doubled (from 16) until it does —
    the capacity appending one row at a time reaches."""
    capacity = len(data)
    if needed <= capacity:
        return data
    while capacity < needed:
        capacity = max(16, 2 * capacity)
    grown = np.empty(capacity, dtype=data.dtype)
    grown[:size] = data[:size]
    return grown


class FloatColumn:
    """A growable float64 column with prefix sums and probability folds.

    Pure-Python backend: a plain list plus an incrementally maintained
    running-sum list (one add per append — the exact arithmetic the
    prefix caches have always used).  Numpy backend: a capacity-doubling
    ``float64`` buffer with a lazily cached ``cumsum`` mirror,
    invalidated by appends and rebuilt at most once per batch of
    queries.

    >>> col = FloatColumn("python")
    >>> col.extend([0.5, 0.25, 0.125])
    3
    >>> col.prefix_sum(2)
    0.75
    >>> col[1], len(col)
    (0.25, 3)
    """

    __slots__ = ("backend", "_np", "_data", "_cumulative", "_size", "_cum")

    def __init__(self, backend: str = "auto"):
        self.backend = resolve_backend(backend)
        self._np = numpy_or_none() if self.backend == "numpy" else None
        if self.backend == "python":
            self._data: List[float] = []
            self._cumulative: List[float] = [0.0]
            self._size = 0
            self._cum = None
        else:
            self._data = self._np.empty(16, dtype=self._np.float64)
            self._cumulative = None
            self._size = 0
            self._cum = None  # lazy cumsum cache

    # ------------------------------------------------------------- mutation
    def append(self, value: float) -> None:
        value = float(value)
        if self.backend == "python":
            self._data.append(value)
            self._cumulative.append(self._cumulative[-1] + value)
            self._size += 1
            return
        if self._size == len(self._data):
            self._data = _reserved(
                self._np, self._data, self._size, self._size + 1)
        self._data[self._size] = value
        self._size += 1
        self._cum = None

    def extend(self, values: Iterable[float]) -> int:
        """Append ``values`` in order, bit for bit as repeated
        :meth:`append` would; returns how many were appended."""
        values = list(map(float, values))
        if self.backend == "python":
            self._data.extend(values)
            # The same left-to-right adds as appending one at a time.
            cumulative = self._cumulative
            cumulative.extend(
                accumulate(values, initial=cumulative.pop()))
        else:
            needed = self._size + len(values)
            self._data = _reserved(self._np, self._data, self._size, needed)
            self._data[self._size:needed] = values
            self._cum = None
        self._size += len(values)
        return len(values)

    # -------------------------------------------------------------- access
    def __len__(self) -> int:
        return self._size

    def __getitem__(self, row: int) -> float:
        if not 0 <= row < self._size:
            raise IndexError(row)
        return float(self._data[row])

    def slice(self, start: int = 0, stop: Optional[int] = None) -> List[float]:
        """Rows ``[start, stop)`` as a plain list."""
        stop = self._size if stop is None else min(stop, self._size)
        if self.backend == "python":
            return self._data[start:stop]
        return self._data[start:stop].tolist()

    def array(self):
        """The live values as a numpy array view (numpy backend only)."""
        if self.backend != "numpy":
            raise ValueError(
                "array() needs the numpy backend "
                f"(this column uses {self.backend!r})"
            )
        return self._data[: self._size]

    def gather(self, rows: Sequence[int]):
        """The values at ``rows`` — a list (python) or array (numpy)."""
        if self.backend == "python":
            data = self._data
            return [data[row] for row in rows]
        obs.incr(COLUMNS_VECTOR_OPS)
        return self.array()[
            self._np.asarray(rows, dtype=self._np.intp)]

    # ---------------------------------------------------------- aggregates
    def prefix_sum(self, n: int) -> float:
        """``Σ`` of the first ``n`` values (all of them past the end)."""
        n = min(n, self._size)
        if self.backend == "python":
            return self._cumulative[n]
        if n == 0:
            return 0.0
        return float(self._cumsum()[n - 1])

    def total(self) -> float:
        return self.prefix_sum(self._size)

    def sum_rows(self, rows: Sequence[int]) -> float:
        if self.backend == "python":
            data = self._data
            return sum(data[row] for row in rows)
        obs.incr(COLUMNS_VECTOR_OPS)
        return float(self.gather(rows).sum())

    def complement_product(self, rows: Optional[Sequence[int]] = None) -> float:
        """``Π (1 − p_i)`` over all rows (or a row subset)."""
        if self.backend == "python":
            values = self._data if rows is None else (
                self._data[row] for row in rows)
            return product_complement(values)
        obs.incr(COLUMNS_VECTOR_OPS)
        values = self.array() if rows is None else self.gather(rows)
        return vector_complement_product(self._np, values)

    def log_complement(self, rows: Optional[Sequence[int]] = None) -> float:
        """``Σ log1p(−p_i)`` over all rows (or a row subset)."""
        if self.backend == "python":
            values = self._data if rows is None else (
                self._data[row] for row in rows)
            return log_product_complement(values)
        obs.incr(COLUMNS_VECTOR_OPS)
        values = self.array() if rows is None else self.gather(rows)
        return vector_log_complement(self._np, values)

    def disjunction(self, rows: Optional[Sequence[int]] = None) -> float:
        """``1 − Π (1 − p_i)`` over all rows (or a row subset)."""
        if self.backend == "python":
            values = self._data if rows is None else (
                self._data[row] for row in rows)
            return disjunction(values)
        obs.incr(COLUMNS_VECTOR_OPS)
        values = self.array() if rows is None else self.gather(rows)
        return vector_disjunction(self._np, values)

    # ----------------------------------------------------- segmented folds
    # Group-at-a-time forms for the batched plan executor: ``rows`` is a
    # flat gather list, ``offsets`` (``n_groups + 1`` entries) delimits
    # contiguous per-group segments of it.  Each returns one aggregate
    # per group — a list (python) or float64 array (numpy).

    def segmented_complement_product(
        self, rows: Sequence[int], offsets: Sequence[int]
    ):
        """Per-group ``Π (1 − p_i)`` over row segments."""
        if self.backend == "python":
            data = self._data
            values = [data[row] for row in rows]
            return segmented_complement_product(None, values, offsets)
        obs.incr(COLUMNS_VECTOR_OPS)
        return segmented_complement_product(self._np, self.gather(rows), offsets)

    def segmented_disjunction(self, rows: Sequence[int], offsets: Sequence[int]):
        """Per-group ``1 − Π (1 − p_i)`` over row segments, with the
        state each segment's fold ended in: ``(disjunctions, products,
        residuals, zeros)``, as
        :func:`~repro.utils.probability.segmented_fold` returns them."""
        if self.backend == "python":
            data = self._data
            values = [data[row] for row in rows]
            return segmented_fold(None, values, offsets)
        obs.incr(COLUMNS_VECTOR_OPS)
        return segmented_fold(self._np, self.gather(rows), offsets)

    def segmented_log_complement(
        self, rows: Sequence[int], offsets: Sequence[int]
    ):
        """Per-group ``Σ log1p(−p_i)`` over row segments."""
        if self.backend == "python":
            data = self._data
            values = [data[row] for row in rows]
            return segmented_log_complement(None, values, offsets)
        obs.incr(COLUMNS_VECTOR_OPS)
        return segmented_log_complement(self._np, self.gather(rows), offsets)

    def view(self):
        """The live values, zero-copy: the backing list (python) or the
        array view (numpy).  Callers must not mutate the result."""
        if self.backend == "python":
            return self._data
        return self.array()

    def _cumsum(self):
        if self._cum is None:
            obs.incr(COLUMNS_VECTOR_OPS)
            self._cum = self._np.cumsum(self.array())
        return self._cum


class IntColumn:
    """A growable integer column (block ids); same backends, no folds.

    >>> col = IntColumn("python")
    >>> col.extend([0, 0, 1])
    3
    >>> col[2]
    1
    """

    __slots__ = ("backend", "_np", "_data", "_size")

    def __init__(self, backend: str = "auto"):
        self.backend = resolve_backend(backend)
        self._np = numpy_or_none() if self.backend == "numpy" else None
        if self.backend == "python":
            self._data: List[int] = []
            self._size = 0
        else:
            self._data = self._np.empty(16, dtype=self._np.int64)
            self._size = 0

    def append(self, value: int) -> None:
        if self.backend == "python":
            self._data.append(int(value))
            self._size += 1
            return
        if self._size == len(self._data):
            self._data = _reserved(
                self._np, self._data, self._size, self._size + 1)
        self._data[self._size] = int(value)
        self._size += 1

    def extend(self, values: Iterable[int]) -> int:
        """Append ``values`` in order; returns how many were appended."""
        values = list(map(int, values))
        if self.backend == "python":
            self._data.extend(values)
        else:
            needed = self._size + len(values)
            self._data = _reserved(self._np, self._data, self._size, needed)
            self._data[self._size:needed] = values
        self._size += len(values)
        return len(values)

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, row: int) -> int:
        if not 0 <= row < self._size:
            raise IndexError(row)
        return int(self._data[row])

    def slice(self, start: int = 0, stop: Optional[int] = None) -> List[int]:
        stop = self._size if stop is None else min(stop, self._size)
        if self.backend == "python":
            return self._data[start:stop]
        return self._data[start:stop].tolist()


class ColumnStore:
    """Interned facts with parallel marginal and block-id columns.

    The row id of a fact is its interning order — dense, stable, and
    append-only, so every downstream structure that captured a row id
    (signature indexes, BDD linearizations, prefix caches) stays valid
    across delta extensions.

    >>> from repro.relational import RelationSymbol
    >>> R = RelationSymbol("R", 1)
    >>> store = ColumnStore(backend="python")
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

    def __init__(self, backend: str = "auto"):
        backend = resolve_backend(backend)
        self._rows: Dict[Fact, int] = {}
        self._facts: List[Fact] = []
        self.marginals = FloatColumn(backend)
        self.blocks = IntColumn(backend)

    @property
    def backend(self) -> str:
        return self.marginals.backend

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

    def gather_facts(self, facts: Iterable[Fact]):
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
    ):
        """Per-group ``Π (1 − p)`` over marginal row segments."""
        return self.marginals.segmented_complement_product(rows, offsets)

    def segmented_log_complement(
        self, rows: Sequence[int], offsets: Sequence[int]
    ):
        """Per-group ``Σ log1p(−p)`` over marginal row segments."""
        return self.marginals.segmented_log_complement(rows, offsets)

    def __repr__(self) -> str:
        return (
            f"ColumnStore(rows={len(self._facts)}, "
            f"backend={self.backend!r})"
        )
