"""Columnar storage: append-only growth, gathers and aggregate folds."""

import pytest

from repro import obs
from repro.relational import Schema
from repro.relational.columns import (
    COLUMNS_EXTENDS,
    COLUMNS_INTERNED,
    NO_BLOCK,
    ColumnStore,
    FloatColumn,
    IntColumn,
)

schema = Schema.of(R=1)
R = schema["R"]

#: Columns and folds run on plain Python lists only; the one-value
#: parameter keeps each case's ``[python]`` test id.
BACKENDS = ("python",)


@pytest.mark.parametrize("backend", BACKENDS)
class TestFloatColumn:
    def test_append_and_access(self, backend):
        col = FloatColumn()
        assert col.extend([0.5, 0.25, 0.125]) == 3
        assert len(col) == 3
        assert col[1] == 0.25
        assert col.slice(1, 3) == [0.25, 0.125]
        assert col.slice() == [0.5, 0.25, 0.125]
        with pytest.raises(IndexError):
            col[3]
        with pytest.raises(IndexError):
            col[-1]

    def test_prefix_sums_track_growth(self, backend):
        col = FloatColumn()
        col.extend([0.5, 0.25])
        assert col.prefix_sum(0) == 0.0
        assert col.prefix_sum(2) == 0.75
        assert col.prefix_sum(99) == 0.75  # clipped past the end
        col.append(0.125)
        assert col.prefix_sum(3) == 0.875
        assert col.total() == 0.875

    def test_capacity_growth_past_initial_buffer(self, backend):
        col = FloatColumn()
        values = [i / 100 for i in range(100)]
        col.extend(values)
        assert len(col) == 100
        assert col.slice() == pytest.approx(values)
        assert col.total() == pytest.approx(sum(values), abs=1e-12)

    def test_gather_and_sum_rows(self, backend):
        col = FloatColumn()
        col.extend([0.5, 0.25, 0.125, 0.0625])
        gathered = col.gather([3, 0])
        assert list(gathered) == [0.0625, 0.5]
        assert col.sum_rows([3, 0]) == pytest.approx(0.5625, abs=1e-12)

    def test_probability_folds(self, backend):
        col = FloatColumn()
        col.extend([0.5, 0.5, 0.25])
        assert col.complement_product() == pytest.approx(0.1875, abs=1e-12)
        assert col.disjunction() == pytest.approx(0.8125, abs=1e-12)
        assert col.complement_product([0, 1]) == pytest.approx(
            0.25, abs=1e-12)
        assert col.disjunction([2]) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("backend", BACKENDS)
class TestIntColumn:
    def test_append_and_access(self, backend):
        col = IntColumn()
        assert col.extend([0, 0, 1]) == 3
        assert len(col) == 3
        assert col[2] == 1
        assert col.slice(1) == [0, 1]
        with pytest.raises(IndexError):
            col[5]

    def test_capacity_growth(self, backend):
        col = IntColumn()
        col.extend(range(100))
        assert col.slice() == list(range(100))


@pytest.mark.parametrize("backend", BACKENDS)
class TestColumnStore:
    def test_intern_is_idempotent_and_dense(self, backend):
        store = ColumnStore()
        assert store.intern(R(1), 0.5) == 0
        assert store.intern(R(2), 0.25, block=7) == 1
        assert store.intern(R(1), 0.5) == 0  # re-intern: same row
        assert len(store) == 2
        assert R(1) in store and R(3) not in store
        assert store.row_of(R(2)) == 1
        assert store.get_row(R(3)) is None
        assert store.fact_at(1) == R(2)
        assert store.marginal_at(1) == 0.25
        assert store.block_at(0) == NO_BLOCK
        assert store.block_at(1) == 7
        assert store.facts() == [R(1), R(2)]

    def test_extend_items_is_delta(self, backend):
        store = ColumnStore()
        store.extend_items([(R(1), 0.5), (R(2), 0.25)])
        assert store.extend_items([(R(2), 0.25), (R(3), 0.125)]) == 1
        assert len(store) == 3

    def test_aggregates(self, backend):
        store = ColumnStore()
        store.extend_items([(R(1), 0.5), (R(2), 0.5)])
        assert store.sum_marginals() == 1.0
        assert store.complement_product() == pytest.approx(0.25, abs=1e-12)
        assert store.disjunction() == pytest.approx(0.75, abs=1e-12)

    def test_gather_facts(self, backend):
        store = ColumnStore()
        store.extend_items([(R(1), 0.5), (R(2), 0.25), (R(3), 0.125)])
        assert list(store.gather_facts([R(3), R(1)])) == [0.125, 0.5]


class TestObservability:
    def test_counters_fire(self):
        with obs.trace() as t:
            store = ColumnStore()
            store.extend_items([(R(1), 0.5), (R(2), 0.25)])
            store.intern(R(1), 0.5)  # hit: no intern counted
        assert t.counters[COLUMNS_INTERNED] == 2
        assert t.counters[COLUMNS_EXTENDS] == 1

