"""Tightening steps move whole slices: each batched growth path equals
its one-item-at-a-time reference.

Columns extend by a list, the fact index by a batch, the TI table
validates a batch at once, the prefix cache pulls a slice, and the fact
space interleaves its parts in one round-robin.  Every test compares the
batched path against the item-at-a-time behaviour it replaced, bit for
bit and in order.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fact_distribution import TableFactDistribution
from repro.errors import ProbabilityError, SchemaError
from repro.finite.tuple_independent import TupleIndependentTable
from repro.relational import Schema
from repro.relational.columns import FloatColumn, IntColumn
from repro.relational.index import FactIndex
from repro.universe import Naturals
from repro.universe.union import FiniteUniverse, TaggedUnion

#: Columns and folds run on plain Python lists only; the one-value
#: parameter keeps each case's ``[python]`` test id.
BACKENDS = ("python",)

schema = Schema.of(R=1, S=2)
R, S = schema["R"], schema["S"]
T = Schema.of(T=1)["T"]

probabilities = st.floats(min_value=0.0, max_value=1.0)
#: Up to six batches of up to 70 values each.
batches = st.lists(st.lists(probabilities, max_size=70), max_size=6)


def column_state(column):
    return {
        "values": column.slice(),
        "len": len(column),
        "prefix": [column.prefix_sum(n).hex() for n in range(len(column) + 1)],
    }


class TestColumns:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=60, deadline=None)
    @given(batches=batches)
    def test_float_extend_equals_appends(self, backend, batches):
        batched, appended = FloatColumn(), FloatColumn()
        for batch in batches:
            assert batched.extend(iter(batch)) == len(batch)
            for value in batch:
                appended.append(value)
            assert column_state(batched) == column_state(appended)
        assert [v.hex() for v in batched.slice()] == [
            float(v).hex() for v in itertools.chain.from_iterable(batches)]

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=40, deadline=None)
    @given(batches=st.lists(
        st.lists(st.integers(min_value=-1, max_value=10**6), max_size=70),
        max_size=6))
    def test_int_extend_equals_appends(self, backend, batches):
        batched, appended = IntColumn(), IntColumn()
        for batch in batches:
            assert batched.extend(batch) == len(batch)
            for value in batch:
                appended.append(value)
            assert batched.slice() == appended.slice()
            assert len(batched) == len(appended)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_running_sums_keep_the_append_order(self, backend):
        # Sums that round differently in another order.
        values = [1.0, 1e-16, 1e-16, 1e-16, -1.0, 0.1, 0.2, 0.3] * 9
        batched, appended = FloatColumn(), FloatColumn()
        batched.extend(values[:5])
        batched.extend(values[5:])
        for value in values:
            appended.append(value)
        assert column_state(batched) == column_state(appended)


facts = st.one_of(
    st.builds(R, st.integers(0, 6)),
    st.builds(S, st.integers(0, 4), st.integers(0, 4)),
)
SIGNATURES = [(R, (0,)), (S, (0,)), (S, (1,)), (S, (0, 1))]


def index_state(index):
    return {
        "rows": list(index._rows.items()),
        "facts": list(index._row_facts),
        "relations": {r: list(rows) for r, rows in index._by_relation.items()},
        "values": index.values,
        "signatures": {
            key: [(k, list(bucket)) for k, bucket in table.items()]
            for key, table in index._signatures.items()},
    }


class TestFactIndex:
    @settings(max_examples=80, deadline=None)
    @given(first=st.lists(facts, max_size=12),
           steps=st.lists(st.lists(facts, max_size=15), max_size=4),
           built=st.lists(st.sampled_from(SIGNATURES), max_size=4))
    def test_batch_equals_fact_at_a_time(self, first, steps, built):
        batched, single = FactIndex(first), FactIndex()
        for fact in first:
            single.extend([fact])
        for relation, positions in built:
            batched.signature_table(relation, positions)
            single.signature_table(relation, positions)
        for step in steps:
            # Repeats inside the batch and facts indexed by earlier steps.
            step = step + step[:3] + first[:2]
            added = sum(single.extend([fact]) for fact in step)
            assert batched.extend(step) == added
            assert index_state(batched) == index_state(single)
        for relation, positions in SIGNATURES:
            assert (list(batched.signature_table(relation, positions).items())
                    == list(single.signature_table(relation, positions).items()))

    def test_a_batch_of_known_facts_adds_nothing(self):
        index = FactIndex([R(1), S(1, 2)])
        index.signature_table(S, (0,))
        before = index_state(index)
        assert index.extend([S(1, 2), R(1), R(1)]) == 0
        assert index_state(index) == before

    def test_marginal_column_follows_the_rows(self):
        table = TupleIndependentTable(schema, {R(1): 0.5, S(1, 2): 0.25})
        index = table.index
        assert index.marginal_column(table).slice() == [0.5, 0.25]
        table.extend({S(2, 1): 0.125, R(3): 0.75})
        assert index.marginal_column(table).slice() == [0.5, 0.25, 0.125, 0.75]


def raised(make):
    with pytest.raises((ProbabilityError, SchemaError)) as info:
        make()
    return type(info.value), str(info.value)


class TestTableValidation:
    """The errors the fact-at-a-time validation raised, with their
    messages, for the first offending fact in batch order."""

    BAD_MARGINAL = (
        ProbabilityError, "marginal of R(2) must lie in [0, 1], got 1.5")
    FOREIGN = (SchemaError, "fact T(1) not over schema Schema({R/1, S/2})")
    CHANGED = (
        ProbabilityError,
        "extend would change the marginal of R(1) from 0.5 to 0.25")

    @pytest.mark.parametrize("batch, error", [
        ({R(3): 0.1, R(2): 1.5, T(1): 0.5}, BAD_MARGINAL),
        ({R(3): 0.1, T(1): 0.5, R(2): 1.5}, FOREIGN),
        ({R(3): 0.1, R(1): 0.25, T(1): 0.5}, CHANGED),
        ({R(2): float("nan")},
         (ProbabilityError, "marginal of R(2) must lie in [0, 1], got nan")),
        ({R(1): 0.0},
         (ProbabilityError,
          "extend would change the marginal of R(1) from 0.5 to 0.0")),
    ])
    def test_extend_raises_for_the_first_offender(self, batch, error):
        table = TupleIndependentTable(schema, {R(1): 0.5, S(1, 2): 0.25})
        index = table.index
        before = list(table.marginals.items())
        assert raised(lambda: table.extend(batch)) == error
        assert list(table.marginals.items()) == before
        assert list(index) == [R(1), S(1, 2)]
        assert table.expected_size() == 0.75
        assert table.empty_world_probability() == 0.375

    @pytest.mark.parametrize("batch, error", [
        ({R(1): 0.5, R(2): 1.5, T(1): 0.5}, BAD_MARGINAL),
        ({R(1): 0.5, T(1): 0.5, R(2): 1.5}, FOREIGN),
    ])
    def test_construction_raises_for_the_first_offender(self, batch, error):
        assert raised(lambda: TupleIndependentTable(schema, batch)) == error

    def test_relisted_facts_and_zero_marginals_add_nothing(self):
        table = TupleIndependentTable(
            schema, {R(1): 0.5, R(2): 0, S(1, 2): 1})
        assert list(table.marginals.items()) == [(R(1), 0.5), (S(1, 2), 1.0)]
        index = table.index
        table.extend({R(3): 0.25, R(1): 0.5, S(2, 2): 0.0, S(1, 1): 0.75})
        assert list(table.marginals.items()) == [
            (R(1), 0.5), (S(1, 2), 1.0), (R(3), 0.25), (S(1, 1), 0.75)]
        assert list(index) == list(table.marginals)


class TestPrefixCache:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_short_slice_sets_exhausted(self, backend):
        distribution = TableFactDistribution(
            {R(1): 0.5, R(2): 0.25, R(3): 0.125})
        cache = distribution.prefix_cache()
        assert cache.extend_to(2) == 2
        assert not cache.exhausted
        assert cache.extend_to(10) == 3
        assert cache.exhausted
        assert cache.extend_to(20) == 3
        assert cache.pairs(0, 10) == [(R(1), 0.5), (R(2), 0.25), (R(3), 0.125)]
        assert cache.cumulative_mass(10) == 0.875


def round_robin(iterables):
    """The one-item-at-a-time interleaving the fact space used before."""
    iterators = [iter(it) for it in iterables]
    while iterators:
        alive = []
        for iterator in iterators:
            try:
                yield next(iterator)
            except StopIteration:
                continue
            alive.append(iterator)
        iterators = alive


PARTS = {
    "empty": lambda: FiniteUniverse([]),
    "one": lambda: FiniteUniverse(["a"]),
    "three": lambda: FiniteUniverse(["b", "c", "d"]),
    "naturals": Naturals,
}


class TestTaggedUnion:
    @pytest.mark.parametrize("names", [
        ("empty",), ("three",), ("naturals",), ("empty", "three"),
        ("three", "empty", "one"), ("one", "naturals"), ("naturals", "three"),
        ("empty", "naturals", "three", "one"),
    ], ids="-".join)
    def test_keeps_the_round_robin_order(self, names):
        union = TaggedUnion([PARTS[name]() for name in names])
        parts = [PARTS[name]().enumerate() for name in names]
        want = list(itertools.islice(round_robin(parts), 40))
        assert list(itertools.islice(union.enumerate(), 40)) == want
        if union.finite:
            assert len(want) == len(union) < 40
        for rank, value in enumerate(want):
            assert union.rank(value) == rank
