"""Differential properties: the columnar layout agrees with the historic
dict-of-floats layout on every operation the engines actually run —
extend, aggregate, prefix sums, row-subset folds, truncate,
prefix-for-tail, index probes — plus an import guard proving the whole
stack works, to the same bits, with numpy unimportable."""

import math
import os
import pathlib
import pickle
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.core.fact_distribution import TableFactDistribution
from repro.core.tuple_independent import CountableTIPDB
from repro.finite.bid import Block, BlockIndependentTable
from repro.finite.evaluation import query_probability
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic import BooleanQuery, parse_formula
from repro.relational import Schema
from repro.relational.columns import ColumnStore
from repro.relational.index import FactIndex
from repro.utils.probability import disjunction, product_complement

schema = Schema.of(R=1, S=2)
R, S = schema["R"], schema["S"]

#: Dyadic marginals keep dict-vs-columnar sums exactly comparable.
dyadic = st.integers(min_value=1, max_value=63).map(lambda k: k / 64)
marginal_lists = st.lists(dyadic, min_size=1, max_size=25)
#: Non-dyadic marginals round when added: only the same adds in the same
#: order give the same bits.
rounding = st.floats(min_value=0.001, max_value=0.999)
any_marginal_lists = st.one_of(
    marginal_lists, st.lists(rounding, min_size=1, max_size=25))


def dict_layout(weights):
    return {R(i + 1): w for i, w in enumerate(weights)}


def left_to_right(values):
    """The dict path's running sum: plain adds from 0.0, in order."""
    total = 0.0
    for value in values:
        total += value
    return total


class TestStoreMatchesDict:
    @given(marginal_lists, marginal_lists)
    @settings(max_examples=80, deadline=None)
    def test_extend_then_aggregate(self, first, delta):
        """Building in one shot and building by delta extension agree
        with the dict layout on every aggregate, bit for bit: the columns
        fold the same values in the same order."""
        marginals = dict_layout(first + delta)
        values = list(marginals.values())
        store = ColumnStore()
        store.extend_items(dict_layout(first).items())
        store.extend_items(marginals.items())  # delta: overlap skipped
        assert len(store) == len(marginals)
        assert store.facts() == list(marginals)
        assert store.sum_marginals() == math.fsum(values)  # dyadic: exact
        assert store.complement_product() == product_complement(values)
        assert store.disjunction() == disjunction(values)
        assert store.gather_facts(marginals) == values

    @given(any_marginal_lists, st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefix_sums_and_row_subsets(self, weights, data):
        """Cumulative masses and row-subset folds (the truncation search
        and the per-answer rescoring) equal the dict path's scans bit
        for bit, on rounding marginals too, however the rows arrived."""
        marginals = dict_layout(weights)
        facts = list(marginals)
        items = list(marginals.items())
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(items)), max_size=4)))
        store = ColumnStore()
        for start, stop in zip([0] + cuts, cuts + [len(items)]):
            store.extend_items(items[start:stop])
        column = store.marginals
        for n in range(len(facts) + 2):
            assert column.prefix_sum(n) == left_to_right(weights[:n])
        assert column.total() == left_to_right(weights)
        rows = data.draw(st.lists(
            st.integers(0, len(facts) - 1), unique=True))
        chosen = [marginals[facts[row]] for row in rows]
        assert column.sum_rows(rows) == left_to_right(chosen)
        assert column.complement_product(rows) == product_complement(chosen)
        assert column.disjunction(rows) == disjunction(chosen)


class TestTableMatchesDict:
    @given(any_marginal_lists, st.lists(any_marginal_lists, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_extend_keeps_columns_in_sync(self, first, deltas):
        """The aggregates read the table's own marginals in insertion
        order: after growth by extension they equal the plain
        left-to-right sum and the complement fold, bit for bit, and a
        table built in one go."""
        table = TupleIndependentTable(schema, dict_layout(first))
        assert table.expected_size() == left_to_right(first)
        weights = first
        for delta in deltas:
            weights = weights + delta
            table.extend(dict_layout(weights))
        marginals = table.marginals
        assert list(marginals.values()) == weights
        assert table.marginal_values(marginals) == weights
        assert table.expected_size() == left_to_right(weights)
        assert table.empty_world_probability() == product_complement(weights)
        built = TupleIndependentTable(schema, dict_layout(weights))
        assert built.expected_size() == table.expected_size()
        assert built.empty_world_probability() == (
            table.empty_world_probability())

    @given(any_marginal_lists, st.lists(any_marginal_lists, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_bid_expected_size_is_the_left_to_right_sum(self, first, deltas):
        """A BID table's expected size adds its alternatives in block
        order, from its first blocks and from every appended batch,
        bit for bit like the dict path."""
        def blocks(weights, start):
            # Two alternatives of marginal w/2 each: the block sums to w.
            return [
                Block(f"k{start + i}", {
                    R(2 * (start + i)): w / 2, R(2 * (start + i) + 1): w / 2})
                for i, w in enumerate(weights)
            ]

        table = BlockIndependentTable(schema, blocks(first, 0))
        assert table.expected_size() == left_to_right(
            w / 2 for w in first for _ in range(2))
        added = len(first)
        for delta in deltas:
            table.extend(blocks(delta, added))
            added += len(delta)
        alternatives = [
            p for block in table.blocks for p in block.alternatives.values()]
        assert table.expected_size() == left_to_right(alternatives)

    @given(marginal_lists)
    @settings(max_examples=40, deadline=None)
    def test_pickle_round_trip_drops_and_rebuilds(self, weights):
        """The ``workers=`` fan-out path: pickled state carries no
        derived index, and the clone's aggregates keep their bits."""
        table = TupleIndependentTable(schema, dict_layout(weights))
        table.index  # build the index before pickling
        state = table.__getstate__()
        assert "_index" not in state
        clone = pickle.loads(pickle.dumps(table))
        assert clone._index is None  # not shipped
        assert clone.expected_size() == table.expected_size()
        assert clone.empty_world_probability() == (
            table.empty_world_probability())


class TestTruncationMatchesDict:
    @staticmethod
    def enumeration_order(marginals):
        """The distribution's canonical order: decreasing probability,
        ties broken by the fact sort key (paper §6 best case)."""
        return sorted(marginals.items(), key=lambda kv: (-kv[1], kv[0].sort_key()))

    @given(marginal_lists, st.integers(min_value=0, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_truncate_prefix(self, weights, n):
        """truncate(n) through the columnar prefix cache lists exactly
        the first n facts of the dict layout in enumeration order."""
        marginals = dict_layout(weights)
        pdb = CountableTIPDB(schema, TableFactDistribution(marginals))
        truncated = pdb.truncate(n)
        assert truncated.marginals == dict(
            self.enumeration_order(marginals)[:n])

    @given(marginal_lists, st.integers(min_value=1, max_value=65))
    @settings(max_examples=60, deadline=None)
    def test_prefix_for_tail_matches_linear_scan(self, weights, bound_k):
        bound = bound_k / 64
        marginals = dict_layout(weights)
        ordered = [p for _, p in self.enumeration_order(marginals)]
        d = TableFactDistribution(marginals)
        expected = None
        for n in range(len(ordered) + 1):
            if math.fsum(ordered[n:]) <= bound:
                expected = n
                break
        assert d.prefix_for_tail(bound) == expected


class TestIndexMatchesDict:
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            min_size=1, max_size=30,
        ),
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            max_size=15,
        ),
        st.integers(0, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_probes_equal_linear_filter(self, pairs, delta, key):
        """Signature probes (built before AND after a delta extension)
        return exactly the facts a linear dict-style scan returns, and
        probe_rows ids decode to the same facts."""
        facts = [S(a, b) for a, b in pairs]
        index = FactIndex(facts)
        index.probe(S, {0: key})  # materialize the signature pre-delta
        new_facts = [S(a, b) for a, b in delta]
        index.extend(new_facts)
        all_facts = list(dict.fromkeys(facts + new_facts))
        for bound in ({0: key}, {1: key}, {0: key, 1: key}, {}):
            expected = [
                f for f in all_facts
                if all(f.args[i] == v for i, v in bound.items())
            ]
            assert list(index.probe(S, bound)) == expected
            rows = index.probe_rows(S, bound)
            assert [index.fact_at(r) for r in rows] == expected

    @given(marginal_lists, marginal_lists)
    @settings(max_examples=40, deadline=None)
    def test_marginal_column_tracks_table_growth(self, first, delta):
        table = TupleIndependentTable(schema, dict_layout(first))
        index = FactIndex(table.facts())
        column = index.marginal_column(table)
        assert column.slice() == [table.marginal(f) for f in table.facts()]
        table.extend(dict_layout(first + delta))
        index.extend(table.facts())
        column = index.marginal_column(table)
        assert len(column) == len(index)
        assert column.slice() == [
            table.marginal(index.fact_at(row)) for row in range(len(index))
        ]


NO_NUMPY_SCRIPT = """
import sys
sys.modules["numpy"] = None  # any import attempt raises ImportError

from repro.finite.evaluation import query_probability
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic import BooleanQuery, parse_formula
from repro.relational import Schema

schema = Schema.of(R=1, S=2)
R, S = schema["R"], schema["S"]
table = TupleIndependentTable(
    schema, {R(1): 0.5, R(2): 0.25, S(1, 2): 0.5, S(2, 2): 0.5})
assert table.expected_size() == 1.75
assert table.empty_world_probability() == 0.09375
query = BooleanQuery(parse_formula("EXISTS x, y. R(x) AND S(x, y)", schema), schema)
for strategy in ("lifted", "bdd", "auto"):
    assert query_probability(query, table, strategy=strategy) == 0.34375, strategy
print(repr(query_probability(query, table, strategy="sampled")))
"""


def test_everything_works_without_numpy():
    """Import guard: with numpy unimportable the column aggregates and
    the lifted and BDD strategies still run, to the same bits, and the
    seeded sampled strategy returns what it returns in this process."""
    repo_root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
    result = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT],
        capture_output=True, text=True, env=env, cwd=repo_root,
    )
    assert result.returncode == 0, result.stderr
    table = TupleIndependentTable(
        schema, {R(1): 0.5, R(2): 0.25, S(1, 2): 0.5, S(2, 2): 0.5})
    query = BooleanQuery(
        parse_formula("EXISTS x, y. R(x) AND S(x, y)", schema), schema)
    sampled = query_probability(query, table, strategy="sampled")
    assert result.stdout.strip() == repr(sampled)
