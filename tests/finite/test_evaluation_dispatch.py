"""Tests for the auto-dispatch logic of query_probability: safe queries
go lifted, unsafe TI queries fall back to lineage, BID tables use the
block-aware expansion, explicit PDBs enumerate worlds — and all agree."""

import pytest

from repro.finite import (
    Block,
    BlockIndependentTable,
    FinitePDB,
    TupleIndependentTable,
    query_probability,
)
from repro.finite.evaluation import query_probability_by_worlds
from repro.logic import BooleanQuery, parse_formula
from repro.relational import Instance, Schema

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]


def q(text):
    return BooleanQuery(parse_formula(text, schema), schema)


class TestDispatch:
    def test_safe_query_on_large_ti_table(self):
        """A safe query over 60 facts must go through the lifted path —
        lineage would work too, but worlds would be impossible; success
        itself demonstrates the dispatch."""
        marginals = {}
        for i in range(1, 21):
            marginals[R(i)] = 0.05
            marginals[S(i, i)] = 0.1
            marginals[T(i)] = 0.2
        table = TupleIndependentTable(schema, marginals)
        value = query_probability(q("EXISTS x, y. R(x) AND S(x, y)"), table)
        expected = 1 - (1 - 0.005) ** 20
        assert value == pytest.approx(expected, abs=1e-10)

    def test_unsafe_query_falls_back_to_lineage(self):
        """H0 has no safe plan; auto must still return the exact value."""
        table = TupleIndependentTable(schema, {
            R(1): 0.5, S(1, 2): 0.6, T(2): 0.7, R(2): 0.2, S(2, 2): 0.4,
        })
        query = q("EXISTS x, y. R(x) AND S(x, y) AND T(y)")
        assert query_probability(query, table) == pytest.approx(
            query_probability_by_worlds(query, table), abs=1e-10)

    def test_bid_auto(self):
        bid = BlockIndependentTable(schema, [
            Block("a", {R(1): 0.5, R(2): 0.5}),
            Block("b", {T(1): 0.4}),
        ])
        assert query_probability(q("EXISTS x. R(x)"), bid) == pytest.approx(1.0)
        assert query_probability(q("R(1) AND T(1)"), bid) == pytest.approx(0.2)

    @pytest.mark.parametrize("strategy", ["auto", "lineage"])
    def test_bid_evaluation_does_not_sort_the_facts(self, strategy, monkeypatch):
        """Counting a BID table's facts ("auto" picks the residue engine
        by size) and collecting them (lineage) read the unsorted fact
        view: with ``facts()`` disabled both return the same values."""
        bid = BlockIndependentTable(schema, [
            *(Block(f"r{i}", {R(i): 0.3 + 0.05 * i}) for i in range(1, 7)),
            *(Block(f"s{i}", {S(i, i): 0.2, S(i, i + 1): 0.3, S(i, i + 2): 0.1})
              for i in range(1, 7)),
            Block("t", {T(2): 0.4, T(3): 0.5}),
        ])
        queries = [
            q("EXISTS x, y. R(x) AND S(x, y)"),
            q("EXISTS x, y. R(x) AND S(x, y) AND T(y)"),
        ]
        before = [query_probability(query, bid, strategy=strategy) for query in queries]

        def no_sort(self):
            raise AssertionError("BlockIndependentTable.facts() sorts every fact")

        monkeypatch.setattr(BlockIndependentTable, "facts", no_sort)
        after = [query_probability(query, bid, strategy=strategy) for query in queries]
        assert after == before

    def test_explicit_pdb_auto(self):
        pdb = FinitePDB(schema, {
            Instance([R(1), T(1)]): 0.5,   # correlated
            Instance(): 0.5,
        })
        # Correlation must be respected (lineage independence would say
        # 0.25; world enumeration gives the truth, 0.5).
        assert query_probability(q("R(1) AND T(1)"), pdb) == pytest.approx(0.5)

    def test_nullary_relation_query(self):
        zero_schema = Schema.of(P=0, R=1)
        P = zero_schema["P"]
        table = TupleIndependentTable(zero_schema, {P(): 0.3})
        query = BooleanQuery(parse_formula("P()", zero_schema), zero_schema)
        assert query_probability(query, table) == pytest.approx(0.3)
