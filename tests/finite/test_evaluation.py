"""Tests for exact query evaluation: all strategies agree with the
possible-worlds ground truth."""

import pytest

from repro.errors import EvaluationError
from repro.finite import (
    BlockIndependentTable,
    Block,
    FinitePDB,
    TupleIndependentTable,
    marginal_answer_probabilities,
    query_probability,
    query_probability_by_worlds,
)
from repro.logic import BooleanQuery, Query, parse_formula
from repro.relational import Instance, Schema

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]


def q(text):
    return BooleanQuery(parse_formula(text, schema), schema)


def small_ti():
    return TupleIndependentTable(schema, {
        R(1): 0.5, R(2): 0.3,
        S(1, 1): 0.7, S(1, 2): 0.2, S(2, 1): 0.4,
        T(1): 0.6,
    })


QUERIES = [
    "EXISTS x. R(x)",
    "EXISTS x, y. S(x, y)",
    "EXISTS x. R(x) AND EXISTS y. S(x, y)",
    "EXISTS x, y. R(x) AND S(x, y) AND T(y)",          # H0: unsafe
    "FORALL x. R(x) -> EXISTS y. S(x, y)",
    "NOT EXISTS x. R(x) AND T(x)",
    "R(1) OR S(2, 1)",
]


class TestStrategyAgreement:
    @pytest.mark.parametrize("text", QUERIES)
    def test_lineage_matches_worlds(self, text):
        table = small_ti()
        expected = query_probability_by_worlds(q(text), table)
        actual = query_probability(q(text), table, strategy="lineage")
        assert actual == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("text", QUERIES)
    def test_auto_matches_worlds(self, text):
        table = small_ti()
        expected = query_probability_by_worlds(q(text), table)
        actual = query_probability(q(text), table, strategy="auto")
        assert actual == pytest.approx(expected, abs=1e-10)

    def test_unknown_strategy(self):
        with pytest.raises(EvaluationError):
            query_probability(q("EXISTS x. R(x)"), small_ti(), strategy="magic")

    def test_lifted_supports_bid(self):
        # Alternatives of one block are mutually exclusive: the lifted
        # plan applies the disjoint-union rule, P = 0.5 + 0.3.
        bid = BlockIndependentTable(
            schema, [Block("b", {R(1): 0.5, R(2): 0.3})])
        assert query_probability(
            q("EXISTS x. R(x)"), bid, strategy="lifted"
        ) == pytest.approx(0.8)

    def test_lifted_requires_ti_or_bid(self):
        worlds = FinitePDB(schema, {Instance([R(1)]): 0.5, Instance(): 0.5})
        with pytest.raises(EvaluationError):
            query_probability(q("R(1)"), worlds, strategy="lifted")


class TestHandComputedProbabilities:
    def test_exists_r(self):
        table = TupleIndependentTable(schema, {R(1): 0.5, R(2): 0.5})
        assert query_probability(q("EXISTS x. R(x)"), table) == pytest.approx(0.75)

    def test_conjunction_of_independent_facts(self):
        table = TupleIndependentTable(schema, {R(1): 0.5, T(2): 0.4})
        assert query_probability(q("R(1) AND T(2)"), table) == pytest.approx(0.2)

    def test_negation(self):
        table = TupleIndependentTable(schema, {R(1): 0.3})
        assert query_probability(q("NOT R(1)"), table) == pytest.approx(0.7)

    def test_bid_disjoint_alternatives(self):
        bid = BlockIndependentTable(schema, [
            Block("k", {R(1): 0.5, R(2): 0.5}),
        ])
        # Alternatives are exclusive: P(R(1) AND R(2)) = 0, P(∃x R(x)) = 1.
        assert query_probability(q("R(1) AND R(2)"), bid) == pytest.approx(0.0)
        assert query_probability(q("EXISTS x. R(x)"), bid) == pytest.approx(1.0)

    def test_bid_across_blocks(self):
        bid = BlockIndependentTable(schema, [
            Block("a", {R(1): 0.5}),
            Block("b", {R(2): 0.4}),
        ])
        assert query_probability(q("R(1) AND R(2)"), bid) == pytest.approx(0.2)


class TestMarginalAnswers:
    def test_unary_query_marginals(self):
        table = TupleIndependentTable(schema, {S(1, 1): 0.5, S(2, 1): 0.25})
        query = Query(parse_formula("EXISTS y. S(x, y)", schema), schema)
        marginals = marginal_answer_probabilities(query, table)
        assert marginals[(1,)] == pytest.approx(0.5)
        assert marginals[(2,)] == pytest.approx(0.25)

    def test_zero_probability_tuples_omitted(self):
        table = TupleIndependentTable(schema, {S(1, 1): 0.5})
        query = Query(parse_formula("EXISTS y. S(x, y)", schema), schema)
        marginals = marginal_answer_probabilities(query, table)
        assert (1,) in marginals and len(marginals) == 1

    def test_boolean_query_unit_key(self):
        table = TupleIndependentTable(schema, {R(1): 0.5})
        query = Query(parse_formula("EXISTS x. R(x)", schema), schema)
        marginals = marginal_answer_probabilities(query, table)
        assert marginals == {(): pytest.approx(0.5)}

    def test_explicit_domain(self):
        table = TupleIndependentTable(schema, {R(1): 0.5})
        query = Query(parse_formula("R(x)", schema), schema)
        marginals = marginal_answer_probabilities(query, table, domain=[1, 2])
        assert marginals == {(1,): pytest.approx(0.5)}

    @pytest.mark.parametrize("text", [
        "EXISTS z. S(x, z) AND S(y, z)",  # scored one answer at a time
        "EXISTS x. R(x)",  # Boolean
    ])
    def test_the_callers_compile_cache_serves_every_answer(self, text):
        from repro.finite.compile_cache import (
            DEFAULT_COMPILE_CACHE,
            CompileCache,
        )

        mine = CompileCache()
        DEFAULT_COMPILE_CACHE.clear()
        query = Query(parse_formula(text, schema), schema)
        marginals = marginal_answer_probabilities(
            query, small_ti(), compile_cache=mine)
        assert marginals
        assert len(DEFAULT_COMPILE_CACHE._families) == 0
        assert len(mine._families) > 0

    def test_marginals_match_expanded_pdb(self):
        table = small_ti()
        query = Query(parse_formula("EXISTS y. S(x, y)", schema), schema)
        marginals = marginal_answer_probabilities(query, table)
        pdb = table.expand()
        for answer, probability in marginals.items():
            direct = pdb.probability(
                lambda D, a=answer: a in
                Query(parse_formula("EXISTS y. S(x, y)", schema), schema)(D))
            assert probability == pytest.approx(direct, abs=1e-10)
