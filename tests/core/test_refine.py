"""RefinementSession: anytime ε-refinement must be bit-exact against
fresh one-shot approximation calls, while actually reusing prior work
(prefix materialization, in-place table growth, warm compilation)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.approx import (
    approximate_answer_marginals,
    approximate_query_probability,
    approximate_query_probability_bid,
    approximate_query_probability_completed,
)
from repro.core.bid import BlockFamily, CountableBIDPDB
from repro.core.completion import complete
from repro.core.fact_distribution import (
    GeometricFactDistribution,
    TableFactDistribution,
)
from repro.core.refine import REFINE_REUSED_FACTS, RefinementSession
from repro.core.tuple_independent import CountableTIPDB
from repro.errors import ApproximationError, EvaluationError
from repro.finite.bid import Block
from repro.finite.compile_cache import CompileCache
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic import BooleanQuery, Query, parse_formula
from repro.relational import Schema
from repro.universe import FactSpace, Naturals

schema = Schema.of(R=1)
R = schema["R"]
space = FactSpace(schema, Naturals())

SWEEP = [0.2, 0.1, 0.05, 0.02, 0.01]

#: Dyadic marginals (k/64): exact floats, so "bit-exact" is meaningful.
dyadic_marginals = st.lists(
    st.integers(min_value=1, max_value=63).map(lambda k: k / 64),
    min_size=1, max_size=8,
)
epsilon_sequences = st.lists(
    st.sampled_from([0.3, 0.2, 0.15, 0.1, 0.05, 0.02, 0.01]),
    min_size=1, max_size=4,
)

QUERY_POOL = [
    "EXISTS x. R(x)",
    "NOT EXISTS x. R(x)",
    "R(1) OR R(2)",
]


def geometric_ti():
    return CountableTIPDB(
        schema, GeometricFactDistribution(space, first=0.25, ratio=0.5))


def geometric_bid():
    Rel2 = Schema.of(R=2)["R"]
    family = BlockFamily.geometric(
        make_block=lambda i: Block(
            f"k{i}", {Rel2(i + 1, 1): 0.25 * 0.5**i,
                      Rel2(i + 1, 2): 0.25 * 0.5**i}),
        block_mass=lambda i: 0.5 * 0.5**i, first=0.5, ratio=0.5)
    return CountableBIDPDB(Schema.of(R=2), family)


def assert_same_result(got, expected):
    assert got.value == expected.value
    assert got.truncation == expected.truncation
    assert got.alpha == expected.alpha
    assert got.epsilon == expected.epsilon


class TestBooleanParity:
    def test_ti_sweep_matches_fresh_calls(self):
        query = BooleanQuery(
            parse_formula("EXISTS x. R(x)", schema), schema)
        session = RefinementSession(query, geometric_ti())
        for epsilon in SWEEP:
            refined = session.refine(epsilon)
            fresh = approximate_query_probability(
                query, geometric_ti(), epsilon)
            assert_same_result(refined, fresh)
        assert len(session.history) == len(SWEEP)

    def test_bid_sweep_matches_fresh_calls(self):
        bid_schema = Schema.of(R=2)
        query = BooleanQuery(
            parse_formula("EXISTS x, y. R(x, y)", bid_schema), bid_schema)
        session = RefinementSession(query, geometric_bid())
        for epsilon in SWEEP:
            refined = session.refine(epsilon)
            fresh = approximate_query_probability_bid(
                query, geometric_bid(), epsilon)
            assert_same_result(refined, fresh)

    def test_completed_sweep_matches_fresh_calls(self):
        table = TupleIndependentTable(schema, {R(1): 0.8, R(3): 0.5})

        def fresh_completed():
            return complete(table, GeometricFactDistribution(
                space, first=0.2, ratio=0.5))

        # A safe query, and a self-join disjunction compiled to a BDD.
        for text, strategy in [("EXISTS x. R(x)", "auto"),
                               ("EXISTS x. R(x) AND (R(1) OR R(2))", "bdd")]:
            query = BooleanQuery(parse_formula(text, schema), schema)
            session = RefinementSession(
                query, fresh_completed(), strategy=strategy)
            for epsilon in SWEEP:
                refined = session.refine(epsilon)
                fresh = approximate_query_probability_completed(
                    query, fresh_completed(), epsilon, strategy=strategy)
                assert_same_result(refined, fresh)
                assert refined.fold_error == fresh.fold_error

        # An answer-marginal sweep grows the same completed table.
        query = Query(parse_formula("R(x)", schema), schema)
        session = RefinementSession(query, fresh_completed())
        for epsilon in SWEEP:
            refined = session.refine_marginals(epsilon)
            fresh = approximate_answer_marginals(
                query, fresh_completed(), epsilon)
            assert list(refined) == list(fresh)
            for answer in fresh:
                assert_same_result(refined[answer], fresh[answer])

    def test_loosened_epsilon_matches_fresh_call(self):
        query = BooleanQuery(
            parse_formula("EXISTS x. R(x)", schema), schema)
        session = RefinementSession(query, geometric_ti())
        session.refine(0.01)  # grow the truncation first
        loosened = session.refine(0.2)
        fresh = approximate_query_probability(query, geometric_ti(), 0.2)
        assert_same_result(loosened, fresh)

    def test_compiled_strategy_parity_with_private_cache(self):
        marginals = {R(i): 0.5 for i in range(1, 15)}
        pdb = CountableTIPDB(schema, TableFactDistribution(marginals))
        # Self-join disjunction: unsafe, so "bdd" is the realistic path.
        query = BooleanQuery(
            parse_formula("EXISTS x. R(x) AND (R(1) OR R(2))", schema),
            schema)
        session = RefinementSession(
            query, pdb, strategy="bdd", compile_cache=CompileCache())
        for epsilon in [0.2, 0.05, 0.01]:
            refined = session.refine(epsilon)
            fresh = approximate_query_probability(
                query,
                CountableTIPDB(schema, TableFactDistribution(marginals)),
                epsilon, strategy="bdd")
            assert_same_result(refined, fresh)

    @given(dyadic_marginals, epsilon_sequences,
           st.sampled_from(QUERY_POOL))
    @settings(max_examples=40, deadline=None)
    def test_random_sessions_match_fresh_calls(self, ps, epsilons, text):
        marginals = {R(i + 1): p for i, p in enumerate(ps)}
        query = BooleanQuery(parse_formula(text, schema), schema)
        session = RefinementSession(
            query, CountableTIPDB(schema, TableFactDistribution(marginals)))
        for epsilon in epsilons:
            refined = session.refine(epsilon)
            fresh = approximate_query_probability(
                query,
                CountableTIPDB(schema, TableFactDistribution(marginals)),
                epsilon)
            assert_same_result(refined, fresh)


class TestAnswerMarginalParity:
    @given(dyadic_marginals, epsilon_sequences)
    @settings(max_examples=25, deadline=None)
    def test_refine_marginals_matches_fresh_calls(self, ps, epsilons):
        marginals = {R(i + 1): p for i, p in enumerate(ps)}
        query = Query(parse_formula("R(x)", schema), schema)
        session = RefinementSession(
            query, CountableTIPDB(schema, TableFactDistribution(marginals)))
        for epsilon in epsilons:
            refined = session.refine_marginals(epsilon)
            fresh = approximate_answer_marginals(
                query,
                CountableTIPDB(schema, TableFactDistribution(marginals)),
                epsilon)
            assert set(refined) == set(fresh)
            for answer in fresh:
                assert_same_result(refined[answer], fresh[answer])

    def test_boolean_query_routes_through_refine(self):
        query = Query(parse_formula("EXISTS x. R(x)", schema), schema)
        session = RefinementSession(query, geometric_ti())
        results = session.refine_marginals(0.05)
        assert set(results) == {()}
        fresh = approximate_query_probability(
            BooleanQuery(parse_formula("EXISTS x. R(x)", schema), schema),
            geometric_ti(), 0.05)
        assert_same_result(results[()], fresh)

    def test_unsafe_query_warm_grounding_chain(self):
        # The unpinned/pinned S self-join grounds to a sentence with no
        # safe plan (the copies of S cannot be shattered apart), so the
        # fan-out compiles through the session's SharedGrounding chain.
        schema2 = Schema.of(R=1, S=2)
        R2, S2 = schema2["R"], schema2["S"]
        marginals = {R2(i): 0.5 for i in range(1, 4)}
        marginals.update({S2(1, 2): 0.4, S2(2, 2): 0.3, S2(3, 1): 0.6})
        query = Query(
            parse_formula(
                "EXISTS y, z. R(y) AND S(y, z) AND S(x, z)", schema2),
            schema2)
        session = RefinementSession(
            query, CountableTIPDB(schema2, TableFactDistribution(marginals)))
        for epsilon in [0.2, 0.02]:
            refined = session.refine_marginals(epsilon)
            fresh = approximate_answer_marginals(
                query,
                CountableTIPDB(schema2, TableFactDistribution(marginals)),
                epsilon)
            assert set(refined) == set(fresh)
            for answer in fresh:
                assert_same_result(refined[answer], fresh[answer])
        assert session._grounding is not None  # the chain actually ran


class TestSessionMechanics:
    def test_reuse_counter_reports_prior_truncation(self):
        query = BooleanQuery(
            parse_formula("EXISTS x. R(x)", schema), schema)
        session = RefinementSession(query, geometric_ti())
        first = session.refine(0.2)
        assert first.report.counters[REFINE_REUSED_FACTS] == 0
        second = session.refine(0.01)
        assert second.truncation > first.truncation
        assert (second.report.counters[REFINE_REUSED_FACTS]
                == first.truncation)

    def test_repeated_epsilon_reuses_whole_table(self):
        query = BooleanQuery(
            parse_formula("EXISTS x. R(x)", schema), schema)
        session = RefinementSession(query, geometric_ti())
        first = session.refine(0.05)
        again = session.refine(0.05)
        assert_same_result(again, first)
        assert (again.report.counters[REFINE_REUSED_FACTS]
                == first.truncation)

    def test_sweep_orders_loosest_first(self):
        query = BooleanQuery(
            parse_formula("EXISTS x. R(x)", schema), schema)
        session = RefinementSession(query, geometric_ti())
        results = session.sweep([0.01, 0.2, 0.05, 0.2])
        assert list(results) == [0.2, 0.05, 0.01]
        truncations = [results[e].truncation for e in results]
        assert truncations == sorted(truncations)

    def test_refine_to_halves_the_width(self):
        query = BooleanQuery(
            parse_formula("EXISTS x. R(x)", schema), schema)
        session = RefinementSession(query, geometric_ti())
        result = session.refine_to(0.1)
        assert result.epsilon == 0.05
        assert result.high - result.low <= 0.1 + 1e-12

    def test_free_variables_rejected_by_refine(self):
        query = Query(parse_formula("R(x)", schema), schema)
        session = RefinementSession(query, geometric_ti())
        with pytest.raises(EvaluationError, match="refine_marginals"):
            session.refine(0.1)

    def test_unsupported_pdb_rejected(self):
        query = BooleanQuery(
            parse_formula("EXISTS x. R(x)", schema), schema)
        with pytest.raises(EvaluationError, match="refinement sessions"):
            RefinementSession(
                query, TupleIndependentTable(schema, {R(1): 0.5}))

    def test_invalid_epsilon_rejected(self):
        query = BooleanQuery(
            parse_formula("EXISTS x. R(x)", schema), schema)
        session = RefinementSession(query, geometric_ti())
        with pytest.raises(ApproximationError, match="Proposition 6.1"):
            session.refine(0.7)

    def test_budget_exhaustion_carries_epsilon_context(self):
        query = BooleanQuery(
            parse_formula("EXISTS x. R(x)", schema), schema)
        session = RefinementSession(query, geometric_ti(), max_facts=3)
        with pytest.raises(ApproximationError) as excinfo:
            session.refine(1e-9)
        assert "epsilon=1e-09" in str(excinfo.value)
        assert excinfo.value.achieved_tail is not None
