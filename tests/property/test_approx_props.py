"""Hypothesis property tests on the Proposition 6.1 machinery: the
additive guarantee must hold for random finite-support distributions,
random epsilons, and a pool of queries."""

from hypothesis import given, settings, strategies as st

import pytest

from repro.core.approx import approximate_query_probability, choose_truncation
from repro.core.fact_distribution import TableFactDistribution
from repro.core.tuple_independent import CountableTIPDB
from repro.finite.evaluation import query_probability_by_worlds
from repro.logic import BooleanQuery, parse_formula
from repro.relational import Schema

schema = Schema.of(R=1)
R = schema["R"]

probabilities = st.lists(
    st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=8)
epsilons = st.floats(min_value=0.001, max_value=0.45)

QUERY_POOL = [
    "EXISTS x. R(x)",
    "NOT EXISTS x. R(x)",
    "R(1)",
    "R(1) OR R(2)",
    "FORALL x. R(x) -> R(1)",
]


def make_pdb(ps):
    marginals = {R(i + 1): p for i, p in enumerate(ps)}
    return CountableTIPDB(schema, TableFactDistribution(marginals))


class TestGuaranteeProperties:
    @given(probabilities, epsilons, st.sampled_from(QUERY_POOL))
    @settings(max_examples=60, deadline=None)
    def test_additive_error_bounded(self, ps, epsilon, text):
        pdb = make_pdb(ps)
        query = BooleanQuery(parse_formula(text, schema), schema)
        # Ground truth by exhaustive evaluation over the full support.
        truth = query_probability_by_worlds(query, pdb.truncate(len(ps)))
        result = approximate_query_probability(query, pdb, epsilon)
        assert abs(result.value - truth) <= epsilon + 1e-9

    @given(probabilities, epsilons)
    @settings(max_examples=60, deadline=None)
    def test_truncation_alpha_conditions(self, ps, epsilon):
        """The union-bound rule: tail(n) ≤ ε < tail(n − 1)."""
        distribution = TableFactDistribution(
            {R(i + 1): p for i, p in enumerate(ps)})
        n = choose_truncation(distribution, epsilon)
        assert distribution.tail(n) <= epsilon
        assert n == 0 or distribution.tail(n - 1) > epsilon

    @given(probabilities)
    @settings(max_examples=40, deadline=None)
    def test_value_is_valid_probability(self, ps):
        pdb = make_pdb(ps)
        query = BooleanQuery(
            parse_formula("EXISTS x. R(x)", schema), schema)
        result = approximate_query_probability(query, pdb, 0.1)
        assert 0.0 <= result.value <= 1.0
        assert 0.0 <= result.low <= result.high <= 1.0
