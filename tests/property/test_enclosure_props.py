"""Hypothesis soundness suite for the certified enclosure.

On random countable PDBs with at most 12 support facts, every answer's
``[low, high]`` must contain the exact ``P(Q)`` — computed with
:class:`~fractions.Fraction` arithmetic over all ``2^m`` worlds of the
full support, so neither the oracle nor the comparison rounds.  The
schedules put ε exactly at, just above and just below the certified
tails (the stopping rule's boundary cases), and marginals reach up to
``1 − 2⁻⁵⁰`` (where the paper's claim (∗) would not even apply).
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.core.approx import (
    ApproximationResult,
    approximate_answer_marginals,
    approximate_query_probability,
    choose_truncation,
)
from repro.core.fact_distribution import TableFactDistribution
from repro.core.tuple_independent import CountableTIPDB
from repro.logic import BooleanQuery, Query, parse_formula
from repro.relational import Instance, Schema

schema = Schema.of(R=1, S=2)
R, S = schema["R"], schema["S"]
FACT_POOL = [R(i) for i in range(1, 5)] + [
    S(i, j) for i in range(1, 4) for j in range(1, 4)]

QUERIES = [
    "EXISTS x. R(x)",
    "NOT EXISTS x. R(x)",
    "EXISTS x, y. R(x) AND S(x, y) AND R(y)",      # unsafe: compiled
    "EXISTS x, y. R(x) AND S(x, y)",               # safe: lifted
    "FORALL x. R(x) -> EXISTS y. S(x, y)",
    "R(1) OR (R(2) AND NOT R(3))",
]
STRATEGIES = ["auto", "bdd", "lineage"]

NEAR_ONE = [1 - 2.0**-k for k in (10, 30, 50)]
marginal = st.one_of(
    st.floats(min_value=1e-3, max_value=0.999),
    st.sampled_from(NEAR_ONE + [0.5, 0.25, 1e-9]),
)
tables = st.dictionaries(
    st.sampled_from(FACT_POOL), marginal, min_size=1, max_size=12)


def exact_probability(query, marginals):
    """``P(Q)`` over every world of the full support, in exact rationals."""
    facts = list(marginals)
    weights = {fact: Fraction(p) for fact, p in marginals.items()}
    total = Fraction(0)
    for mask in range(1 << len(facts)):
        present = [f for i, f in enumerate(facts) if mask >> i & 1]
        if not query.holds_in(Instance(present)):
            continue
        mass = Fraction(1)
        for i, fact in enumerate(facts):
            mass *= weights[fact] if mask >> i & 1 else 1 - weights[fact]
        total += mass
    return total


@st.composite
def straddling_epsilons(draw, distribution):
    """ε at a certified tail, one ulp either side of it, or anywhere in
    (0, 1/2) — kept inside Proposition 6.1's range."""
    tails = [distribution.tail(k) for k in range(len(distribution) + 1)]
    tails = [t for t in tails if 0.0 < t < 0.5]
    choices = [st.floats(min_value=1e-4, max_value=0.49)]
    if tails:
        tail = st.sampled_from(tails)
        choices += [
            tail,
            tail.map(lambda t: math.nextafter(t, 0.0)),
            tail.map(lambda t: math.nextafter(t, 1.0)),
        ]
    epsilon = draw(st.one_of(*choices))
    return min(max(epsilon, 1e-6), math.nextafter(0.5, 0.0))


def contains(result, truth):
    return Fraction(result.low) <= truth <= Fraction(result.high)


class TestEnclosureSoundness:
    @given(data=st.data(), marginals=tables,
           text=st.sampled_from(QUERIES),
           strategy=st.sampled_from(STRATEGIES))
    @settings(max_examples=60, deadline=None)
    def test_interval_contains_the_exact_probability(
        self, data, marginals, text, strategy
    ):
        distribution = TableFactDistribution(marginals)
        epsilon = data.draw(straddling_epsilons(distribution))
        query = BooleanQuery(parse_formula(text, schema), schema)
        result = approximate_query_probability(
            query, CountableTIPDB(schema, distribution), epsilon,
            strategy=strategy)
        truth = exact_probability(query, distribution.marginals_dict(
            len(distribution)))
        assert result.tail <= epsilon
        assert result.high - result.low <= result.tail + 4 * result.fold_error
        assert contains(result, truth), (result, float(truth))

    @given(data=st.data(), marginals=tables)
    @settings(max_examples=30, deadline=None)
    def test_stopping_rule_sits_on_the_boundary(self, data, marginals):
        """n is the first prefix whose certified tail is at most ε, also
        when ε equals a tail exactly or misses it by one ulp."""
        distribution = TableFactDistribution(marginals)
        epsilon = data.draw(straddling_epsilons(distribution))
        n = choose_truncation(distribution, epsilon)
        assert distribution.tail(n) <= epsilon
        assert n == 0 or distribution.tail(n - 1) > epsilon

    @given(data=st.data(), marginals=tables,
           strategy=st.sampled_from(["auto", "bdd"]))
    @settings(max_examples=25, deadline=None)
    def test_every_answer_marginal_is_enclosed(
        self, data, marginals, strategy
    ):
        distribution = TableFactDistribution(marginals)
        epsilon = data.draw(straddling_epsilons(distribution))
        query = Query(parse_formula("EXISTS y. R(x) AND S(x, y)", schema),
                      schema)
        answers = approximate_answer_marginals(
            query, CountableTIPDB(schema, distribution), epsilon,
            strategy=strategy)
        full = distribution.marginals_dict(len(distribution))
        for (value,), result in answers.items():
            grounded = BooleanQuery(parse_formula(
                f"EXISTS y. R({value}) AND S({value}, y)", schema), schema)
            assert contains(result, exact_probability(grounded, full))


@given(
    value=st.floats(min_value=0.0, max_value=1.0),
    tail=st.floats(min_value=0.0, max_value=0.5),
    fold_error=st.floats(min_value=0.0, max_value=1e-9),
    sampling_error=st.sampled_from([0.0, 1e-3, 0.0123]),
)
@settings(max_examples=200, deadline=None)
def test_enclosure_ends_round_outward(value, tail, fold_error, sampling_error):
    """Each float end bounds its exact rational end, and lies within a
    few ulps of it."""
    result = ApproximationResult(
        value, 0.5, 1, 1.5 * tail, sampling_error, tail, fold_error)
    p, d = Fraction(value), Fraction(tail)
    slack = Fraction(fold_error) + Fraction(sampling_error)
    low = max(Fraction(0), p - d * p - slack)
    high = min(Fraction(1), p + d * (1 - p) + slack)
    assert Fraction(result.low) <= low
    assert Fraction(result.high) >= high
    assert low - Fraction(result.low) <= Fraction(2.0**-48)
    assert Fraction(result.high) - high <= Fraction(2.0**-48)


def test_exact_oracle_matches_a_hand_computation():
    marginals = {R(1): 0.5, R(2): 0.25}
    query = BooleanQuery(parse_formula("EXISTS x. R(x)", schema), schema)
    assert exact_probability(query, marginals) == Fraction(5, 8)
