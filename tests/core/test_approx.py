"""Tests for the Proposition 6.1 approximation algorithm."""

import math

import pytest

from repro.core.approx import (
    approximate_answer_marginals,
    approximate_query_probability,
    choose_truncation,
    truncation_profile,
)
from repro.core.completion import complete
from repro.core.fact_distribution import (
    GeometricFactDistribution,
    TableFactDistribution,
    ZetaFactDistribution,
)
from repro.core.tuple_independent import CountableTIPDB
from repro.errors import ApproximationError
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic import BooleanQuery, Query, parse_formula
from repro.relational import Schema
from repro.universe import FactSpace, Naturals

schema = Schema.of(R=1, S=2)
R, S = schema["R"], schema["S"]
space = FactSpace(schema, Naturals())


def geometric_pdb(first=0.5, ratio=0.5):
    return CountableTIPDB(
        schema, GeometricFactDistribution(space, first=first, ratio=ratio))


def q(text):
    return BooleanQuery(parse_formula(text, schema), schema)


def exists_r_truth(pdb, depth=200):
    """Exact P(∃x R(x)) = 1 − Π over R-facts of (1 − p_f)."""
    complement = 1.0
    for fact, p in pdb.distribution.prefix(depth):
        if fact.relation.name == "R":
            complement *= 1.0 - p
    return 1.0 - complement


class TestChooseTruncation:
    def test_epsilon_range_enforced(self):
        d = TableFactDistribution({R(1): 0.5})
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ApproximationError):
                choose_truncation(d, bad)

    def test_truncation_meets_alpha_conditions(self):
        """The union-bound rule: n is the smallest prefix whose certified
        tail is at most ε, so tail(n) ≤ ε < tail(n − 1)."""
        pdb = geometric_pdb()
        for epsilon in (0.3, 0.1, 0.01, 1e-4):
            n = choose_truncation(pdb.distribution, epsilon)
            assert pdb.distribution.tail(n) <= epsilon
            assert n == 0 or pdb.distribution.tail(n - 1) > epsilon

    def test_tail_facts_below_half(self):
        """Claim (∗) hypothesis: all facts beyond n have p ≤ 1/2."""
        pdb = geometric_pdb(first=0.9, ratio=0.5)
        n = choose_truncation(pdb.distribution, 0.4)
        assert pdb.distribution.tail(n) <= 0.49

    def test_monotone_in_epsilon(self):
        pdb = geometric_pdb()
        sizes = [
            choose_truncation(pdb.distribution, eps)
            for eps in (0.2, 0.05, 0.01, 0.001)
        ]
        assert sizes == sorted(sizes)

    def test_geometric_logarithmic_growth(self):
        pdb = geometric_pdb()
        assert choose_truncation(pdb.distribution, 1e-5) < 40

    def test_zeta_polynomial_growth(self):
        """The §6 complexity remark: a zeta tail 0.5/n gives n(ε) ~ 1/ε,
        so every 10× tighter ε costs 10× the facts, while a geometric
        tail gives n(ε) = O(log 1/ε), a constant number more."""
        zeta = ZetaFactDistribution(space, exponent=2.0, scale=0.5)
        geo = GeometricFactDistribution(space, first=0.5, ratio=0.5)
        epsilons = (1e-2, 1e-3, 1e-4)
        for epsilon in epsilons:
            # ε·n(ε) → 0.5; the outward-rounded tail may cost one fact.
            n = choose_truncation(zeta, epsilon)
            assert 0.5 <= epsilon * n <= 0.5 + epsilon
        sizes = [choose_truncation(geo, epsilon) for epsilon in epsilons]
        # log2(10) ≈ 3.3 more facts per decade of ε.
        assert [b - a for a, b in zip(sizes, sizes[1:])] in ([3, 4], [4, 3])


class TestErrorGuarantee:
    @pytest.mark.parametrize("epsilon", [0.2, 0.05, 0.01, 0.001])
    def test_additive_error_within_epsilon(self, epsilon):
        pdb = geometric_pdb()
        truth = exists_r_truth(pdb)
        result = approximate_query_probability(q("EXISTS x. R(x)"), pdb, epsilon)
        assert abs(result.value - truth) <= epsilon
        assert result.contains(truth)

    def test_error_shrinks_with_epsilon(self):
        pdb = geometric_pdb()
        truth = exists_r_truth(pdb)
        coarse = approximate_query_probability(q("EXISTS x. R(x)"), pdb, 0.2)
        fine = approximate_query_probability(q("EXISTS x. R(x)"), pdb, 1e-4)
        assert abs(fine.value - truth) <= abs(coarse.value - truth) + 1e-12

    def test_negated_query(self):
        pdb = geometric_pdb()
        truth = 1.0 - exists_r_truth(pdb)
        result = approximate_query_probability(
            q("NOT EXISTS x. R(x)"), pdb, 0.01)
        assert abs(result.value - truth) <= 0.01

    def test_universal_query(self):
        pdb = geometric_pdb()
        result = approximate_query_probability(
            q("FORALL x. R(x) -> EXISTS y. S(x, y)"), pdb, 0.05)
        assert 0.0 <= result.value <= 1.0

    def test_result_metadata(self):
        pdb = geometric_pdb()
        result = approximate_query_probability(q("EXISTS x. R(x)"), pdb, 0.1)
        assert result.epsilon == 0.1
        assert result.truncation >= 1
        assert result.alpha <= math.log1p(0.1) + 1e-12

    def test_zeta_tail_still_within_epsilon(self):
        pdb = CountableTIPDB(
            schema, ZetaFactDistribution(space, exponent=2.5, scale=0.5))
        truth = exists_r_truth(pdb, depth=5000)
        result = approximate_query_probability(q("EXISTS x. R(x)"), pdb, 0.05)
        assert abs(result.value - truth) <= 0.05


class TestStrategyIndependence:
    def test_all_engines_same_answer(self):
        pdb = geometric_pdb()
        values = {
            strategy: approximate_query_probability(
                q("EXISTS x. R(x)"), pdb, 0.05, strategy=strategy).value
            for strategy in ("worlds", "lineage", "lifted")
        }
        assert max(values.values()) - min(values.values()) < 1e-10


class TestMarginalExtension:
    def test_ground_query_marginals(self):
        pdb = geometric_pdb()
        query = Query(parse_formula("R(x)", schema), schema)
        marginals = approximate_answer_marginals(query, pdb, 0.05)
        assert marginals[(1,)].value == pytest.approx(0.5, abs=0.05)
        # R(2) has rank 2 in the interleaved R/S fact space: p = 0.5^3.
        assert marginals[(2,)].value == pytest.approx(0.125, abs=0.05)

    def test_tuples_outside_omega_n_absent(self):
        pdb = geometric_pdb()
        query = Query(parse_formula("R(x)", schema), schema)
        marginals = approximate_answer_marginals(query, pdb, 0.2)
        huge_rank = (10**6,)
        assert huge_rank not in marginals

    def test_boolean_query_delegates(self):
        pdb = geometric_pdb()
        query = Query(parse_formula("EXISTS x. R(x)", schema), schema)
        marginals = approximate_answer_marginals(query, pdb, 0.1)
        assert set(marginals) == {()}


class TestCompletionApproximation:
    def test_completed_pdb_query(self):
        original = TupleIndependentTable(schema, {R(1): 0.8})
        completed = complete(
            original,
            GeometricFactDistribution(space, first=0.25, ratio=0.5),
        )
        result = completed.approximate_query_probability(
            q("EXISTS x. R(x)"), epsilon=0.01)
        # Truth: 1 − 0.2 · Π_{new R-facts}(1 − p).
        complement = 0.2
        for fact, p in completed.new_facts.distribution.prefix(100):
            if fact.relation.name == "R":
                complement *= 1 - p
        truth = 1 - complement
        assert abs(result.value - truth) <= 0.01


class TestTruncationProfile:
    def test_profile_shape(self):
        pdb = geometric_pdb()
        profile = truncation_profile(pdb.distribution, [0.1, 0.01, 0.001])
        assert profile[0.001] >= profile[0.01] >= profile[0.1]
