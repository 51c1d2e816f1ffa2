"""Tests for the Proposition 6.1 analytic bounds, including claim (∗)."""

import math

import pytest

from repro.analysis.bounds import (
    alpha_from_tail,
    complement_product_lower_bound,
    epsilon_conditions_hold,
    required_alpha,
    truncation_error_bound,
    verify_star_bound,
)
from repro.analysis.products import product_complement
from repro.errors import ApproximationError, ConvergenceError


class TestStarBound:
    """Claim (∗): Π(1 − p_i) ≥ exp(−(3/2) Σ p_i) for p_i ∈ [0, 1/2)."""

    def test_holds_on_moderate_probabilities(self):
        _, _, holds = verify_star_bound([0.3, 0.4, 0.1, 0.45])
        assert holds

    def test_holds_on_tiny_probabilities(self):
        _, _, holds = verify_star_bound([1e-6] * 1000)
        assert holds

    def test_tight_as_p_vanishes(self):
        """For small p the bound approaches the product: the ratio
        product/bound → exp((1/2)Σp) → 1 as Σp → 0 (the 3/2 constant
        leaves slack e^{Σp/2})."""
        small = [1e-6] * 100
        product, bound, _ = verify_star_bound(small)
        assert product / bound < 1.0001
        # And the slack shrinks as probabilities shrink:
        bigger = [1e-3] * 100
        product_b, bound_b, _ = verify_star_bound(bigger)
        assert product / bound < product_b / bound_b

    def test_worst_case_near_half(self):
        product, bound, holds = verify_star_bound([0.499999])
        assert holds and bound <= product

    def test_rejects_p_at_or_above_half(self):
        with pytest.raises(ConvergenceError):
            complement_product_lower_bound([0.5])

    def test_rejects_negative(self):
        with pytest.raises(ConvergenceError):
            complement_product_lower_bound([-0.1])


class TestEpsilonConditions:
    def test_required_alpha_satisfies_both(self):
        for epsilon in (0.4, 0.1, 0.01, 1e-4):
            alpha = required_alpha(epsilon)
            assert epsilon_conditions_hold(alpha, epsilon)

    def test_slightly_larger_alpha_fails(self):
        epsilon = 0.1
        alpha = required_alpha(epsilon) * 1.01
        assert not epsilon_conditions_hold(alpha, epsilon)

    def test_epsilon_range_enforced(self):
        with pytest.raises(ApproximationError):
            required_alpha(0.5)
        with pytest.raises(ApproximationError):
            required_alpha(0.0)

    def test_alpha_from_tail_scaling(self):
        assert alpha_from_tail(0.02) == pytest.approx(0.03)
        with pytest.raises(ApproximationError):
            alpha_from_tail(-0.1)


class TestTruncationErrorBound:
    def test_zero_tail_zero_error(self):
        assert truncation_error_bound(0.0) == 0.0

    def test_monotone_in_tail(self):
        assert truncation_error_bound(0.01) < truncation_error_bound(0.1)

    def test_bounds_actual_outside_mass(self):
        """1 − Π(1 − p_i) over the tail is ≤ the bound (with p_i < 1/2)."""
        tail_probabilities = [0.02, 0.01, 0.005]
        actual_outside = 1 - product_complement(tail_probabilities)
        bound = truncation_error_bound(sum(tail_probabilities))
        assert actual_outside <= bound + 1e-12


class TestExactDecisions:
    """The stopping rule and the (∗) conditions are decided on exact
    rationals, with no floating-point slack."""

    def test_union_bound_rule_is_exact_at_the_boundary(self):
        from fractions import Fraction

        from repro.core.approx import choose_truncation
        from repro.core.fact_distribution import TableFactDistribution
        from repro.relational import RelationSymbol

        R = RelationSymbol("R", 1)
        # tail(1) = 0.1 (one addition, exact), tail(0) = 0.1 + 0.4.
        d = TableFactDistribution({R(1): 0.4, R(2): 0.1})
        assert d.tail(1) == 0.1
        assert choose_truncation(d, 0.1) == 1
        assert choose_truncation(d, math.nextafter(0.1, 0.0)) == 2
        # The float 0.1 lies above the rational 1/10.
        assert choose_truncation(d, Fraction(1, 10)) == 2

    def test_required_alpha_is_the_last_float_that_holds(self):
        for epsilon in (0.4, 0.3, 0.1, 0.05, 0.01, 1e-4):
            alpha = required_alpha(epsilon)
            assert epsilon_conditions_hold(alpha, epsilon)
            assert not epsilon_conditions_hold(
                math.nextafter(alpha, 1.0), epsilon)

    def test_log1p_can_overshoot_and_is_rejected(self):
        """math.log1p(0.1) lies above the exact log(1.1); the exact
        decision rejects it where the old 1e-12 slack accepted it."""
        assert not epsilon_conditions_hold(math.log1p(0.1), 0.1)

    def test_negative_and_zero_alpha(self):
        assert epsilon_conditions_hold(0.0, 0.1)
        assert epsilon_conditions_hold(-2.0, 0.1)
        assert not epsilon_conditions_hold(2.0, 0.1)
