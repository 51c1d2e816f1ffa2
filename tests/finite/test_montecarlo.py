"""Tests for Monte-Carlo query evaluation."""

import random

import pytest

from repro.finite import (
    TupleIndependentTable,
    query_probability,
    query_probability_monte_carlo,
)
from repro.finite.montecarlo import event_probability_monte_carlo, z_quantile
from repro.logic import BooleanQuery, parse_formula
from repro.relational import Schema

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]


def q(text):
    return BooleanQuery(parse_formula(text, schema), schema)


class TestEstimates:
    def test_interval_contains_truth(self):
        table = TupleIndependentTable(schema, {R(1): 0.5, R(2): 0.3})
        query = q("EXISTS x. R(x)")
        truth = query_probability(query, table)
        rng = random.Random(17)
        estimate = query_probability_monte_carlo(query, table, 3000, rng)
        assert estimate.contains(truth)

    def test_unsafe_query_estimated(self):
        """MC handles H0 (the #P-hard query) without a safe plan."""
        table = TupleIndependentTable(schema, {
            R(1): 0.5, S(1, 2): 0.5, T(2): 0.5,
        })
        query = q("EXISTS x, y. R(x) AND S(x, y) AND T(y)")
        truth = query_probability(query, table)  # via lineage
        rng = random.Random(18)
        estimate = query_probability_monte_carlo(query, table, 4000, rng)
        assert abs(estimate.estimate - truth) < 0.03

    def test_error_shrinks_with_samples(self):
        table = TupleIndependentTable(schema, {R(1): 0.5})
        query = q("R(1)")
        rng = random.Random(19)
        small = query_probability_monte_carlo(query, table, 100, rng)
        large = query_probability_monte_carlo(query, table, 10000, rng)
        assert large.half_width < small.half_width

    def test_interval_clipped_to_unit(self):
        table = TupleIndependentTable(schema, {R(1): 0.999})
        rng = random.Random(20)
        estimate = query_probability_monte_carlo(q("R(1)"), table, 100, rng)
        assert 0.0 <= estimate.low <= estimate.high <= 1.0

    def test_invalid_parameters(self):
        table = TupleIndependentTable(schema, {R(1): 0.5})
        rng = random.Random(21)
        with pytest.raises(ValueError):
            query_probability_monte_carlo(q("R(1)"), table, 0, rng)
        for confidence in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                query_probability_monte_carlo(q("R(1)"), table, 10, rng,
                                              confidence=confidence)
        with pytest.raises(ValueError):
            # No randomness source at all.
            query_probability_monte_carlo(q("R(1)"), table, 10)
        with pytest.raises(ValueError):
            # Two sources: neither is silently ignored.
            query_probability_monte_carlo(q("R(1)"), table, 10, rng, seed=2)


class TestZQuantile:
    """Regression: any confidence in (0, 1) is accepted (was KeyError →
    ValueError for everything outside the three tabulated levels)."""

    def test_untabulated_confidence_accepted(self):
        table = TupleIndependentTable(schema, {R(1): 0.5})
        estimate = query_probability_monte_carlo(
            q("R(1)"), table, 500, seed=23, confidence=0.975)
        assert estimate.half_width > 0

    def test_inverse_cdf_matches_known_quantiles(self):
        # Tabulated levels keep their historical rounded values...
        assert z_quantile(0.95) == 1.9600
        assert z_quantile(0.90) == 1.6449
        assert z_quantile(0.99) == 2.5758
        # ...and arbitrary levels go through the inverse normal CDF.
        assert z_quantile(0.975) == pytest.approx(2.2414, abs=1e-4)
        assert z_quantile(0.5) == pytest.approx(0.6745, abs=1e-4)
        assert z_quantile(0.999) == pytest.approx(3.2905, abs=1e-4)

    def test_monotone_in_confidence(self):
        levels = [0.05 * i for i in range(1, 20)]
        quantiles = [z_quantile(level) for level in levels]
        assert quantiles == sorted(quantiles)

    def test_half_width_widens_with_confidence(self):
        table = TupleIndependentTable(schema, {R(1): 0.5})
        narrow = query_probability_monte_carlo(
            q("R(1)"), table, 400, seed=31, confidence=0.8)
        wide = query_probability_monte_carlo(
            q("R(1)"), table, 400, seed=31, confidence=0.998)
        assert narrow.estimate == wide.estimate
        assert narrow.half_width < wide.half_width

    def test_out_of_range_rejected(self):
        for level in (0.0, 1.0, -1.0, 2.0):
            with pytest.raises(ValueError):
                z_quantile(level)


class TestEventEstimates:
    def test_size_event(self):
        table = TupleIndependentTable(schema, {R(1): 0.5, R(2): 0.5})
        rng = random.Random(22)
        estimate = event_probability_monte_carlo(
            lambda D: D.size == 2, table, 4000, rng)
        assert estimate.contains(0.25)

    def test_coverage_calibration(self):
        """~95% of 95% intervals should contain the truth."""
        table = TupleIndependentTable(schema, {R(1): 0.37})
        query = q("R(1)")
        hits = 0
        for trial in range(100):
            rng = random.Random(1000 + trial)
            estimate = query_probability_monte_carlo(query, table, 400, rng)
            if estimate.contains(0.37):
                hits += 1
        assert hits >= 85
