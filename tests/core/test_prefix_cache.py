"""PrefixCache: materialization reuse, logarithmic truncation search
(differential against the linear scan it replaced), counters."""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core import prefix_cache as pc
from repro.core.fact_distribution import (
    GeometricFactDistribution,
    TableFactDistribution,
)
from repro.core.prefix_cache import PrefixCache
from repro.core.tuple_independent import CountableTIPDB
from repro.errors import ApproximationError, ConvergenceError
from repro.relational import Schema
from repro.universe import FactSpace, Naturals

schema = Schema.of(R=1)
R = schema["R"]
space = FactSpace(schema, Naturals())

#: Dyadic weights (k/64) make every suffix sum exact in binary floating
#: point, so tails are exactly monotone and comparisons are bit-exact.
dyadic_weights = st.lists(
    st.integers(min_value=1, max_value=63).map(lambda k: k / 64),
    min_size=1, max_size=20,
)


def suffix_tail(weights):
    """tail(n) = Σ weights[n:] — exact for dyadic weights."""
    return lambda n: math.fsum(weights[n:])


def linear_prefix_for_tail(tail, bound, budget):
    """The seed's linear scan: smallest n ≤ budget with tail(n) ≤ bound,
    or None when the budget is exhausted."""
    for n in range(budget + 1):
        if tail(n) <= bound:
            return n
    return None


def fresh_cache(weights):
    pairs = ((f"item{i}", w) for i, w in enumerate(weights))
    return PrefixCache(pairs, suffix_tail(weights))


class TestMaterialization:
    def test_prefix_extends_then_hits(self):
        cache = fresh_cache([0.5, 0.25, 0.125, 0.0625])
        assert cache.prefix(2) == [("item0", 0.5), ("item1", 0.25)]
        assert cache.extensions == 1 and cache.hits == 0
        assert cache.prefix(2) == [("item0", 0.5), ("item1", 0.25)]
        assert cache.hits == 1
        assert cache.prefix(4)[3] == ("item3", 0.0625)
        assert cache.extensions == 2

    def test_prefix_clips_at_exhaustion(self):
        cache = fresh_cache([0.5, 0.25])
        assert len(cache.prefix(10)) == 2
        assert cache.exhausted
        # Further over-asks are hits, not re-pulls.
        cache.prefix(10)
        assert cache.hits == 1

    def test_pairs_half_open_range(self):
        cache = fresh_cache([0.5, 0.25, 0.125])
        assert cache.pairs(1, 3) == [("item1", 0.25), ("item2", 0.125)]
        assert cache.pairs(2, 10) == [("item2", 0.125)]

    def test_marginals_dict_preserves_order(self):
        cache = fresh_cache([0.5, 0.25, 0.125])
        assert list(cache.marginals_dict(3)) == ["item0", "item1", "item2"]

    def test_cumulative_mass(self):
        cache = fresh_cache([0.5, 0.25, 0.125])
        assert cache.cumulative_mass(0) == 0.0
        assert cache.cumulative_mass(2) == 0.75
        assert cache.cumulative_mass(99) == 0.875

    def test_obs_counters_mirrored_into_trace(self):
        d = GeometricFactDistribution(space, first=0.5, ratio=0.5)
        with obs.trace() as t:
            d.prefix(5)
            d.prefix(3)
            d.prefix(8)
        assert t.counters[pc.PREFIX_CACHE_EXTENSIONS] == 2
        assert t.counters[pc.PREFIX_CACHE_HITS] == 1


class TestTruncationSearch:
    def test_doctstring_example_bracket(self):
        cache = fresh_cache([0.5, 0.25, 0.125, 0.0625])
        # tail(1) = 0.4375 > 0.4 >= tail(2) = 0.1875
        assert cache.smallest_prefix_for_tail(0.4, 10) == 2
        assert cache.smallest_prefix_for_tail(1.5, 10) == 0

    def test_nonpositive_bound_rejected(self):
        cache = fresh_cache([0.5])
        with pytest.raises(ConvergenceError):
            cache.smallest_prefix_for_tail(0.0, 10)

    def test_budget_exhaustion_reports_requested_budget(self):
        cache = fresh_cache([0.5] * 10)
        with pytest.raises(ApproximationError) as excinfo:
            cache.smallest_prefix_for_tail(
                1e-6, 4, budget_name="max_facts")
        assert "max_facts=4" in str(excinfo.value)
        assert excinfo.value.achieved_tail == pytest.approx(
            suffix_tail([0.5] * 10)(4))

    def test_failure_path_evaluates_budget_tail_once(self):
        weights = [0.5] * 10
        calls = []
        base = suffix_tail(weights)

        def counting_tail(n):
            calls.append(n)
            return base(n)

        cache = PrefixCache(iter(enumerate(weights)), counting_tail)
        with pytest.raises(ApproximationError):
            cache.smallest_prefix_for_tail(1e-6, 4)
        assert calls.count(4) == 1

    @given(dyadic_weights, st.integers(min_value=0, max_value=65),
           st.integers(min_value=0, max_value=25))
    @settings(max_examples=120, deadline=None)
    def test_bisect_matches_linear_scan(self, weights, bound_k, budget):
        """The logarithmic search returns the bit-exact n of the linear
        scan (or fails on exactly the same inputs)."""
        bound = bound_k / 64
        tail = suffix_tail(weights)
        expected = (
            None if bound <= 0 else
            linear_prefix_for_tail(tail, bound, budget))
        cache = fresh_cache(weights)
        if expected is None:
            with pytest.raises((ApproximationError, ConvergenceError)):
                cache.smallest_prefix_for_tail(bound, budget)
        else:
            assert cache.smallest_prefix_for_tail(bound, budget) == expected

    @given(dyadic_weights, st.integers(min_value=1, max_value=65))
    @settings(max_examples=60, deadline=None)
    def test_distribution_prefix_for_tail_matches_linear(
            self, weights, bound_k):
        bound = bound_k / 64
        marginals = {R(i + 1): w for i, w in enumerate(weights)}
        d = TableFactDistribution(marginals)
        expected = linear_prefix_for_tail(d.tail, bound, len(weights))
        assert d.prefix_for_tail(bound) == expected


class TestDistributionCaching:
    @given(dyadic_weights, st.integers(min_value=1, max_value=25))
    @settings(max_examples=60, deadline=None)
    def test_cached_prefix_identical_to_fresh(self, weights, n):
        marginals = {R(i + 1): w for i, w in enumerate(weights)}
        warm = TableFactDistribution(marginals)
        warm.prefix(max(1, n // 2))  # partially materialize first
        fresh = TableFactDistribution(marginals)
        assert warm.prefix(n) == fresh.prefix(n)
        assert warm.marginals_dict(n) == fresh.marginals_dict(n)

    def test_geometric_repeated_prefixes_stable(self):
        d = GeometricFactDistribution(space, first=0.5, ratio=0.5)
        first = d.prefix(6)
        assert d.prefix(6) == first
        assert d.prefix(3) == first[:3]

    def test_pdb_with_live_cache_still_pickles(self):
        pdb = CountableTIPDB(
            schema, TableFactDistribution({R(1): 0.5, R(2): 0.25}))
        pdb.distribution.prefix(2)  # cache now holds a live generator
        clone = pickle.loads(pickle.dumps(pdb))
        assert clone.distribution.prefix(2) == pdb.distribution.prefix(2)
