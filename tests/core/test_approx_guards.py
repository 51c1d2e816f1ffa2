"""Regression tests for the approximation-pipeline correctness sweep:

* ``strategy="sampled"`` results fold the Monte-Carlo error into the
  ``[low, high]`` enclosure, with both error components surfaced;
* ``prefix_for_tail`` / ``choose_truncation`` raise
  :class:`~repro.errors.ApproximationError` (with the achieved tail
  mass) when the enumeration budget runs out, instead of silently
  returning an uncertified truncation — and the BID ``max_blocks``
  analogue does the same.
"""

import pytest

from repro.core.approx import (
    ApproximationResult,
    approximate_query_probability,
    approximate_query_probability_bid,
    choose_truncation,
)
from repro.core.bid import BlockFamily, CountableBIDPDB
from repro.core.fact_distribution import (
    GeometricFactDistribution,
    ZetaFactDistribution,
)
from repro.core.tuple_independent import CountableTIPDB
from repro.errors import ApproximationError, ConvergenceError
from repro.finite.bid import Block
from repro.logic.parser import parse_formula
from repro.logic.queries import BooleanQuery
from repro.relational import Schema
from repro.universe import FactSpace, Naturals

schema = Schema.of(R=1)


def _geometric_pdb(first=0.25, ratio=0.5):
    space = FactSpace(schema, Naturals())
    return CountableTIPDB(
        schema, GeometricFactDistribution(space, first=first, ratio=ratio))


def _exists_r():
    return BooleanQuery(parse_formula("EXISTS x. R(x)", schema), schema)


# ------------------------------------------------- sampled-enclosure fix
def test_sampled_strategy_widens_the_enclosure():
    pdb = _geometric_pdb()
    exact = approximate_query_probability(
        _exists_r(), pdb, epsilon=0.05, strategy="auto")
    sampled = approximate_query_probability(
        _exists_r(), pdb, epsilon=0.05, strategy="sampled")
    # Exact conditional: no sampling allowance; the enclosure is
    # [p − δp, p + δ(1 − p)] widened by the fold-error bound alone.
    assert exact.sampling_error == 0.0
    assert exact.low == pytest.approx(
        exact.value - exact.tail * exact.value - exact.fold_error)
    assert exact.high - exact.low <= exact.tail + 3 * exact.fold_error
    # Sampled conditional: a positive Monte-Carlo confidence bound is
    # surfaced separately and widens the enclosure beyond δ.
    assert sampled.sampling_error > 0.0
    assert sampled.epsilon == 0.05
    slack = sampled.fold_error + sampled.sampling_error
    assert sampled.low == pytest.approx(max(
        0.0, sampled.value - sampled.tail * sampled.value - slack))
    assert sampled.high == pytest.approx(min(
        1.0, sampled.value + sampled.tail * (1 - sampled.value) + slack))
    assert sampled.high - sampled.low > sampled.tail
    # The honest interval still contains the exact answer.
    assert sampled.contains(exact.value)
    # The attached report carries the same sampling allowance.
    assert sampled.report.sampling_error == pytest.approx(
        sampled.sampling_error)
    assert sampled.report.strategy == "sampled"


def test_sampling_error_defaults_to_zero_for_legacy_tuples():
    # 4-tuple construction (pre-sampling_error callers) still works.
    result = ApproximationResult(0.5, 0.01, 8, 0.012)
    assert result.sampling_error == 0.0
    assert result.low == pytest.approx(0.49)
    assert result.high == pytest.approx(0.51)


# ------------------------------------------- truncation-exhaustion guard
def test_prefix_for_tail_raises_with_achieved_tail():
    space = FactSpace(schema, Naturals())
    # Zeta tails decay polynomially: a tiny bound is unreachable in 50
    # facts.
    distribution = ZetaFactDistribution(space, exponent=2.5, scale=0.5)
    with pytest.raises(ApproximationError) as excinfo:
        distribution.prefix_for_tail(1e-12, max_facts=50)
    err = excinfo.value
    assert err.achieved_tail == pytest.approx(distribution.tail(50))
    assert "max_facts=50" in str(err)
    # Still reachable bounds keep working.
    assert distribution.prefix_for_tail(0.1, max_facts=10**5) > 0


def test_prefix_for_tail_invalid_bound_is_still_convergence_error():
    space = FactSpace(schema, Naturals())
    distribution = GeometricFactDistribution(space, first=0.25, ratio=0.5)
    with pytest.raises(ConvergenceError):
        distribution.prefix_for_tail(0.0)


def test_choose_truncation_propagates_exhaustion():
    space = FactSpace(schema, Naturals())
    distribution = ZetaFactDistribution(space, exponent=2.5, scale=0.5)
    with pytest.raises(ApproximationError) as excinfo:
        choose_truncation(distribution, epsilon=1e-9, max_facts=50)
    assert excinfo.value.achieved_tail is not None


def test_approximate_query_probability_exhaustion_propagates():
    pdb = _geometric_pdb()
    with pytest.raises(ApproximationError) as excinfo:
        approximate_query_probability(
            _exists_r(), pdb, epsilon=1e-9, max_facts=3)
    assert excinfo.value.achieved_tail == pytest.approx(
        pdb.distribution.tail(3))


# --------------------------------------------------- BID max_blocks guard
def _bid_pdb():
    bid_schema = Schema.of(T=2)
    T = bid_schema["T"]
    family = BlockFamily.geometric(
        make_block=lambda i: Block(
            f"k{i}", {T(i + 1, 1): 0.25 * 0.5**i, T(i + 1, 2): 0.25 * 0.5**i}),
        block_mass=lambda i: 0.5 * 0.5**i, first=0.5, ratio=0.5)
    return bid_schema, CountableBIDPDB(bid_schema, family)


def test_block_family_prefix_for_tail_raises_with_achieved_tail():
    _, pdb = _bid_pdb()
    with pytest.raises(ApproximationError) as excinfo:
        pdb.family.prefix_for_tail(1e-12, max_blocks=5)
    assert excinfo.value.achieved_tail == pytest.approx(pdb.family.tail(5))


def test_approximate_query_probability_bid_max_blocks_guard():
    bid_schema, pdb = _bid_pdb()
    q = BooleanQuery(
        parse_formula("EXISTS x, y. T(x, y)", bid_schema), bid_schema)
    with pytest.raises(ApproximationError) as excinfo:
        approximate_query_probability_bid(q, pdb, epsilon=1e-9, max_blocks=2)
    assert excinfo.value.achieved_tail == pytest.approx(pdb.family.tail(2))
    # A reachable budget still succeeds.
    result = approximate_query_probability_bid(q, pdb, epsilon=0.05)
    assert 0.0 < result.value < 1.0


def test_enumeration_back_off_still_works_after_the_guard_change():
    # Slow polynomial tails exhaust the tight bounds and back off — the
    # PDB must still enumerate worlds rather than propagate the new
    # ApproximationError out of the back-off loop.
    space = FactSpace(schema, Naturals())
    pdb = CountableTIPDB(schema, ZetaFactDistribution(space, exponent=3.0, scale=0.5))
    worlds = []
    for instance, mass in pdb.worlds():
        worlds.append((instance, mass))
        if len(worlds) >= 4:
            break
    assert worlds and all(mass > 0 for _, mass in worlds)
