"""Shared probability arithmetic: hybrid complement policy, log-space
rescue of tiny marginals, and the numpy batch kernels."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConvergenceError
from repro.utils.probability import (
    ComplementAccumulator,
    disjunction,
    log_product_complement,
    product_complement,
    vector_complement_product,
    vector_disjunction,
    vector_log_complement,
)

probabilities = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    max_size=40,
)
#: Dyadic marginals (k/64): the bit-exactness regime of the exact
#: strategies — accumulator and batch fold must match the naive loop
#: bit-for-bit here.
dyadic = st.lists(
    st.integers(min_value=1, max_value=63).map(lambda k: k / 64),
    max_size=30,
)


def naive_complement(values):
    product = 1.0
    for p in values:
        product *= 1.0 - p
    return product


class TestAccumulator:
    @given(dyadic)
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_to_naive_loop_on_dyadics(self, values):
        acc = ComplementAccumulator()
        for p in values:
            acc.add(p)
        assert acc.complement() == naive_complement(values)
        assert acc.disjunction() == 1.0 - naive_complement(values)

    def test_factor_of_one_zeroes(self):
        acc = ComplementAccumulator()
        acc.add(0.5)
        acc.add(1.0)
        assert acc.is_zero
        assert acc.complement() == 0.0
        assert acc.disjunction() == 1.0

    def test_tiny_marginals_survive(self):
        acc = ComplementAccumulator()
        for _ in range(100_000):
            acc.add(1e-20)
        # Naive loop: 1 - 1e-20 rounds to 1.0, total contribution lost.
        assert naive_complement([1e-20] * 100_000) == 1.0
        assert acc.disjunction() == pytest.approx(1e-15, rel=1e-9)

    def test_underflow_rescued(self):
        acc = ComplementAccumulator()
        for _ in range(2000):
            acc.add(0.5)
        assert naive_complement([0.5] * 2000) == 0.0  # underflows
        # The true complement 2^-2000 is below the float64 denormal
        # floor, so complement() necessarily flushes to 0.0 — but the
        # log-space state keeps the full magnitude instead of losing it,
        # and the disjunction side stays exact.
        assert acc.residual_log + math.log(acc.product) == pytest.approx(
            2000 * math.log(0.5), rel=1e-12)
        assert acc.disjunction() == 1.0

    def test_mixed_ordinary_and_residual(self):
        acc = ComplementAccumulator()
        acc.add(0.5)
        acc.add(1e-20)
        expected = 0.5 * math.exp(-1e-20)
        assert acc.complement() == pytest.approx(expected, rel=1e-15)
        assert acc.disjunction() == pytest.approx(1.0 - expected, rel=1e-12)


class TestIterableForms:
    @given(probabilities)
    @settings(max_examples=80, deadline=None)
    def test_disjunction_complements_product(self, values):
        assert disjunction(values) == pytest.approx(
            1.0 - product_complement(values), abs=1e-12)

    @given(dyadic)
    @settings(max_examples=80, deadline=None)
    def test_log_form_consistent(self, values):
        log = log_product_complement(values)
        assert math.exp(log) == pytest.approx(
            product_complement(values), rel=1e-12)

    def test_out_of_range_rejected(self):
        for bad in ([1.5], [-0.1]):
            with pytest.raises(ConvergenceError):
                product_complement(bad)
            with pytest.raises(ConvergenceError):
                disjunction(bad)
            with pytest.raises(ConvergenceError):
                log_product_complement(bad)

    def test_certain_fact_short_circuits(self):
        assert product_complement([0.5, 1.0, 0.5]) == 0.0
        assert disjunction([0.5, 1.0]) == 1.0
        assert log_product_complement([1.0]) == -math.inf

    def test_empty(self):
        assert product_complement([]) == 1.0
        assert disjunction([]) == 0.0
        assert log_product_complement([]) == 0.0


class TestVectorKernels:
    @pytest.fixture(autouse=True)
    def np(self):
        return pytest.importorskip("numpy")

    @given(probabilities)
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_path(self, values):
        np = pytest.importorskip("numpy")
        a = np.asarray(values, dtype=np.float64)
        assert vector_complement_product(np, a) == pytest.approx(
            product_complement(values), abs=1e-12)
        assert vector_disjunction(np, a) == pytest.approx(
            disjunction(values), abs=1e-12)

    def test_certain_fact(self, np):
        a = np.asarray([0.5, 1.0])
        assert vector_log_complement(np, a) == -math.inf
        assert vector_complement_product(np, a) == 0.0
        assert vector_disjunction(np, a) == 1.0

    def test_empty(self, np):
        a = np.asarray([], dtype=np.float64)
        assert vector_log_complement(np, a) == 0.0
        assert vector_complement_product(np, a) == 1.0
        assert vector_disjunction(np, a) == 0.0

    def test_tiny_marginals_survive_vectorized(self, np):
        a = np.full(100_000, 1e-20)
        assert vector_disjunction(np, a) == pytest.approx(1e-15, rel=1e-9)
