"""Tests for series certificates — the convergence side of Theorem 4.8."""

import math

import pytest

from repro.analysis.series import (
    SeriesCertificate,
    certify_convergence,
    geometric_tail,
    partial_sums,
    zeta_tail,
)
from repro.errors import ConvergenceError
from repro.utils import take


class TestPartialSums:
    def test_accumulation(self):
        assert take(4, partial_sums([1, 2, 3, 4])) == [1, 3, 6, 10]

    def test_lazy_on_infinite(self):
        import itertools

        sums = take(3, partial_sums(itertools.repeat(1.0)))
        assert sums == [1.0, 2.0, 3.0]


class TestGeometricTail:
    def test_full_sum(self):
        tail = geometric_tail(0.5, 0.5)
        assert abs(tail(0) - 1.0) < 1e-12

    def test_decreasing(self):
        tail = geometric_tail(1.0, 0.9)
        assert tail(10) > tail(20) > tail(100)

    def test_bounds_true_tail(self):
        tail = geometric_tail(0.3, 0.7)
        true_tail = sum(0.3 * 0.7**i for i in range(5, 500))
        assert tail(5) >= true_tail - 1e-12

    def test_invalid_ratio(self):
        with pytest.raises(ConvergenceError):
            geometric_tail(0.5, 1.0)


class TestZetaTail:
    def test_bounds_true_tail(self):
        tail = zeta_tail(2.0)
        true_tail = sum(1.0 / i**2 for i in range(11, 10**6))
        assert tail(10) >= true_tail

    def test_requires_exponent_above_one(self):
        with pytest.raises(ConvergenceError):
            zeta_tail(1.0)

    def test_slow_decay(self):
        """Zeta tails shrink polynomially — far slower than geometric."""
        zeta = zeta_tail(2.0)
        geo = geometric_tail(1.0, 0.5)
        assert zeta(40) > geo(40)


class TestSeriesCertificate:
    def test_geometric_closed_form_sum(self):
        cert = SeriesCertificate.geometric(0.5, 0.5)
        assert cert.sum() == 1.0

    def test_zeta_sum_approaches_basel(self):
        cert = SeriesCertificate.zeta(2.0)
        assert abs(cert.sum(1e-5) - math.pi**2 / 6) < 1e-4

    def test_finite(self):
        cert = SeriesCertificate.finite([0.5, 0.25])
        assert cert.sum() == 0.75
        assert cert.tail(1) == 0.25
        assert cert.tail(5) == 0.0

    def test_finite_rejects_negative(self):
        with pytest.raises(ConvergenceError):
            SeriesCertificate.finite([-0.1])

    def test_prefix_length_for_tail_geometric(self):
        cert = SeriesCertificate.geometric(0.5, 0.5)
        n = cert.prefix_length_for_tail(0.01)
        assert cert.tail(n) <= 0.01
        assert n <= 8  # log-scale truncation

    def test_prefix_length_zeta_much_larger(self):
        """The paper §6 complexity remark: slow convergence ⇒ large n(ε)."""
        geo = SeriesCertificate.geometric(0.5, 0.5)
        zeta = SeriesCertificate.zeta(1.5, scale=0.5)
        bound = 1e-3
        assert zeta.prefix_length_for_tail(bound) > 10 * geo.prefix_length_for_tail(bound)

    def test_prefix_values(self):
        cert = SeriesCertificate.geometric(0.5, 0.5)
        assert cert.prefix(3) == [0.5, 0.25, 0.125]

    def test_invalid_tail_bound(self):
        with pytest.raises(ConvergenceError):
            SeriesCertificate.finite([0.5]).prefix_length_for_tail(0.0)

    def test_terms_iterator_is_fresh(self):
        cert = SeriesCertificate.geometric(0.5, 0.5)
        assert take(2, cert.terms()) == take(2, cert.terms())


class TestCertifyConvergence:
    def test_finite_list(self):
        cert = certify_convergence([0.1, 0.2])
        assert abs(cert.sum() - 0.3) < 1e-12

    def test_custom_tail(self):
        cert = certify_convergence([0.5, 0.25], tail=lambda n: 2.0**-n)
        assert cert.tail(3) == 0.125


class TestOutwardRoundedTails:
    """Closed-form tails bound the exact real tail, not just its float."""

    def test_geometric_tail_bounds_the_exact_closed_form(self):
        from fractions import Fraction

        first, ratio = 0.3, 0.95
        tail = geometric_tail(first, ratio)
        for n in (0, 1, 17, 94, 500):
            exact = Fraction(first) * Fraction(ratio) ** n / (
                1 - Fraction(ratio))
            assert Fraction(tail(n)) >= exact

    def test_zeta_tail_bounds_the_integral_with_an_inexact_exponent(self):
        from fractions import Fraction

        # 1 − 2.1 is inexact in binary: the exponent is rounded up.
        tail = zeta_tail(2.1, scale=0.5)
        for n in (1, 10, 1000):
            integral = 0.5 * n ** (1 - 2.1) / 1.1
            assert tail(n) > integral
            assert tail(n) < integral * (1 + 1e-12)
        assert Fraction(zeta_tail(1.5, 0.5)(100)) >= Fraction(1, 10)

    def test_finite_tails_round_every_addition_up(self):
        from fractions import Fraction

        values = [0.1] * 10 + [0.2, 0.3]
        cert = SeriesCertificate.finite(values)
        for n in range(len(values) + 1):
            exact = sum((Fraction(v) for v in values[n:]), Fraction(0))
            assert Fraction(cert.tail(n)) >= exact
        assert cert.tail(len(values)) == 0.0


def _eager_zeta_total(exponent, scale):
    """The Euler–Maclaurin total as ``SeriesCertificate.zeta`` once
    computed it at construction."""
    cutoff = 10**4
    partial = sum(scale / i**exponent for i in range(1, cutoff + 1))
    integral = scale * cutoff ** (1 - exponent) / (exponent - 1)
    correction = (
        -0.5 * scale * cutoff**-exponent
        + exponent * scale * cutoff ** (-exponent - 1) / 12.0
    )
    return partial + integral + correction


class TestLazyZetaTotal:
    """A zeta certificate sums no term until its total is asked for,
    then keeps the float the eager construction gave."""

    @pytest.mark.parametrize("exponent, scale", [
        (1.5, 0.5), (2.0, 1.0), (1.01, 0.25), (3.0, 0.75)])
    def test_total_is_the_eager_float(self, exponent, scale):
        cert = SeriesCertificate.zeta(exponent, scale)
        assert cert.sum() == _eager_zeta_total(exponent, scale)
        assert cert.sum(1e-30) == _eager_zeta_total(exponent, scale)

    def test_construction_sums_nothing_and_sum_evaluates_once(
            self, monkeypatch):
        from repro.analysis import series

        calls = []
        evaluate = series._ZetaTotal.__call__

        def counted(self):
            calls.append(self)
            return evaluate(self)

        monkeypatch.setattr(series._ZetaTotal, "__call__", counted)
        cert = SeriesCertificate.zeta(1.5, 0.5)
        assert calls == []
        # Never the generic term loop, which no tolerance would end.
        monkeypatch.setattr(cert, "terms", None)
        first = cert.sum()
        assert cert.sum() == first
        assert len(calls) == 1

    def test_pickles_before_and_after_the_total_restore(self):
        import pickle

        fresh = SeriesCertificate.zeta(1.5, 0.5)
        before = pickle.loads(pickle.dumps(fresh))
        fresh.sum()
        # With the total evaluated, the pickle holds a plain float — the
        # form certificates pickled while the total was eager take.
        after = pickle.loads(pickle.dumps(fresh))
        assert isinstance(after._total, float)
        want = _eager_zeta_total(1.5, 0.5)
        assert before.sum() == after.sum() == want
        assert before.tail(10) == after.tail(10) == fresh.tail(10)
