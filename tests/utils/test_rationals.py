"""Tests for exact probability arithmetic helpers."""

import math
from fractions import Fraction

import pytest

from repro.errors import ProbabilityError
from repro.utils.probability import numpy_or_none
from repro.utils.rationals import (
    as_fraction,
    complement,
    float_close,
    is_probability,
    validate_probability,
)


class TestAsFraction:
    def test_fraction_passthrough(self):
        assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)

    def test_float_exact_binary(self):
        assert as_fraction(0.5) == Fraction(1, 2)
        assert as_fraction(0.1) == Fraction(0.1)  # exact binary expansion

    def test_int(self):
        assert as_fraction(1) == Fraction(1)

    def test_nan_rejected(self):
        with pytest.raises(ProbabilityError):
            as_fraction(float("nan"))

    def test_inf_rejected(self):
        with pytest.raises(ProbabilityError):
            as_fraction(math.inf)

    def test_garbage_rejected(self):
        with pytest.raises(ProbabilityError):
            as_fraction("0.5")  # type: ignore[arg-type]


class TestIsProbability:
    @pytest.mark.parametrize("value", [0, 1, 0.5, Fraction(1, 7), -0.0])
    def test_valid(self, value):
        assert is_probability(value)

    @pytest.mark.parametrize("value", [-0.1, 1.0001, Fraction(9, 8), 2])
    def test_invalid(self, value):
        assert not is_probability(value)


def fraction_oracle(value):
    """The exact verdict: a finite real in [0, 1]."""
    try:
        frac = as_fraction(value)
    except ProbabilityError:
        return False
    return 0 <= frac <= 1


EDGE_VALUES = [
    0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0),
    5e-324, math.nan, math.inf, -math.inf, True, 1, 2,
    Fraction(1, 3), Fraction(4, 3),
]


class TestFloatFastPath:
    @pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
    def test_verdict_matches_the_fraction_oracle(self, value):
        assert is_probability(value) is fraction_oracle(value)

    def test_numpy_float64_matches_the_oracle(self):
        numpy = numpy_or_none()
        if numpy is None:
            pytest.skip("numpy not installed")
        for value in EDGE_VALUES[:9]:
            wide = numpy.float64(value)
            assert bool(is_probability(wide)) is fraction_oracle(wide)

    @pytest.mark.parametrize("value", [1.5, math.nan, -math.inf, "0.5"],
                             ids=repr)
    def test_error_text_is_unchanged(self, value):
        with pytest.raises(ProbabilityError) as caught:
            validate_probability(value, what="marginal of R(1)")
        assert str(caught.value) == (
            f"marginal of R(1) must lie in [0, 1], got {value!r}")


class TestValidateProbability:
    def test_returns_value(self):
        assert validate_probability(0.25) == 0.25

    def test_raises_with_label(self):
        with pytest.raises(ProbabilityError, match="marginal"):
            validate_probability(1.5, what="marginal")


class TestComplement:
    def test_fraction_exact(self):
        assert complement(Fraction(1, 3)) == Fraction(2, 3)

    def test_float(self):
        assert complement(0.25) == 0.75

    def test_out_of_range(self):
        with pytest.raises(ProbabilityError):
            complement(1.5)


class TestFloatClose:
    def test_accumulated_error(self):
        assert float_close(0.1 + 0.2, 0.3)

    def test_distinguishes(self):
        assert not float_close(0.1, 0.2)


class TestDirectedRounding:
    """Upward/downward rounding bounds the exact real result."""

    PAIRS = [(0.1, 0.2), (0.5, 0.25), (1e-20, 1.0), (0.3, 0.7),
             (2.0**-60, 0.75), (0.0, 0.0)]

    def test_add_up_is_the_smallest_upper_bound(self):
        from repro.utils.rationals import add_up

        for a, b in self.PAIRS:
            exact = Fraction(a) + Fraction(b)
            total = add_up(a, b)
            assert Fraction(total) >= exact
            assert Fraction(math.nextafter(total, -math.inf)) < exact \
                or Fraction(total) == exact

    def test_round_up_steps_by_ulps(self):
        from repro.utils.rationals import round_up

        assert round_up(1.0, 2) == math.nextafter(math.nextafter(1.0, 2), 2)
        assert round_up(0.0) == 5e-324
