"""Exact probability arithmetic helpers.

The theorem-verification parts of the library (measure sums to 1,
completion condition, independence identities) are computed with
:class:`fractions.Fraction` so that equalities proven in the paper can be
checked *exactly* rather than up to floating-point tolerance.  The hot
paths (sampling, large benchmarks) use floats.  These helpers convert and
validate between the two regimes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Union

from repro.errors import ProbabilityError

Probability = Union[int, float, Fraction]

#: Default tolerance for floating-point probability comparisons.
DEFAULT_TOLERANCE = 1e-12


def as_fraction(value: Probability) -> Fraction:
    """Convert a number to an exact :class:`Fraction`.

    Floats are converted via ``Fraction(value)`` (exact binary expansion),
    which preserves the float's value precisely.

    >>> as_fraction(Fraction(1, 3))
    Fraction(1, 3)
    >>> as_fraction(0.5)
    Fraction(1, 2)
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(value.numerator, value.denominator)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ProbabilityError(f"cannot convert non-finite float {value!r}")
        return Fraction(value)
    if isinstance(value, int):
        return Fraction(value)
    raise ProbabilityError(f"cannot interpret {value!r} as a probability value")


def is_probability(value: Probability) -> bool:
    """True iff ``value`` lies in the closed interval ``[0, 1]``.

    A ``float`` is decided by two float comparisons: they are exact, and
    NaN and ±inf fail them.  Every other type goes through the exact
    :class:`Fraction` conversion.

    >>> is_probability(0.3), is_probability(Fraction(7, 5)), is_probability(-0.0)
    (True, False, True)
    """
    if type(value) is float:
        return 0.0 <= value <= 1.0
    try:
        frac = as_fraction(value)
    except ProbabilityError:
        return False
    return 0 <= frac <= 1


def validate_probability(value: Probability, what: str = "probability") -> Probability:
    """Return ``value`` unchanged if it is a valid probability, else raise.

    >>> validate_probability(0.25)
    0.25
    """
    if not is_probability(value):
        raise probability_error(value, what)
    return value


def probability_error(value: object, what: str) -> ProbabilityError:
    """The error :func:`validate_probability` raises — for hot loops
    that test :func:`is_probability` themselves and build the ``what``
    label only when a value fails.

    >>> probability_error(1.5, "marginal of R(1)")
    ProbabilityError('marginal of R(1) must lie in [0, 1], got 1.5')
    """
    return ProbabilityError(f"{what} must lie in [0, 1], got {value!r}")


def float_close(a: float, b: float, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """Symmetric absolute/relative closeness test for probabilities.

    >>> float_close(0.1 + 0.2, 0.3)
    True
    """
    return math.isclose(a, b, rel_tol=tolerance, abs_tol=tolerance)


def complement(value: Probability) -> Probability:
    """``1 - value``, preserving exactness of Fractions.

    >>> complement(Fraction(1, 3))
    Fraction(2, 3)
    >>> complement(0.25)
    0.75
    """
    validate_probability(value)
    if isinstance(value, Fraction):
        return Fraction(1) - value
    return 1 - value


# ------------------------------------------------------ directed rounding
# Certified quantities (tail bounds, enclosure endpoints) must hold for
# the *real* numbers, not just for their round-to-nearest floats.  These
# helpers emulate rounding toward ±inf: every IEEE operation rounds to
# nearest, so its exact result lies within half an ulp of the float it
# returns, and one ``math.nextafter`` step past that float bounds it.


def round_up(value: float, steps: int = 1) -> float:
    """``value`` moved ``steps`` ulps toward +inf.

    Let ``value`` be the float result of k correctly rounded
    multiplications, divisions and additions of non-negative terms on
    exact positive inputs (a libm ``pow``, accurate to one ulp, counts
    as two).  Each operation errs by a relative ``u = 2⁻⁵³`` at most
    and each step adds more than ``u``, so ``round_up(value, k + 1)``
    bounds the exact result from above.

    >>> round_up(1.0) > 1.0 and round_up(0.0) > 0.0
    True
    """
    for _ in range(steps):
        value = math.nextafter(value, math.inf)
    return value


def add_up(a: float, b: float) -> float:
    """The smallest float ≥ ``a + b`` (exact sum), by Knuth's TwoSum:
    the rounding error of ``a + b`` is recovered exactly, and the sum
    moves up one ulp only when it was rounded down.

    >>> add_up(0.1, 0.2) >= 0.1 + 0.2
    True
    >>> add_up(0.5, 0.25)
    0.75
    """
    total = a + b
    if math.isinf(total):
        return total
    b_virtual = total - a
    error = (a - (total - b_virtual)) + (b - b_virtual)
    return math.nextafter(total, math.inf) if error > 0 else total

