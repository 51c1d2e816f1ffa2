"""Analytic bounds of the approximation algorithm (Proposition 6.1).

Proposition 6.1's proof bounds the truncation error by
``δ′ = 1 − P(Ω_n) = 1 − Π_{i>n} (1 − p_i)``, the mass of the worlds that
hold some fact beyond the first n.  Two bounds on δ′ live here:

* the **union bound** ``δ′ ≤ Σ_{i>n} p_i = tail(n)``, valid for any
  marginals.  The library's truncation rule stops at the smallest n with
  ``tail(n) ≤ ε``, decided exactly
  (:func:`repro.core.approx.choose_truncation`).
* **claim (∗)** from the paper's appendix: for ``p_i ∈ [0, 1/2)`` with
  ``Σ p_i < ∞``,

      Π (1 − p_i)  ≥  exp(−(3/2) Σ p_i),

  so with ``α_n := (3/2) Σ_{i>n} p_i`` the paper requires
  ``e^{α_n} ≤ 1 + ε`` and ``e^{−α_n} ≥ 1 − ε``.  The (∗) rule needs a
  tail about 1.5× smaller than the union bound's, so it is kept only as
  a reproduced result (experiments E5 and E10, ablation A-2), and α is
  still reported alongside every answer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from repro.analysis.products import product_complement
from repro.errors import ApproximationError, ConvergenceError


def complement_product_lower_bound(probabilities: Iterable[float]) -> float:
    """The (∗) lower bound ``exp(−(3/2) Σ p_i)``.

    Requires every ``p_i < 1/2`` (the paper's hypothesis).

    >>> bound = complement_product_lower_bound([0.1, 0.2])
    >>> actual = product_complement([0.1, 0.2])
    >>> bound <= actual
    True
    """
    total = 0.0
    for p in probabilities:
        if not 0 <= p < 0.5:
            raise ConvergenceError(
                f"claim (*) requires p in [0, 1/2), got {p}"
            )
        total += p
    return math.exp(-1.5 * total)


def verify_star_bound(probabilities: Sequence[float]) -> Tuple[float, float, bool]:
    """Check claim (∗) numerically: returns (product, bound, holds).

    >>> product, bound, holds = verify_star_bound([0.3, 0.4, 0.1])
    >>> holds
    True
    """
    product = product_complement(probabilities)
    bound = complement_product_lower_bound(probabilities)
    return product, bound, product >= bound - 1e-15


def alpha_from_tail(tail_mass: float) -> float:
    """``α_n = (3/2) · Σ_{i>n} p_i`` from the certified tail mass."""
    if tail_mass < 0:
        raise ApproximationError(f"tail mass must be non-negative, got {tail_mass}")
    return 1.5 * tail_mass


def _exp_compare(x: Fraction, bound: Fraction) -> int:
    """The sign of ``e^x − bound`` for rational ``|x| ≤ 1``, decided
    exactly: Taylor partial sums with a rigorous remainder, refined until
    the enclosure excludes ``bound``.  Terminates because ``e^x`` is
    irrational for rational ``x ≠ 0`` (Lindemann–Weierstrass)."""
    if x == 0:
        return (1 > bound) - (1 < bound)
    terms = 8
    while True:
        partial, power, factorial = Fraction(0), Fraction(1), 1
        for k in range(terms):
            if k:
                power *= x
                factorial *= k
            partial += power / factorial
        # |remainder| ≤ 3·|x|^terms / terms! for |x| ≤ 1 (e^|x| < 3).
        remainder = 3 * abs(power * x) / (factorial * terms)
        if partial - remainder > bound:
            return 1
        if partial + remainder < bound:
            return -1
        terms *= 2


def epsilon_conditions_hold(alpha: float, epsilon: float) -> bool:
    """The (∗) truncation-size conditions of Proposition 6.1:
    ``e^α ≤ 1 + ε`` and ``e^{−α} ≥ 1 − ε``.

    Decided exactly on the rationals of ``alpha`` and ``epsilon`` (no
    floating-point slack).

    >>> epsilon_conditions_hold(0.0001, 0.01)
    True
    >>> epsilon_conditions_hold(1.0, 0.01)
    False
    """
    if not (math.isfinite(alpha) and math.isfinite(epsilon)):
        return False
    a, e = Fraction(alpha), Fraction(epsilon)
    if abs(a) > 1:
        # e^|α| > e > 1 + ε and e^{−|α|} < 1/e < 1 − ε whenever ε < 1/2;
        # only a negative α ≤ −1 can meet both, and only for ε ≥ 0.
        return a < 0 and e >= 0
    return _exp_compare(a, 1 + e) <= 0 and _exp_compare(-a, 1 - e) >= 0


def required_alpha(epsilon: float) -> float:
    """The largest float α satisfying both ε-conditions:
    ``α ≤ min(log(1+ε), −log(1−ε)) = log(1+ε)``, rounded down so that
    :func:`epsilon_conditions_hold` accepts it exactly.

    (For ε ∈ (0, 1), ``log(1+ε) ≤ −log(1−ε)``, so the binding condition
    is ``e^α ≤ 1+ε``.)

    >>> a = required_alpha(0.1)
    >>> epsilon_conditions_hold(a, 0.1)
    True
    >>> epsilon_conditions_hold(math.nextafter(a, 1.0), 0.1)
    False
    """
    if not 0 < epsilon < 0.5:
        raise ApproximationError(
            f"Proposition 6.1 requires 0 < epsilon < 1/2, got {epsilon}"
        )
    alpha = math.log1p(epsilon)
    while not epsilon_conditions_hold(alpha, epsilon):
        alpha = math.nextafter(alpha, 0.0)
    while epsilon_conditions_hold(math.nextafter(alpha, 1.0), epsilon):
        alpha = math.nextafter(alpha, 1.0)
    return alpha


def star_rule_target_tail(epsilon: float) -> float:
    """The tail target of the paper's own truncation rule:
    ``min(log(1+ε)/1.5, 0.49)`` — the first term gives both (∗)
    ε-conditions on ``e^{±α_n}``, the cap forces every tail fact below
    1/2 (the hypothesis of claim (∗)).  The library stops at
    ``tail(n) ≤ ε`` instead; this target is kept so experiments E5 and
    A-2 can report ``n(ε)`` under both rules.

    >>> star_rule_target_tail(0.1) < 0.1
    True
    """
    return min(required_alpha(epsilon) / 1.5, 0.49)


def truncation_error_bound(tail_mass: float) -> float:
    """Additive error bound implied by the remaining tail mass through
    claim (∗): the probability mass of the worlds outside Ω_n is at most
    ``1 − e^{−(3/2)·tail}``.  The union bound gives ``tail`` itself,
    which is smaller for every tail below 0.58.

    >>> truncation_error_bound(0.0) == 0.0
    True
    """
    return 1 - math.exp(-alpha_from_tail(tail_mass))
