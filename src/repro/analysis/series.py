"""Series of fact probabilities: partial sums, tails, and convergence
certificates.

Theorem 4.8 characterizes existence of countable tuple-independent PDBs
by convergence of ``Σ p_f``.  Numerically, convergence of an arbitrary
black-box series is undecidable, so the library works with *certified*
series: a :class:`SeriesCertificate` pairs the sequence with an explicit
tail bound ``tail(n) ≥ Σ_{i>n} p_i`` that tends to 0.  Standard
certificates (geometric, zeta with exponent > 1, finite support) are
provided; custom ones take a user-supplied tail function.

The closed-form tails are *rounded outward*: each is evaluated in
floating point and then moved up by one ulp per rounded operation plus
one (:func:`repro.utils.rationals.round_up`), and the finite suffix sums
round every addition upward (:func:`~repro.utils.rationals.add_up`), so
``tail(n)`` bounds the real tail mass, not merely its nearest float.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Union

from repro.errors import ConvergenceError
from repro.utils.rationals import add_up, round_up


def partial_sums(terms: Iterable[float]) -> Iterator[float]:
    """Yield the running partial sums ``Σ_{i≤n} x_i``.

    >>> from repro.utils import take
    >>> take(4, partial_sums([1, 2, 3, 4]))
    [1, 3, 6, 10]
    """
    return itertools.accumulate(terms)


class _GeometricTerms:
    """Picklable ``terms()`` of a geometric series — a plain closure
    would make every distribution (and so every refinement session
    snapshot) unpicklable."""

    __slots__ = ("first", "ratio")

    def __init__(self, first: float, ratio: float):
        self.first = first
        self.ratio = ratio

    def __call__(self) -> Iterator[float]:
        value = self.first
        while True:
            yield value
            value *= self.ratio


class _GeometricTail:
    __slots__ = ("first", "ratio")

    def __init__(self, first: float, ratio: float):
        self.first = first
        self.ratio = ratio

    def __call__(self, n: int) -> float:
        # ``1 − ratio`` rounded down, then pow (two), product, quotient:
        # four rounded operations, five ulps up.
        denominator = -add_up(self.ratio, -1.0)
        return round_up(self.first * self.ratio**n / denominator, 5)


class _ZetaTerms:
    __slots__ = ("exponent", "scale")

    def __init__(self, exponent: float, scale: float):
        self.exponent = exponent
        self.scale = scale

    def __call__(self) -> Iterator[float]:
        for i in itertools.count(1):
            yield self.scale / i**self.exponent


class _ZetaTail:
    __slots__ = ("exponent", "scale")

    def __init__(self, exponent: float, scale: float):
        self.exponent = exponent
        self.scale = scale

    def __call__(self, n: int) -> float:
        # ``1 − s`` rounded up: a larger (negative) exponent only raises
        # ``n^(1−s)``, and its negation is ``s − 1`` rounded down.
        exponent = add_up(1.0, -self.exponent)
        if n == 0:
            # quotient, sum, product: three rounded operations.
            return round_up(self.scale * (1 + 1 / -exponent), 4)
        # pow (two), product, quotient: four rounded operations.
        return round_up(self.scale * n**exponent / -exponent, 5)


class _ZetaTotal:
    """The total of a zeta series by Euler–Maclaurin: a partial sum to
    N = 10⁴ plus ``∫_N^∞ − f(N)/2 + f′(N)·(−1/12)`` — accurate to
    ``O(N^{−exponent−3})``, far beyond float precision.  The partial sum
    takes about 10⁴ Python operations, so a certificate evaluates this
    only when its total is first asked for."""

    __slots__ = ("exponent", "scale")

    def __init__(self, exponent: float, scale: float):
        self.exponent = exponent
        self.scale = scale

    def __call__(self) -> float:
        exponent, scale = self.exponent, self.scale
        cutoff = 10**4
        partial = sum(scale / i**exponent for i in range(1, cutoff + 1))
        integral = scale * cutoff ** (1 - exponent) / (exponent - 1)
        correction = (
            -0.5 * scale * cutoff**-exponent
            + exponent * scale * cutoff ** (-exponent - 1) / 12.0
        )
        return partial + integral + correction


class _FiniteTerms:
    __slots__ = ("values",)

    def __init__(self, values: List[float]):
        self.values = values

    def __call__(self) -> Iterator[float]:
        return iter(self.values)


class _FiniteTail:
    __slots__ = ("suffix", "length")

    def __init__(self, suffix: List[float], length: int):
        self.suffix = suffix
        self.length = length

    def __call__(self, n: int) -> float:
        return self.suffix[min(n, self.length)]


def upward_suffix_sums(values: Sequence[float]) -> List[float]:
    """``suffix[i] ≥ Σ_{j ≥ i} values[j]`` for non-negative values, with
    every addition rounded up (so each entry bounds the exact real sum);
    ``suffix[len(values)] = 0``.

    >>> upward_suffix_sums([0.5, 0.25])
    [0.75, 0.25, 0.0]
    """
    suffix: List[float] = [0.0] * (len(values) + 1)
    for i in range(len(values) - 1, -1, -1):
        suffix[i] = add_up(suffix[i + 1], values[i])
    return suffix


def geometric_tail(first: float, ratio: float) -> Callable[[int], float]:
    """Tail bound for the geometric series ``first · ratio^i`` (i ≥ 0).

    ``tail(n) = first · ratio^n / (1 − ratio)`` bounds ``Σ_{i ≥ n}``
    (rounded outward).

    >>> tail = geometric_tail(0.5, 0.5)
    >>> abs(tail(0) - 1.0) < 1e-12
    True
    """
    if not 0 <= ratio < 1:
        raise ConvergenceError(f"geometric ratio must be in [0, 1), got {ratio}")
    if first < 0:
        raise ConvergenceError(f"first term must be non-negative, got {first}")
    return _GeometricTail(first, ratio)


def zeta_tail(exponent: float, scale: float = 1.0) -> Callable[[int], float]:
    """Tail bound for ``scale / i^exponent`` (i ≥ 1), exponent > 1.

    Integral bound: ``Σ_{i > n} scale/i^s ≤ scale · n^{1−s} / (s − 1)``
    for n ≥ 1; tail(0) falls back to the full sum bound
    ``scale · (1 + 1/(s−1))``.

    >>> tail = zeta_tail(2.0)
    >>> tail(10) <= 0.1 + 1e-12
    True
    """
    if exponent <= 1:
        raise ConvergenceError(
            f"zeta series requires exponent > 1 for convergence, got {exponent}"
        )
    if scale < 0:
        raise ConvergenceError(f"scale must be non-negative, got {scale}")
    return _ZetaTail(exponent, scale)


class SeriesCertificate:
    """A non-negative series with a certified convergent tail.

    Parameters
    ----------
    terms:
        A callable producing a fresh iterator over the terms ``p_1, p_2, …``
        (each call must enumerate the same sequence).
    tail:
        ``tail(n)`` must upper-bound ``Σ_{i > n} p_i`` and tend to 0.
    total:
        The exact value of ``Σ p_i`` if known in closed form, or a
        zero-argument callable computing it, called on the first
        :meth:`sum` and kept; otherwise the sum is approximated on
        demand via :meth:`sum`.

    >>> cert = SeriesCertificate.geometric(0.5, 0.5)
    >>> abs(cert.sum(1e-9) - 1.0) < 1e-8
    True
    >>> cert.prefix_length_for_tail(0.01) <= 10
    True
    """

    def __init__(
        self,
        terms: Callable[[], Iterator[float]],
        tail: Callable[[int], float],
        total: Union[float, Callable[[], float], None] = None,
    ):
        self._terms = terms
        self._tail = tail
        self._total = total

    # ------------------------------------------------------------ constructors
    @classmethod
    def geometric(cls, first: float, ratio: float) -> "SeriesCertificate":
        """``p_i = first · ratio^{i-1}``, i ≥ 1."""
        total = first / (1 - ratio) if ratio < 1 else math.inf
        return cls(
            _GeometricTerms(first, ratio),
            geometric_tail(first, ratio),
            total=total,
        )

    @classmethod
    def zeta(cls, exponent: float, scale: float = 1.0) -> "SeriesCertificate":
        """``p_i = scale / i^exponent``, i ≥ 1, exponent > 1.

        The total is evaluated by Euler–Maclaurin (:class:`_ZetaTotal`)
        on the first :meth:`sum`, not here: building a certificate
        costs no summation.
        """
        return cls(
            _ZetaTerms(exponent, scale),
            zeta_tail(exponent, scale),
            total=_ZetaTotal(exponent, scale),
        )

    @classmethod
    def finite(cls, values: Sequence[float]) -> "SeriesCertificate":
        """A finitely supported series (tail 0 beyond the support)."""
        values = list(values)
        if any(v < 0 for v in values):
            raise ConvergenceError("series terms must be non-negative")
        return cls(
            _FiniteTerms(values),
            _FiniteTail(upward_suffix_sums(values), len(values)),
            total=sum(values),
        )

    # ----------------------------------------------------------------- queries
    def terms(self) -> Iterator[float]:
        """A fresh iterator over the terms."""
        return self._terms()

    def tail(self, n: int) -> float:
        """Certified upper bound on ``Σ_{i > n} p_i``."""
        bound = self._tail(n)
        if bound < 0:
            raise ConvergenceError(f"tail bound must be non-negative, got {bound}")
        return bound

    def sum(self, tolerance: float = 1e-12, max_terms: int = 10**7) -> float:
        """``Σ p_i`` to within ``tolerance`` (exact total if known).

        Raises :class:`ConvergenceError` if the tail does not drop below
        ``tolerance`` within ``max_terms`` terms.
        """
        total = self._total
        if callable(total):
            total = self._total = total()
        if total is not None:
            return total
        acc = 0.0
        for n, term in enumerate(self.terms(), start=1):
            acc += term
            if self.tail(n) <= tolerance:
                return acc
            if n >= max_terms:
                raise ConvergenceError(
                    f"tail still {self.tail(n):.3g} after {max_terms} terms"
                )
        return acc  # finite series exhausted

    def prefix_length_for_tail(self, bound: float, max_terms: int = 10**7) -> int:
        """Smallest n (by linear search) with ``tail(n) ≤ bound``.

        This is the "systematically listing facts until the remaining
        probability mass is small enough" step of Proposition 6.1.
        """
        if bound <= 0:
            raise ConvergenceError(f"tail bound must be positive, got {bound}")
        for n in range(max_terms + 1):
            if self.tail(n) <= bound:
                return n
        raise ConvergenceError(
            f"tail did not reach {bound} within {max_terms} terms "
            "(series may converge arbitrarily slowly, cf. paper §6)"
        )

    def prefix(self, n: int) -> List[float]:
        """The first n terms as a list."""
        return list(itertools.islice(self.terms(), n))


def certify_convergence(
    terms: Sequence[float],
    tail: Optional[Callable[[int], float]] = None,
) -> SeriesCertificate:
    """Build a certificate from an explicit finite term list, or from an
    arbitrary sequence plus a caller-supplied tail bound.

    >>> cert = certify_convergence([0.5, 0.25])
    >>> cert.sum()
    0.75
    """
    if tail is None:
        return SeriesCertificate.finite(terms)
    return SeriesCertificate(_FiniteTerms(list(terms)), tail)
