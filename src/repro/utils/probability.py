"""Shared probability arithmetic: complements, disjunctions, log space.

Every engine in the repo keeps meeting the same two quantities —

* the *complement product* ``Π (1 − p_i)`` (empty-world probability,
  Theorem 4.8 absent-fact factor, Shannon pivot weights), and
* the *independent disjunction* ``1 − Π (1 − p_i)`` (independent
  project/union folds of the lifted evaluator, block remainders) —

and before this module each call site re-implemented the naive
``complement *= 1.0 - p`` loop.  That loop is wrong twice at scale: for
``p`` below one ulp of 1.0 the factor ``1 − p`` rounds to exactly 1.0
(so 10⁵ facts of marginal 1e-20 "contribute nothing" instead of the
true ≈1e-15), and long products underflow to 0.0 past ~1e-308.

This module is the single home for that arithmetic.  The policy is the
one :func:`product_complement` has always used (moved here verbatim from
``repro.analysis.products``, which now re-exports it):

* multiply directly — one rounding per factor keeps dyadic marginals
  **bit-exact**, which is what lets the exact query strategies agree to
  the last ulp;
* accumulate in log space only where direct multiplication loses
  information: probabilities below 1e-16 (``log1p(−p) = −p`` to double
  precision there) and products at the edge of underflow (< 1e-300).

:class:`ComplementAccumulator` is the streaming form of the same policy,
for evaluator loops that need early exit; the ``vector_*`` helpers are
the batch form over numpy arrays for the columnar fast path
(:mod:`repro.relational.columns`).

>>> product_complement([0.5, 0.5])
0.25
>>> disjunction([0.5, 0.5])
0.75
>>> disjunction([1e-20] * 10) > 0.0   # the naive loop returns 0.0 here
True
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Optional, Sequence

from repro import obs
from repro.errors import ConvergenceError
from repro.utils.rationals import round_up

__all__ = [
    "ComplementAccumulator",
    "FOLD_ERROR_GAUGE",
    "UNIT_ROUNDOFF",
    "disjunction",
    "log_product_complement",
    "numpy_or_none",
    "product_complement",
    "segmented_complement_product",
    "segmented_disjunction",
    "segmented_fold",
    "segmented_log_complement",
    "vector_complement_product",
    "vector_disjunction",
    "vector_log_complement",
    "wmc_error_bound",
    "worlds_error_bound",
]

#: Below this, ``1 − p`` rounds to exactly 1.0 (one ulp of 1.0 is
#: ~2.2e-16); such factors are accumulated in log space instead, where
#: ``log1p(−p) = −p`` to double precision.
TINY_PROBABILITY = 1e-16
#: Products below this are within ~8 factors of underflowing to 0.0;
#: the running product is folded into the log residual and restarted.
UNDERFLOW_FLOOR = 1e-300


#: Unit roundoff of IEEE double precision under round-to-nearest: every
#: operation's relative error is at most this.
UNIT_ROUNDOFF = 2.0**-53
#: Gauge: the largest forward-error bound of the floating-point folds
#: behind one answer — what the certified enclosure is widened by.
FOLD_ERROR_GAUGE = "fold.error"


def record_fold_error(bound: float) -> None:
    """Report an evaluator's forward-error bound to the active traces
    (the worst case over a fan-out's answers wins)."""
    obs.gauge_max(FOLD_ERROR_GAUGE, bound)


def wmc_error_bound(facts: int) -> float:
    """Forward-error bound ``8·u·(facts + 1)`` of a weighted model count
    — a BDD score, a Shannon expansion, or their block-branching BID
    forms — over at most ``facts`` variables.

    Each node computes ``p·v_high + (1 − p)·v_low`` from children in
    [0, 1]: at most 5u of new error on top of the larger child error, so
    the error grows by ≤ 5u per level of a path, and a path tests each
    variable at most once (DESIGN.md, "Sound in floating point").

    >>> wmc_error_bound(100) < 1e-13
    True
    """
    return round_up(8 * UNIT_ROUNDOFF * (facts + 1))


def worlds_error_bound(worlds: int, facts: int) -> float:
    """Forward-error bound ``u·(worlds + 2·facts + 4)`` of world
    enumeration: each world's mass is a product of at most ``facts + 1``
    factors (relative error ≤ (2·facts + 4)·u) and the sum over at most
    ``worlds`` masses totalling ≤ 1 adds ≤ u per term."""
    return round_up(UNIT_ROUNDOFF * (worlds + 2 * facts + 4))


_NUMPY_PROBE_LOCK = threading.Lock()
_NUMPY_UNPROBED = object()
_numpy_probe = _NUMPY_UNPROBED


def numpy_or_none():
    """The imported numpy module, or None without the ``[fast]`` extra.

    Probed exactly once per process, under a lock: concurrent first
    imports of a *failing* numpy (e.g. a raising stub on the path)
    can transiently leave a half-initialized module in ``sys.modules``,
    letting two threads disagree on availability — and a
    ``resolve_backend("auto")`` that says ``"numpy"`` while the next
    call says absent crashes mid-construction.  Memoizing pins one
    answer for the process lifetime.
    """
    global _numpy_probe
    if _numpy_probe is _NUMPY_UNPROBED:
        with _NUMPY_PROBE_LOCK:
            if _numpy_probe is _NUMPY_UNPROBED:
                try:
                    import numpy
                except ImportError:
                    _numpy_probe = None
                else:
                    _numpy_probe = numpy
    return _numpy_probe


class ComplementAccumulator:
    """Streaming ``Π (1 − p_i)`` with the hybrid direct/log-space policy.

    Feeds one probability at a time — the form the lifted evaluator's
    union/project folds need, where each ``p_i`` is itself a recursive
    plan evaluation and a factor of 0 should short-circuit the loop.

    The running state is ``product · exp(residual_log)``: ``product``
    collects ordinary factors by direct multiplication (bit-identical to
    the historical ``complement *= 1.0 - p`` loop on such inputs), while
    ``residual_log`` collects the factors direct multiplication would
    drop — tiny probabilities and underflowed partial products.

    >>> acc = ComplementAccumulator()
    >>> for p in (0.5, 0.25):
    ...     acc.add(p)
    >>> acc.complement()
    0.375
    >>> acc.disjunction()
    0.625
    >>> acc = ComplementAccumulator()
    >>> for p in [1e-20] * 100000:
    ...     acc.add(p)
    >>> round(acc.disjunction() / 1e-15, 6)   # naive loop: exactly 0.0
    1.0
    """

    __slots__ = ("product", "residual_log", "_zero")

    def __init__(self) -> None:
        self.product = 1.0
        self.residual_log = 0.0
        self._zero = False

    def add(self, probability: float) -> None:
        """Fold one factor ``1 − probability`` into the product."""
        if probability >= 1.0:
            self._zero = True
            return
        if probability < TINY_PROBABILITY:
            if probability > 0.0:
                self.residual_log -= probability
            return
        self.product *= 1.0 - probability
        if self.product < UNDERFLOW_FLOOR:
            self.residual_log += math.log(self.product)
            self.product = 1.0

    @property
    def is_zero(self) -> bool:
        """True once a factor of 1.0 made the whole product 0."""
        return self._zero

    def complement(self) -> float:
        """The product ``Π (1 − p_i)`` folded so far."""
        if self._zero:
            return 0.0
        if self.residual_log == 0.0:
            return self.product
        return self.product * math.exp(self.residual_log)

    def disjunction(self) -> float:
        """``1 − Π (1 − p_i)`` — exact where the subtraction would
        cancel (all mass in the log residual) via ``−expm1``."""
        if self._zero:
            return 1.0
        if self.residual_log == 0.0:
            # Bit-identical to the historical ``1.0 - complement`` exit.
            return 1.0 - self.product
        if self.product == 1.0:
            return -math.expm1(self.residual_log)
        return -math.expm1(math.log(self.product) + self.residual_log)


def product_complement(probabilities: Iterable[float]) -> float:
    """Finite product ``Π (1 − p_i)`` for probabilities ``p_i ∈ [0, 1]``.

    Multiplies directly — one rounding per factor, so dyadic marginals
    stay *bit-exact* (which lets the exact query-evaluation strategies
    agree to the last ulp) and the hot path of world expansion skips a
    ``log1p``/``exp`` round-trip per fact.  Probabilities below one ulp
    of 1.0 (where ``1 − p`` would round to 1) and products at the edge
    of underflow are accumulated in log space as before.

    >>> product_complement([0.5, 0.5])
    0.25
    >>> product_complement([1.0, 0.3])
    0.0
    """
    product = 1.0
    residual_log = 0.0
    for p in probabilities:
        if not 0 <= p <= 1:
            raise ConvergenceError(f"probability {p} outside [0, 1]")
        if p == 1.0:
            return 0.0
        if p < TINY_PROBABILITY:
            # 1 − p rounds to 1.0; log1p(−p) is −p to double precision.
            residual_log -= p
            continue
        product *= 1.0 - p
        if product < UNDERFLOW_FLOOR:
            residual_log += math.log(product)
            product = 1.0
    if residual_log == 0.0:
        return product
    return product * math.exp(residual_log)


def disjunction(probabilities: Iterable[float]) -> float:
    """Independent disjunction ``1 − Π (1 − p_i)``.

    The complement goes through :func:`product_complement`'s hybrid
    policy, and when the whole product lives in the log residual the
    subtraction happens as ``−expm1`` — so a sea of tiny marginals sums
    instead of vanishing.

    >>> disjunction([0.5, 0.5])
    0.75
    >>> disjunction([])
    0.0
    >>> round(disjunction([1e-20] * 100000) / 1e-15, 6)
    1.0
    """
    acc = ComplementAccumulator()
    for p in probabilities:
        if not 0 <= p <= 1:
            raise ConvergenceError(f"probability {p} outside [0, 1]")
        acc.add(p)
        if acc.is_zero:
            return 1.0
    return acc.disjunction()


def log_product_complement(probabilities: Iterable[float]) -> float:
    """``log Π (1 − p_i) = Σ log1p(−p_i)``; −inf if any ``p_i = 1``.

    >>> log_product_complement([0.5]) == math.log(0.5)
    True
    """
    total = 0.0
    for p in probabilities:
        if not 0 <= p <= 1:
            raise ConvergenceError(f"probability {p} outside [0, 1]")
        if p == 1.0:
            return -math.inf
        total += math.log1p(-p)
    return total


# --------------------------------------------------------------- numpy batch
# The vectorized forms used by the columnar layer.  They take the numpy
# module explicitly so the caller (which already resolved its backend)
# pays the import check once, not per kernel call.

def vector_log_complement(np, marginals) -> float:
    """``Σ log1p(−p_i)`` over a float array; −inf if any ``p_i = 1``."""
    if marginals.size == 0:
        return 0.0
    if float(marginals.max(initial=0.0)) >= 1.0:
        return -math.inf
    return float(np.log1p(-marginals).sum())


def vector_complement_product(np, marginals) -> float:
    """``Π (1 − p_i)`` over a float array, via the log-space sum —
    underflow-free, bit-near (≤1e-12 relative) the sequential product."""
    log_total = vector_log_complement(np, marginals)
    if log_total == -math.inf:
        return 0.0
    return math.exp(log_total)


def vector_disjunction(np, marginals) -> float:
    """``1 − Π (1 − p_i)`` over a float array via ``−expm1(Σ log1p)`` —
    keeps the tiny-marginal mass the elementwise subtraction drops."""
    log_total = vector_log_complement(np, marginals)
    if log_total == -math.inf:
        return 1.0
    return -math.expm1(log_total)


# ----------------------------------------------------------- segmented batch
# Segmented forms for the set-at-a-time plan executor: one call folds
# *many* independent groups at once over contiguous segments
# ``values[offsets[i]:offsets[i+1]]`` (``offsets`` has ``n_groups + 1``
# entries, first 0, last ``len(values)``).  Empty segments fold the
# empty product: complement 1.0, disjunction 0.0, log-complement 0.0.
#
# The numpy path must honour the same hybrid policy as
# :class:`ComplementAccumulator` — in particular per-segment products of
# ordinary factors are *sequential in-order multiplications* (exact on
# dyadic marginals), which is precisely what ``np.multiply.reduceat``
# computes.  Tiny probabilities and underflowed segments move to a log
# residual exactly as the streaming accumulator does, so the two forms
# agree bit-for-bit wherever the accumulator never enters log space.


def _segmented_python(values, offsets):
    """Per-segment ``ComplementAccumulator`` states for the fallback."""
    accs = []
    for start, end in zip(offsets, offsets[1:]):
        acc = ComplementAccumulator()
        for j in range(start, end):
            acc.add(values[j])
            if acc.is_zero:
                break
        accs.append(acc)
    return accs


def _segmented_state(np, values, offsets):
    """Per-segment ``(product, residual_log, is_zero)`` of the hybrid
    complement fold — the vector form of ``ComplementAccumulator``."""
    values = np.asarray(values, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.intp)
    starts = offsets[:-1]
    counts = np.diff(offsets)
    n_segments = len(starts)
    if n_segments == 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty.copy(), np.empty(0, dtype=bool)
    ones = values >= 1.0
    tiny = (values > 0.0) & (values < TINY_PROBABILITY)
    # Ordinary factors multiply directly; tiny and saturating entries
    # become the identity here and are folded via the masks below.
    factors = np.where(ones | tiny, 1.0, 1.0 - values)
    # ``reduceat`` quirks: a start index equal to ``len(values)`` raises,
    # and ``start == next_start`` returns the single element instead of
    # the empty product — so pad with one identity element (folding it
    # into the final real segment is exact) and overwrite empty segments
    # from the ``counts`` mask afterwards.
    empty_mask = counts == 0
    products = np.multiply.reduceat(np.append(factors, 1.0), starts)
    products[empty_mask] = 1.0
    residual = np.add.reduceat(np.append(np.where(tiny, -values, 0.0), 0.0), starts)
    residual[empty_mask] = 0.0
    one_counts = np.add.reduceat(np.append(ones, False).astype(np.float64), starts)
    one_counts[empty_mask] = 0.0
    is_zero = one_counts > 0.0
    # Segments whose sequential product slid under the underflow floor
    # lost information the accumulator would have kept (it folds the
    # partial product into the residual and restarts); redo just those
    # segments as a log-space sum.  ``factors`` is strictly positive
    # wherever it is not 1.0 (p < 1 implies 1 − p ≥ 2⁻⁵³), so the log is
    # finite.
    low = (products < UNDERFLOW_FLOOR) & ~is_zero & ~empty_mask
    if bool(low.any()):
        with np.errstate(divide="ignore"):
            log_products = np.add.reduceat(np.append(np.log(factors), 0.0), starts)
        residual = np.where(low, residual + log_products, residual)
        products = np.where(low, 1.0, products)
    return products, residual, is_zero


def segmented_complement_product(np, values, offsets):
    """Per-segment ``Π (1 − p_i)`` over contiguous segments.

    With ``np=None`` runs the pure-Python streaming accumulator per
    segment and returns a list; with numpy returns a float64 array.

    >>> segmented_complement_product(None, [0.5, 0.5, 0.25], [0, 2, 2, 3])
    [0.25, 1.0, 0.75]
    """
    if np is None:
        return [acc.complement() for acc in _segmented_python(values, offsets)]
    products, residual, is_zero = _segmented_state(np, values, offsets)
    # ``exp(0.0) == 1.0`` and multiplying by exactly 1.0 preserves bits,
    # so segments with no residual keep the accumulator's direct product.
    out = products * np.exp(residual)
    return np.where(is_zero, 0.0, out)


def segmented_disjunction(np, values, offsets):
    """Per-segment ``1 − Π (1 − p_i)`` over contiguous segments.

    Matches :meth:`ComplementAccumulator.disjunction` per segment: the
    no-residual exit is the bit-identical ``1.0 − product``, and
    residual-bearing segments go through ``−expm1``.

    >>> segmented_disjunction(None, [0.5, 0.5, 0.25], [0, 2, 2, 3])
    [0.75, 0.0, 0.25]
    """
    return segmented_fold(np, values, offsets)[0]


def segmented_fold(np, values, offsets):
    """:func:`segmented_disjunction` with the state each segment's fold
    ended in: ``(disjunctions, products, residuals, zeros)``, as lists
    with ``np=None`` and as arrays otherwise.

    A segment's fold is *clean* when it is zero, or when it has no log
    residual and its product is at least :data:`UNDERFLOW_FLOOR`; its
    disjunction is then 1.0 or ``1.0 − product``.  Multiplying further
    factors ``1 − p`` onto a clean product, in order, gives the bits a
    fold of the longer segment gives, for as long as no ``p`` is tiny
    and the product stays above the floor: both backends multiply a
    segment's factors strictly left to right.

    >>> segmented_fold(None, [0.5, 0.5, 1e-20], [0, 2, 3])
    ([0.75, 1e-20], [0.25, 1.0], [0.0, -1e-20], [False, False])
    """
    if np is None:
        accs = _segmented_python(values, offsets)
        return (
            [acc.disjunction() for acc in accs],
            [acc.product for acc in accs],
            [acc.residual_log for acc in accs],
            [acc.is_zero for acc in accs],
        )
    products, residual, is_zero = _segmented_state(np, values, offsets)
    if len(products) == 0:
        return products, products, residual, is_zero
    with np.errstate(divide="ignore", invalid="ignore"):
        rescued = -np.expm1(np.log(products) + residual)
    out = np.where(residual == 0.0, 1.0 - products, rescued)
    return np.where(is_zero, 1.0, out), products, residual, is_zero


def segmented_log_complement(np, values, offsets):
    """Per-segment ``Σ log1p(−p_i)``; −inf where any ``p_i ≥ 1``.

    >>> segmented_log_complement(None, [0.5], [0, 1, 1]) == [math.log(0.5), 0.0]
    True
    """
    if np is None:
        out = []
        for start, end in zip(offsets, offsets[1:]):
            total = 0.0
            for j in range(start, end):
                if values[j] >= 1.0:
                    total = -math.inf
                    break
                total += math.log1p(-values[j])
            out.append(total)
        return out
    values = np.asarray(values, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.intp)
    starts = offsets[:-1]
    if len(starts) == 0:
        return np.empty(0, dtype=np.float64)
    counts = np.diff(offsets)
    ones = values >= 1.0
    logs = np.log1p(-np.where(ones, 0.0, values))
    totals = np.add.reduceat(np.append(logs, 0.0), starts)
    totals[counts == 0] = 0.0
    one_counts = np.add.reduceat(np.append(ones, False).astype(np.float64), starts)
    one_counts[counts == 0] = 0.0
    return np.where(one_counts > 0.0, -math.inf, totals)


def sum_values(values: Sequence[float], np: Optional[object] = None) -> float:
    """``Σ values`` — ``math.fsum``-free plain sum matching the historic
    dict-path rounding on lists, ``ndarray.sum()`` on arrays."""
    if np is not None and isinstance(values, np.ndarray):
        return float(values.sum())
    return sum(values)
