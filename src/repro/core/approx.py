"""Approximate query evaluation on countable TI PDBs (Proposition 6.1).

Given a Boolean FO query Q, ``0 < ε < 1/2``, and oracle access to a
countable tuple-independent PDB (a certified
:class:`~repro.core.fact_distribution.FactDistribution`), the algorithm:

1. chooses the smallest n whose certified tail ``tail(n) ≥ Σ_{i>n} p_i``
   is at most ε — found by "systematically listing facts until the
   remaining probability mass is small enough".  This is all the proof
   needs: the worlds outside ``Ω_n = 2^{{f_1,…,f_n}}`` (those holding
   some fact beyond n) have mass ``δ′ = 1 − P(Ω_n) ≤ Σ_{i>n} p_i`` by the
   union bound, for any marginals.  The paper's own rule bounds δ′
   through claim (∗) instead, which needs a tail about 1.5× smaller and
   every tail fact below 1/2; it is kept as a reproduced result in
   :mod:`repro.analysis.bounds` (α is still reported);
2. computes ``p = P(Q | Ω_n)``: because the measure is a product, this
   conditional *is* the finite TI table on the first n facts, evaluated
   by a traditional closed-world algorithm;
3. returns p with the certified enclosure of :class:`ApproximationResult`:
   ``P(Q) = p + δ′·(P(Q | ¬Ω_n) − p)``, so with ``δ = tail(n) ≥ δ′``,
   ``P(Q) ∈ [p − δ·p, p + δ·(1 − p)]`` — width ``δ ≤ ε``, within the
   paper's ``P(Q) − ε ≤ p ≤ P(Q) + ε``.

The non-Boolean extension grounds the free variables over
``adom(Ω_n)`` and approximates each resulting sentence (paper §6); the
BID extension and Theorem 5.5 completions use the same argument with
blocks, respectively new facts, in place of facts.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional, Tuple

from repro import obs
from repro.analysis.bounds import alpha_from_tail
from repro.core.fact_distribution import FactDistribution
from repro.core.tuple_independent import CountableTIPDB
from repro.errors import ApproximationError
from repro.logic.queries import BooleanQuery, Query
from repro.relational.facts import Value
from repro.utils.probability import FOLD_ERROR_GAUGE, wmc_error_bound

#: The stopping rule every Proposition 6.1 entry point applies, as it
#: appears in reports (``EvalReport.stopping_rule``).
STOPPING_RULE = "union bound: smallest n with tail(n) <= epsilon"


def _require_valid_epsilon(epsilon: float) -> None:
    """The shared Proposition 6.1 hypothesis ``0 < ε < 1/2``."""
    if not 0 < epsilon < 0.5:
        raise ApproximationError(
            f"Proposition 6.1 requires 0 < epsilon < 1/2, got {epsilon}"
        )


def _down(value: float) -> float:
    """One step below a round-to-nearest result: a lower bound on the
    exact value of the operation that produced it."""
    return math.nextafter(value, -math.inf)


def _up(value: float) -> float:
    """One step above a round-to-nearest result: an upper bound."""
    return math.nextafter(value, math.inf)


class ApproximationResult(NamedTuple):
    """The output of the Proposition 6.1 algorithm.

    The certified enclosure ``[low, high]`` follows from
    ``P(Q) = p + δ′·(P(Q | ¬Ω_n) − p)`` with ``δ′ = 1 − P(Ω_n) ≤ δ``,
    the certified ``tail(n)``: ``P(Q) ∈ [p − δ·p, p + δ·(1 − p)]``, of
    width at most δ ≤ ε.  Each end is widened by ``fold_error`` (the
    forward-error bound of the floating-point fold that computed p, see
    DESIGN.md) and by ``sampling_error``, and clipped to [0, 1].  Every
    operation on an end is rounded outward — one ``math.nextafter``
    step past its round-to-nearest result — so each end bounds its
    exact real value.

    When the finite conditional was itself *estimated*
    (``strategy="sampled"``), the truncation guarantee no longer covers
    the whole error: the Monte-Carlo confidence bound on the conditional
    is carried in ``sampling_error`` and the enclosure is widened by it,
    so the interval stays honest.

    A result built without ``tail`` (δ unknown) falls back to the
    paper's ``value ± ε``.
    """

    #: The approximate answer ``p = P(Q | Ω_n)``.
    value: float
    #: The requested additive error guarantee ε.
    epsilon: float
    #: The truncation size n (number of facts kept).
    truncation: int
    #: ``α_n = (3/2) · tail(n)`` — claim (∗)'s quantity, reported for
    #: the reproduced analysis; the enclosure does not use it.
    alpha: float
    #: Confidence bound on the Monte-Carlo error of the finite
    #: conditional (0 when it was computed exactly).
    sampling_error: float = 0.0
    #: δ, the certified ``tail(n) ≥ 1 − P(Ω_n)`` (≤ ε), rounded outward.
    tail: Optional[float] = None
    #: Forward-error bound of the floating-point evaluation of p.
    fold_error: float = 0.0

    @property
    def low(self) -> float:
        if self.tail is None:
            return max(0.0, self.value - self.epsilon - self.sampling_error)
        p = self.value
        low = _down(p - _up(self.tail * p))
        low = _down(_down(low - self.fold_error) - self.sampling_error)
        return max(0.0, low)

    @property
    def high(self) -> float:
        if self.tail is None:
            return min(1.0, self.value + self.epsilon + self.sampling_error)
        p = self.value
        high = _up(p + _up(self.tail * _up(1.0 - p)))
        high = _up(_up(high + self.fold_error) + self.sampling_error)
        return min(1.0, high)

    def contains(self, true_probability: float) -> bool:
        return self.low <= true_probability <= self.high


def choose_truncation(
    distribution: FactDistribution,
    epsilon: float,
    max_facts: int = 10**7,
) -> int:
    """The truncation size n of Proposition 6.1: the smallest n whose
    certified ``tail(n)`` is at most ε (the union bound then gives
    ``1 − P(Ω_n) ≤ ε``), decided exactly
    (:meth:`~repro.core.prefix_cache.PrefixCache.smallest_prefix_for_tail`).

    >>> from repro.core.fact_distribution import TableFactDistribution
    >>> from repro.relational import RelationSymbol
    >>> R = RelationSymbol("R", 1)
    >>> d = TableFactDistribution({R(1): 0.9, R(2): 0.009})
    >>> choose_truncation(d, 0.1)
    1
    """
    _require_valid_epsilon(epsilon)
    try:
        return distribution.prefix_for_tail(epsilon, max_facts=max_facts)
    except ApproximationError as exc:
        raise ApproximationError(
            f"cannot certify epsilon={epsilon:g}: {exc}",
            achieved_tail=exc.achieved_tail,
        ) from exc


def choose_block_truncation(
    family,
    epsilon: float,
    max_blocks: int = 10**6,
) -> int:
    """The block-truncation size of the BID extension of Proposition
    6.1: the smallest n whose certified block-mass tail is at most ε
    (see :func:`approximate_query_probability_bid` for why the proof
    carries over)."""
    _require_valid_epsilon(epsilon)
    try:
        return family.prefix_for_tail(epsilon, max_blocks=max_blocks)
    except ApproximationError as exc:
        raise ApproximationError(
            f"cannot certify epsilon={epsilon:g}: {exc}",
            achieved_tail=exc.achieved_tail,
        ) from exc


def record_certificate(
    trace: "obs.EvalTrace", epsilon: float, n: int, tail: float, table
) -> Tuple[float, float, float]:
    """Record one refinement's certificate in the active traces — n,
    δ = tail(n), α, ε, the fold-error bound and the stopping rule — and
    return ``(alpha, sampling_error, fold_error)`` for its results.

    The fold error is the largest bound an evaluator recorded in
    ``trace``.  An exact evaluation that recorded none (a compiled
    fan-out on pool workers, whose traces stay in the workers) gets the
    weighted-model-counting bound over the facts of the truncation
    ``table`` (the pool takes TI and BID tables only), the only kernel
    the pool runs for it: its diagrams have one variable per fact, while
    n counts blocks of a BID PDB and only the new facts of a
    completion."""
    alpha = alpha_from_tail(tail)
    sampling_error = trace.gauges.get("sampling.half_width", 0.0)
    fold_error = trace.gauges.get(FOLD_ERROR_GAUGE)
    if fold_error is None:
        fold_error = 0.0 if sampling_error else wmc_error_bound(
            len(table.possible_facts()))
    obs.gauge("truncation.n", n)
    obs.gauge("truncation.tail", tail)
    obs.gauge("truncation.alpha", alpha)
    obs.gauge("truncation.epsilon", epsilon)
    obs.gauge(FOLD_ERROR_GAUGE, fold_error)
    obs.note(stopping_rule=STOPPING_RULE)
    return alpha, sampling_error, fold_error


def _finish_approximation(
    trace: "obs.EvalTrace",
    value: float,
    epsilon: float,
    truncation: int,
    tail: float,
    table,
) -> ApproximationResult:
    """Assemble an :class:`ApproximationResult` from a finished entry
    point: record the certificate (:func:`record_certificate`), widen
    the enclosure by the fold-error and Monte-Carlo bounds, and attach
    the :class:`~repro.obs.EvalReport`."""
    alpha, sampling_error, fold_error = record_certificate(
        trace, epsilon, truncation, tail, table)
    result = ApproximationResult(
        float(value), epsilon, truncation, alpha, sampling_error,
        tail, fold_error)
    return obs.attach_report(result, obs.EvalReport.from_trace(trace))


def approximate_query_probability(
    query: BooleanQuery,
    pdb: CountableTIPDB,
    epsilon: float,
    strategy: str = "auto",
    max_facts: int = 10**7,
) -> ApproximationResult:
    """Additive ε-approximation of ``P(Q)`` (Proposition 6.1).

    ``strategy`` is forwarded to the finite evaluator run on the
    truncation Ω_n.  ``strategy="sampled"`` is the sampled fallback for
    truncations too large for exact evaluation: the conditional
    ``P(Q | Ω_n)`` is itself estimated by seeded batched Monte Carlo
    (:mod:`repro.sampling`), so the returned value carries the
    truncation error ε *plus* the (reported-separately) sampling error
    of :data:`repro.finite.evaluation.SAMPLED_STRATEGY_SAMPLES` worlds.

    >>> from repro.relational import Schema
    >>> from repro.universe import Naturals, FactSpace
    >>> from repro.core.fact_distribution import GeometricFactDistribution
    >>> from repro.logic.parser import parse_formula
    >>> schema = Schema.of(R=1)
    >>> space = FactSpace(schema, Naturals())
    >>> pdb = CountableTIPDB(schema, GeometricFactDistribution(
    ...     space, first=0.25, ratio=0.5))
    >>> q = BooleanQuery(parse_formula("EXISTS x. R(x)", schema), schema)
    >>> result = approximate_query_probability(q, pdb, epsilon=0.01)
    >>> 0.3 < result.value < 0.45 and result.truncation >= 4
    True
    """
    from repro.core.refine import RefinementSession

    return RefinementSession(
        query, pdb, strategy=strategy, max_facts=max_facts).refine(epsilon)


def approximate_query_probability_completed(
    query: BooleanQuery,
    completed,
    epsilon: float,
    strategy: str = "auto",
    max_facts: int = 10**7,
) -> ApproximationResult:
    """Proposition 6.1 extended to Theorem 5.5 completions.

    The completion is a product of the original finite PDB with a
    countable TI PDB on new facts; conditioning on Ω_n (no new fact
    beyond the first n) again factorizes, so the proof's error analysis
    applies verbatim — only the finite evaluation now runs on the
    original plus the first n new facts.  For a TI or BID original that
    is one table (Remark 5.6), which every table engine evaluates and a
    session grows in place; explicit worlds are multiplied out with the
    subsets of the new facts.  ``strategy`` and ``max_facts`` are
    forwarded exactly as in :func:`approximate_query_probability`, and
    n is chosen by the same union-bound rule on the new facts' tail.
    """
    from repro.core.refine import RefinementSession

    return RefinementSession(
        query, completed, strategy=strategy, max_facts=max_facts,
    ).refine(epsilon)


def approximate_query_probability_bid(
    query: BooleanQuery,
    pdb,
    epsilon: float,
    max_blocks: int = 10**6,
) -> ApproximationResult:
    """Proposition 6.1 extended to countable BID PDBs (paper §4.4 +
    future-work direction).

    The proof carries over verbatim with blocks in place of facts:
    conditioning the block-product measure on Ω_n = "no block beyond
    the first n is touched" yields the finite BID table on those blocks,
    and ``P(Ω̄_n) = 1 − Π_{j>n} p_⊥^j ≤ Σ_{j>n} mass_j`` by the union
    bound over the tail blocks (block j is touched with probability
    ``mass_j = 1 − p_⊥^j``), for any block masses.  So the block
    truncation stops at the smallest n whose certified block-mass tail
    (rounded outward) is at most ε, and the result carries the same
    enclosure ``[p − δ·p, p + δ·(1 − p)]`` with δ that tail.

    >>> from repro.relational import Schema
    >>> from repro.core.bid import BlockFamily, CountableBIDPDB
    >>> from repro.finite.bid import Block
    >>> from repro.logic import parse_formula
    >>> schema = Schema.of(R=2)
    >>> R = schema["R"]
    >>> family = BlockFamily.geometric(
    ...     make_block=lambda i: Block(
    ...         f"k{i}", {R(i + 1, 1): 0.25 * 0.5**i,
    ...                   R(i + 1, 2): 0.25 * 0.5**i}),
    ...     block_mass=lambda i: 0.5 * 0.5**i, first=0.5, ratio=0.5)
    >>> pdb = CountableBIDPDB(schema, family)
    >>> q = BooleanQuery(parse_formula("EXISTS x, y. R(x, y)", schema),
    ...                  schema)
    >>> result = approximate_query_probability_bid(q, pdb, 0.01)
    >>> 0.5 < result.value < 0.75
    True
    """
    from repro.core.refine import RefinementSession

    return RefinementSession(
        query, pdb, strategy="auto", max_facts=max_blocks).refine(epsilon)


def approximate_answer_marginals(
    query: Query,
    pdb: CountableTIPDB,
    epsilon: float,
    strategy: str = "auto",
    max_facts: int = 10**7,
    workers: Optional[int] = None,
) -> Dict[Tuple[Value, ...], ApproximationResult]:
    """The non-Boolean extension of Proposition 6.1 (paper §6).

    Grounds the free variables ``x̄`` over ``adom(Ω_n)`` (plus the
    query's own constants) and approximates each sentence ``Q(ā)``.
    Tuples outside ``adom(Ω_n)^k`` have approximate probability 0 — the
    paper notes "this approximation only contains facts from Ω_n".  One
    n serves every answer: the union bound holds per sentence, so each
    answer's result carries the enclosure ``[p − δ·p, p + δ·(1 − p)]``
    with the shared δ = tail(n).

    The grounding loop is
    :func:`repro.finite.evaluation.marginal_answer_probabilities` on the
    truncation: a safe query gets every answer's marginal from one
    grouped lifted pass in-process (``workers=`` does not apply), while
    compiled fan-outs share one lineage/BDD across every answer tuple
    and ``workers=k`` spreads their answer tuples over the shard pool.

    >>> from repro.relational import Schema
    >>> from repro.universe import Naturals, FactSpace
    >>> from repro.core.fact_distribution import GeometricFactDistribution
    >>> from repro.logic.parser import parse_formula
    >>> schema = Schema.of(R=1)
    >>> space = FactSpace(schema, Naturals())
    >>> pdb = CountableTIPDB(schema, GeometricFactDistribution(
    ...     space, first=0.5, ratio=0.5))
    >>> q = Query(parse_formula("R(x)", schema), schema)
    >>> marginals = approximate_answer_marginals(q, pdb, epsilon=0.05)
    >>> round(marginals[(1,)].value, 3)
    0.5
    """
    from repro.core.refine import RefinementSession

    return RefinementSession(
        query, pdb, strategy=strategy, max_facts=max_facts,
    ).refine_marginals(epsilon, workers=workers)


def truncation_profile(
    distribution: FactDistribution,
    epsilons,
    max_facts: int = 10**7,
) -> Dict[float, int]:
    """``n(ε)`` for a range of ε under the union-bound rule of
    :func:`choose_truncation` — the complexity profile discussed at the
    end of paper §6 (geometric tails give ``n = O(log 1/ε)``; a zeta
    tail ``Σ_{i>n} c/i^s`` gives ``n ~ ε^{−1/(s−1)}``).

    The ε values are processed loosest-first so every entry is served
    from one shared, monotonically extended prefix materialization; the
    returned dict keeps the caller's ε order (duplicates collapse).
    """
    ordered = sorted({float(epsilon) for epsilon in epsilons}, reverse=True)
    sizes = {
        epsilon: choose_truncation(distribution, epsilon, max_facts=max_facts)
        for epsilon in ordered
    }
    return {float(epsilon): sizes[float(epsilon)] for epsilon in epsilons}
