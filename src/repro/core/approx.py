"""Approximate query evaluation on countable TI PDBs (Proposition 6.1).

Given a Boolean FO query Q, ``0 < ε < 1/2``, and oracle access to a
countable tuple-independent PDB (a certified
:class:`~repro.core.fact_distribution.FactDistribution`), the algorithm:

1. chooses n so that ``α_n = (3/2)·Σ_{i>n} p_i`` satisfies
   ``e^{α_n} ≤ 1 + ε`` and ``e^{−α_n} ≥ 1 − ε`` and every tail fact has
   ``p_i ≤ 1/2`` (ensured by making the tail mass itself ≤ 1/2) — found
   by "systematically listing facts until the remaining probability mass
   is small enough";
2. computes ``p = P(Q | Ω_n)``, where ``Ω_n = 2^{{f_1,…,f_n}}``: because
   the measure is a product, this conditional *is* the finite TI table on
   the first n facts, evaluated by a traditional closed-world algorithm;
3. returns p, which satisfies ``P(Q) − ε ≤ p ≤ P(Q) + ε``.

The non-Boolean extension grounds the free variables over
``adom(Ω_n)`` and approximates each resulting sentence (paper §6).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro import obs
from repro.analysis.bounds import required_alpha
from repro.core.fact_distribution import FactDistribution
from repro.core.tuple_independent import CountableTIPDB
from repro.errors import ApproximationError
from repro.logic.queries import BooleanQuery, Query
from repro.relational.facts import Value


def _require_valid_epsilon(epsilon: float) -> None:
    """The shared Proposition 6.1 hypothesis ``0 < ε < 1/2``."""
    if not 0 < epsilon < 0.5:
        raise ApproximationError(
            f"Proposition 6.1 requires 0 < epsilon < 1/2, got {epsilon}"
        )


def _truncation_target_tail(epsilon: float) -> float:
    """The tail-mass bound that makes Ω_n an ε-truncation: the first
    term yields both ε-conditions on ``e^{±α_n}``, the 0.49 cap forces
    every tail fact below 1/2 (hypothesis of claim (∗))."""
    return min(required_alpha(epsilon) / 1.5, 0.49)


class ApproximationResult(NamedTuple):
    """The output of the Proposition 6.1 algorithm.

    When the finite conditional was itself *estimated*
    (``strategy="sampled"``), the truncation guarantee ε no longer
    covers the whole error: the Monte-Carlo confidence bound on the
    conditional is carried in ``sampling_error`` and the enclosure
    ``[low, high]`` is widened by it, so the interval stays honest —
    ``value ± ε`` alone would claim a certified enclosure the sampled
    conditional cannot provide.
    """

    #: The approximate answer ``p = P(Q | Ω_n)``.
    value: float
    #: The requested additive error guarantee ε.
    epsilon: float
    #: The truncation size n (number of facts kept).
    truncation: int
    #: ``α_n = (3/2) · tail(n)`` actually achieved.
    alpha: float
    #: Confidence bound on the Monte-Carlo error of the finite
    #: conditional (0 when it was computed exactly).
    sampling_error: float = 0.0

    #: The enclosure ``[value − ε − s, value + ε + s] ∩ [0, 1]`` where s
    #: is the sampling-error allowance.
    @property
    def low(self) -> float:
        return max(0.0, self.value - self.epsilon - self.sampling_error)

    @property
    def high(self) -> float:
        return min(1.0, self.value + self.epsilon + self.sampling_error)

    def contains(self, true_probability: float) -> bool:
        return self.low <= true_probability <= self.high


def choose_truncation(
    distribution: FactDistribution,
    epsilon: float,
    max_facts: int = 10**7,
) -> int:
    """The truncation size n of Proposition 6.1.

    Requires ``tail(n) ≤ min(log(1+ε)/1.5, 0.49)``: the first bound gives
    both ε-conditions on ``e^{±α_n}``, the second forces every tail fact
    below 1/2 (hypothesis of claim (∗)).

    >>> from repro.core.fact_distribution import TableFactDistribution
    >>> from repro.relational import RelationSymbol
    >>> R = RelationSymbol("R", 1)
    >>> d = TableFactDistribution({R(1): 0.9, R(2): 0.009})
    >>> choose_truncation(d, 0.1)
    1
    """
    _require_valid_epsilon(epsilon)
    try:
        return distribution.prefix_for_tail(
            _truncation_target_tail(epsilon), max_facts=max_facts)
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
    6.1: smallest n with certified block-mass tail below
    ``min(log(1+ε)/1.5, 0.49)`` (see
    :func:`approximate_query_probability_bid` for why the proof carries
    over)."""
    _require_valid_epsilon(epsilon)
    try:
        return family.prefix_for_tail(
            _truncation_target_tail(epsilon), max_blocks=max_blocks)
    except ApproximationError as exc:
        raise ApproximationError(
            f"cannot certify epsilon={epsilon:g}: {exc}",
            achieved_tail=exc.achieved_tail,
        ) from exc


def _finish_approximation(
    trace: "obs.EvalTrace",
    value: float,
    epsilon: float,
    truncation: int,
    alpha: float,
) -> ApproximationResult:
    """Assemble an :class:`ApproximationResult` from a finished entry
    point: fold the trace's Monte-Carlo confidence bound (if the finite
    conditional was sampled) into the enclosure, record the truncation
    gauges, and attach the :class:`~repro.obs.EvalReport`."""
    sampling_error = trace.gauges.get("sampling.half_width", 0.0)
    obs.gauge("truncation.n", truncation)
    obs.gauge("truncation.alpha", alpha)
    obs.gauge("truncation.epsilon", epsilon)
    result = ApproximationResult(
        float(value), epsilon, truncation, alpha, sampling_error)
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
    ``P(Q | Ω_n)`` is itself estimated by seeded batched Monte Carlo on
    the :mod:`repro.sampling` kernels, so the returned value carries the
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
    (original × truncated-new) finite PDB.  ``strategy`` and
    ``max_facts`` are forwarded exactly as in
    :func:`approximate_query_probability`.
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
    and ``P(Ω̄_n) ≤ 1 − Π_{j>n} p_⊥^j ≤ 1 − e^{−(3/2)·Σ_{j>n} mass_j}``
    by the same claim (∗) once every tail block's mass is ≤ 1/2 —
    guaranteed by pushing the certified block-mass tail below
    ``min(log(1+ε)/1.5, 0.49)``.

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
    paper notes "this approximation only contains facts from Ω_n".

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
    """``n(ε)`` for a range of ε — the complexity profile discussed at
    the end of paper §6 (geometric tails give ``n = O(log 1/ε)``; slower
    series need far larger truncations).

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
