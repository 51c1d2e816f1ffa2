"""Monte-Carlo query evaluation with confidence intervals.

The sampling fallback for queries outside every exact engine's reach
(non-hierarchical with large lineage), and the E8 ablation baseline:
its error decays as ``n^{−1/2}`` while exact engines are exact.

Sampling runs on the batched draws of :mod:`repro.sampling`: the
representation is compiled to a plan once, worlds are generated
:data:`~repro.sampling.DEFAULT_BATCH_SIZE` at a time, and model
checking is memoised per distinct world.
"""

from __future__ import annotations

import math
import random
from statistics import NormalDist
from typing import Callable, NamedTuple, Optional, Union

from repro import obs
from repro.finite.bid import BlockIndependentTable
from repro.finite.pdb import FinitePDB
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic.queries import BooleanQuery
from repro.relational.instance import Instance
from repro.sampling import batches, plan_for

Samplable = Union[FinitePDB, TupleIndependentTable, BlockIndependentTable]


class MonteCarloEstimate(NamedTuple):
    """A point estimate with a normal-approximation confidence interval."""

    estimate: float
    samples: int
    #: Half-width of the confidence interval at the requested level.
    half_width: float

    @property
    def low(self) -> float:
        return max(0.0, self.estimate - self.half_width)

    @property
    def high(self) -> float:
        return min(1.0, self.estimate + self.half_width)

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


#: Pre-tabulated standard normal quantiles for the common levels, kept
#: so long-standing callers see bit-identical half-widths.
_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def z_quantile(confidence: float) -> float:
    """Two-sided standard-normal quantile ``Φ⁻¹((1 + confidence)/2)``.

    Accepts any confidence level in ``(0, 1)`` via the inverse-CDF
    rational approximation behind :class:`statistics.NormalDist`.

    >>> round(z_quantile(0.975), 4)
    2.2414
    >>> z_quantile(0.95)
    1.96
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    z = _Z.get(confidence)
    if z is None:
        z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    return z


def _wald_estimate(hits: int, samples: int, z: float) -> MonteCarloEstimate:
    estimate = hits / samples
    # Wald interval with a continuity floor to avoid zero width at 0/1.
    variance = max(estimate * (1.0 - estimate), 1.0 / samples)
    std_error = math.sqrt(variance / samples)
    half_width = z * std_error
    obs.incr("sampling.samples", samples)
    obs.gauge_max("sampling.half_width", half_width)
    obs.gauge_max("sampling.std_error", std_error)
    return MonteCarloEstimate(estimate, samples, half_width)


def _batched_hits(check_row: Callable, plan, samples: int, rng, seed) -> int:
    hits = 0
    for k, batch_rng in batches(samples, rng=rng, seed=seed):
        for row in plan.sample_rows(k, batch_rng):
            if check_row(row):
                hits += 1
    return hits


def _monte_carlo(checker_of, pdb, samples, rng, confidence, seed):
    """Sample ``samples`` worlds of ``pdb`` and count those that the
    plan's checker (``checker_of(plan)``) accepts."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    z = z_quantile(confidence)
    with obs.trace() as t:
        obs.note(strategy="monte-carlo")
        with obs.phase("sample"):
            plan = plan_for(pdb)
            hits = _batched_hits(checker_of(plan), plan, samples, rng, seed)
        estimate = _wald_estimate(hits, samples, z)
    return obs.attach_report(estimate, obs.EvalReport.from_trace(t))


def query_probability_monte_carlo(
    query: BooleanQuery,
    pdb: Samplable,
    samples: int,
    rng: Optional[random.Random] = None,
    confidence: float = 0.95,
    seed: Optional[int] = None,
) -> MonteCarloEstimate:
    """Estimate ``P(Q)`` by sampling worlds and model checking.

    Randomness comes from either a caller ``rng`` (consumed
    sequentially) or a ``seed`` (every batch reproducible from
    ``(seed, batch_index)``); exactly one is required.

    >>> from repro.relational import Schema
    >>> from repro.logic.parser import parse_formula
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> table = TupleIndependentTable(schema, {R(1): 0.5})
    >>> q = BooleanQuery(parse_formula("EXISTS x. R(x)", schema), schema)
    >>> est = query_probability_monte_carlo(q, table, 2000, seed=1)
    >>> est.contains(0.5)
    True
    """
    return _monte_carlo(
        lambda plan: plan.model_checker(query), pdb, samples, rng,
        confidence, seed)


def event_probability_monte_carlo(
    event: Callable[[Instance], bool],
    pdb: Samplable,
    samples: int,
    rng: Optional[random.Random] = None,
    confidence: float = 0.95,
    seed: Optional[int] = None,
) -> MonteCarloEstimate:
    """Like :func:`query_probability_monte_carlo` for arbitrary events.

    ``event`` must be a deterministic predicate on instances: its value
    is memoised per distinct sampled world.
    """
    return _monte_carlo(
        lambda plan: plan.event_checker(event), pdb, samples, rng,
        confidence, seed)
