"""Monte-Carlo query evaluation with confidence intervals.

The sampling fallback for queries outside every exact engine's reach
(non-hierarchical with large lineage), and the E8 ablation baseline:
its error decays as ``n^{−1/2}`` while exact engines are exact.

Sampling runs on the batched kernel of :mod:`repro.sampling` by
default (``backend="auto"``): the representation is compiled to a plan
once, worlds are generated ``batch_size`` at a time, and model checking
is memoised per distinct world.  ``backend="scalar"`` preserves the
original one-draw-at-a-time loop as the differential-testing reference.
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
from repro.sampling import DEFAULT_BATCH_SIZE, batch_rngs, get_kernel, plan_for

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


def _batched_hits(
    check_row: Callable,
    plan,
    samples: int,
    kernel,
    rng,
    seed,
    batch_size: int,
) -> int:
    rng_for = batch_rngs(kernel, rng=rng, seed=seed)
    hits = 0
    done = 0
    batch_index = 0
    while done < samples:
        k = min(batch_size, samples - done)
        for row in plan.sample_rows(kernel, k, rng_for(batch_index)):
            if check_row(row):
                hits += 1
        done += k
        batch_index += 1
    obs.incr("sampling.batches", batch_index)
    return hits


def query_probability_monte_carlo(
    query: BooleanQuery,
    pdb: Samplable,
    samples: int,
    rng: Optional[random.Random] = None,
    confidence: float = 0.95,
    backend: str = "auto",
    seed: Optional[int] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
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
    if samples <= 0:
        raise ValueError("samples must be positive")
    z = z_quantile(confidence)
    with obs.trace() as t:
        obs.note(strategy=f"monte-carlo[{backend}]")
        with obs.phase("sample"):
            if backend == "scalar":
                if rng is None:
                    if seed is None:
                        raise ValueError("provide rng= or seed=")
                    rng = random.Random(seed)
                hits = 0
                for _ in range(samples):
                    world = pdb.sample(rng)
                    if query.holds_in(world):
                        hits += 1
            else:
                kernel = get_kernel(backend)
                plan = plan_for(pdb)
                hits = _batched_hits(
                    plan.model_checker(query), plan, samples, kernel, rng,
                    seed, batch_size,
                )
        estimate = _wald_estimate(hits, samples, z)
    return obs.attach_report(estimate, obs.EvalReport.from_trace(t))


def event_probability_monte_carlo(
    event: Callable[[Instance], bool],
    pdb: Samplable,
    samples: int,
    rng: Optional[random.Random] = None,
    confidence: float = 0.95,
    backend: str = "auto",
    seed: Optional[int] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> MonteCarloEstimate:
    """Like :func:`query_probability_monte_carlo` for arbitrary events.

    ``event`` must be a deterministic predicate on instances: the
    batched path memoises its value per distinct sampled world.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    z = z_quantile(confidence)
    with obs.trace() as t:
        obs.note(strategy=f"monte-carlo[{backend}]")
        with obs.phase("sample"):
            if backend == "scalar":
                if rng is None:
                    if seed is None:
                        raise ValueError("provide rng= or seed=")
                    rng = random.Random(seed)
                hits = sum(
                    1 for _ in range(samples) if event(pdb.sample(rng)))
            else:
                kernel = get_kernel(backend)
                plan = plan_for(pdb)
                hits = _batched_hits(
                    plan.event_checker(event), plan, samples, kernel, rng,
                    seed, batch_size,
                )
        estimate = _wald_estimate(hits, samples, z)
    return obs.attach_report(estimate, obs.EvalReport.from_trace(t))
