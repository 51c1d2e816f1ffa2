"""Persistent shard pool for compiled answer-marginal fan-outs.

Long-lived worker processes (:mod:`repro.parallel.pool`), each started
with its slot's first task and kept warm across calls,
refinement-session sweep steps, and serve sessions; O(delta) table
shipping plus worker-side compiled-diagram state
(:mod:`repro.parallel.shipping`); latency-adaptive contiguous chunks of
the answer space (:mod:`repro.parallel.schedule`).  Workers
route and score each chunk with the serial fan-out's own helpers, so a
pooled result equals the serial one, entry order included.  Safe
queries on TI tables never reach the pool: the evaluation layer answers
them with one in-process grouped lifted pass.

Entry points most callers want:

* ``marginal_answer_probabilities(..., workers=k)`` — the evaluation
  layer routes compiled fan-outs through :func:`get_shared_pool`
  automatically;
* :func:`get_shared_pool` / :class:`ShardPool` — explicit pool handles
  for sessions and the serve layer;
* :func:`pooled_answer_marginals` — the orchestrator, for callers that
  manage their own pool.
"""

from repro.parallel.pool import (
    MAX_SHARD_CRASHES,
    PoolUnavailableError,
    ShardError,
    ShardPool,
    get_shared_pool,
    shutdown_shared_pools,
)
from repro.parallel.schedule import ChunkScheduler
from repro.parallel.shipping import (
    ShipError,
    TableShipper,
    pooled_answer_marginals,
    shipper_for,
)

__all__ = [
    "MAX_SHARD_CRASHES",
    "ChunkScheduler",
    "PoolUnavailableError",
    "ShardError",
    "ShardPool",
    "ShipError",
    "TableShipper",
    "get_shared_pool",
    "pooled_answer_marginals",
    "shipper_for",
    "shutdown_shared_pools",
]
