"""Batched sampling for the Monte-Carlo engines.

The paper's approximation stack (Proposition 6.1 truncation, the
Karp–Luby FPRAS, plain Monte Carlo) reduces everything to repeated
finite-world sampling, so this package centralises world generation:

* :mod:`~repro.sampling.stream` — seeded :class:`SampleStream` objects
  making every estimate reproducible from ``(seed, batch_index)``;
* :mod:`~repro.sampling.kernels` — the batched draws,
  :func:`bernoulli_rows` and :func:`categorical`, and :func:`batches`,
  which splits an estimate into seeded batches;
* :mod:`~repro.sampling.plans` — pre-materialised per-representation
  sampling plans (TI / BID / explicit worlds) with batch-level model
  checking (compile the query once, memoise truth per distinct world),
  and :func:`sample_instances`, every finite representation's batch
  sampler.
"""

from repro.sampling.kernels import (
    DEFAULT_BATCH_SIZE,
    batch_rngs,
    batches,
    bernoulli_rows,
    categorical,
)
from repro.sampling.plans import (
    BIDPlan,
    TIPlan,
    WorldPlan,
    plan_for,
    sample_instances,
)
from repro.sampling.stream import SampleStream, as_stream

__all__ = [
    "BIDPlan",
    "DEFAULT_BATCH_SIZE",
    "SampleStream",
    "TIPlan",
    "WorldPlan",
    "as_stream",
    "batch_rngs",
    "batches",
    "bernoulli_rows",
    "categorical",
    "plan_for",
    "sample_instances",
]
