"""Batched sampling kernels for the Monte-Carlo engines.

The paper's approximation stack (Proposition 6.1 truncation, the
Karp–Luby FPRAS, plain Monte Carlo) reduces everything to repeated
finite-world sampling, so this package centralises world generation:

* :mod:`~repro.sampling.stream` — seeded :class:`SampleStream` objects
  making every estimate reproducible from ``(seed, batch_index)``;
* :mod:`~repro.sampling.kernels` — :class:`PythonKernel`, the one
  batched kernel, which ``backend="auto"`` and ``backend="python"`` name;
* :mod:`~repro.sampling.plans` — pre-materialised per-representation
  sampling plans (TI / BID / explicit worlds) with batch-level model
  checking (compile the query once, memoise truth per distinct world).

Engines keep their original one-draw-at-a-time code paths under
``backend="scalar"`` as the differential-testing reference.
"""

from repro.sampling.kernels import (
    DEFAULT_BATCH_SIZE,
    PythonKernel,
    SCALAR,
    batch_rngs,
    get_kernel,
    resolve_rng,
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
    "PythonKernel",
    "SCALAR",
    "SampleStream",
    "TIPlan",
    "WorldPlan",
    "as_stream",
    "batch_rngs",
    "get_kernel",
    "plan_for",
    "resolve_rng",
    "sample_instances",
]
