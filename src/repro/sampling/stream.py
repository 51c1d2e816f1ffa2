"""Deterministic seed streams for batched sampling.

A :class:`SampleStream` turns one root seed into an unbounded family of
statistically independent per-batch seeds, so that every batch of every
estimate is reproducible from ``(seed, batch_index)`` alone — regardless
of batch size scheduling or platform.  Child seeds are derived with SHA-256 rather than Python's
``hash`` so they are stable across processes and interpreter versions
(``PYTHONHASHSEED`` does not affect them).
"""

from __future__ import annotations

import hashlib
import random

from repro import obs


class SampleStream:
    """A reproducible family of per-batch RNG seeds.

    >>> stream = SampleStream(42)
    >>> stream.child_seed(0) == SampleStream(42).child_seed(0)
    True
    >>> stream.child_seed(0) != stream.child_seed(1)
    True
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def child_seed(self, batch_index: int) -> int:
        """A 64-bit seed derived from ``(seed, batch_index)``."""
        if batch_index < 0:
            raise ValueError(f"batch_index must be >= 0, got {batch_index}")
        obs.incr("stream.child_seeds")
        payload = f"{self.seed}:{batch_index}".encode("ascii")
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "big")

    def python_rng(self, batch_index: int) -> random.Random:
        """A :class:`random.Random` seeded for the given batch."""
        return random.Random(self.child_seed(batch_index))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SampleStream) and self.seed == other.seed

    def __hash__(self) -> int:
        return hash((SampleStream, self.seed))

    def __repr__(self) -> str:
        return f"SampleStream(seed={self.seed})"


def as_stream(seed) -> SampleStream:
    """Coerce an int seed (or an existing stream) to a :class:`SampleStream`."""
    if isinstance(seed, SampleStream):
        return seed
    return SampleStream(seed)
