"""Chunk scheduling for the answer fan-out.

Skewed per-answer costs — one hot answer group whose grounded lineage
dwarfs the rest — make any split fixed up front serialize the call
behind the unlucky worker while the others idle.
:class:`ChunkScheduler` cuts the answer space into many small
contiguous index ranges instead: workers pull the next range the
moment they go idle (the pull happens inside
:meth:`ShardPool.map_shards <repro.parallel.pool.ShardPool.map_shards>`,
which materializes tasks lazily), and the chunk size adapts to the
latency actually observed, so cheap regions coarsen (less dispatch
overhead) while expensive regions stay fine-grained (better balance).

Chunks are ``(start, stop)`` index ranges into the canonical answer
enumeration (the pruned support list, or the streamed
``candidates^arity`` product); contiguous ranges merged in order
reproduce the serial enumeration order exactly, which is what keeps
pooled results bit-identical to the serial path.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

#: Seconds of worker time one chunk should cost once the rate is known —
#: small enough to balance a skewed tail, large enough that dispatch
#: overhead (one pickle round-trip per chunk) stays negligible.
TARGET_CHUNK_SECONDS = 0.2

#: Before any rate is observed, the answer space is cut into this many
#: chunks per worker, so every worker gets several.
OVERSUBSCRIBE = 4

#: Exponential-moving-average weight of the newest per-chunk rate.
RATE_EMA_ALPHA = 0.4

Chunk = Tuple[int, int]


class ChunkScheduler:
    """Adaptive contiguous chunking of ``total`` answer indices.

    Until a rate is observed, chunks are ``total / (workers *
    OVERSUBSCRIBE)`` — enough pieces that every worker gets several
    even if the estimate never improves.  After each completed chunk
    :meth:`observe` updates an EMA of answers/second, and later chunks
    are sized to :data:`TARGET_CHUNK_SECONDS` of estimated work, capped
    so the tail still splits across all workers.
    """

    def __init__(self, total: int, workers: int):
        self.total = int(total)
        self.workers = max(1, int(workers))
        self.initial = max(1, self.total // (self.workers * OVERSUBSCRIBE))
        self._rate: Optional[float] = None  # answers / second (EMA)
        self.issued = 0  # chunks handed out so far (diagnostics)

    def chunks(self) -> Iterator[Chunk]:
        """Contiguous ``(start, stop)`` ranges covering ``[0, total)``
        in order.  Lazy: each ``next()`` reads the freshest rate, so a
        range requested *after* some chunks completed is sized by their
        observed latency."""
        start = 0
        while start < self.total:
            stop = min(self.total, start + self._next_size(self.total - start))
            yield (start, stop)
            self.issued += 1
            start = stop

    def observe(self, chunk: Chunk, seconds: float) -> None:
        """Feed back one completed chunk's latency."""
        start, stop = chunk
        count = max(0, stop - start)
        if count == 0 or seconds <= 0:
            return
        rate = count / seconds
        if self._rate is None:
            self._rate = rate
        else:
            self._rate += RATE_EMA_ALPHA * (rate - self._rate)

    def _next_size(self, remaining: int) -> int:
        if self._rate is None:
            size = self.initial
        else:
            size = int(self._rate * TARGET_CHUNK_SECONDS)
        # Never let one chunk swallow a tail the idle workers could
        # share: cap at an even split of what's left.
        fair_share = -(-remaining // self.workers)  # ceil
        return max(1, min(size, fair_share, remaining))

    def __repr__(self) -> str:
        return (
            f"ChunkScheduler(total={self.total}, workers={self.workers}, "
            f"rate={self._rate!r})"
        )
