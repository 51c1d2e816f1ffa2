"""The chunk scheduler: adaptive contiguous chunks tile the answer
space exactly once, in order, and their sizes track observed latency
while the tail still splits across the workers."""

from repro.parallel.schedule import TARGET_CHUNK_SECONDS, ChunkScheduler


def _materialize(scheduler):
    return list(scheduler.chunks())


def test_chunks_tile_the_range_exactly_once():
    scheduler = ChunkScheduler(total=101, workers=4)
    chunks = _materialize(scheduler)
    covered = []
    for start, stop in chunks:
        assert stop > start
        covered.extend(range(start, stop))
    assert covered == list(range(101))
    assert scheduler.issued == len(chunks)


def test_initial_chunks_oversubscribe_the_workers():
    scheduler = ChunkScheduler(total=160, workers=4)
    assert scheduler.initial == 10  # total / (workers * OVERSUBSCRIBE)
    first = next(scheduler.chunks())
    assert first == (0, 10)


def test_tiny_totals_still_yield_whole_chunks():
    assert _materialize(ChunkScheduler(total=3, workers=4)) == [
        (0, 1), (1, 2), (2, 3)]
    assert _materialize(ChunkScheduler(total=0, workers=4)) == []


def test_observed_rate_scales_chunk_size():
    fast = ChunkScheduler(total=10_000, workers=2)
    gen = iter(fast.chunks())
    chunk = next(gen)
    # 1000 answers/second observed -> next chunk targets rate * target
    fast.observe(chunk, (chunk[1] - chunk[0]) / 1000.0)
    start, stop = next(gen)
    assert stop - start == int(1000 * TARGET_CHUNK_SECONDS)

    slow = ChunkScheduler(total=10_000, workers=2)
    gen = iter(slow.chunks())
    chunk = next(gen)
    slow.observe(chunk, (chunk[1] - chunk[0]) / 10.0)  # 10 answers/second
    start, stop = next(gen)
    assert stop - start == max(1, int(10 * TARGET_CHUNK_SECONDS))


def test_tail_is_split_across_workers():
    # A very fast observed rate must not let one chunk swallow the tail:
    # the cap is ceil(remaining / workers).
    scheduler = ChunkScheduler(total=100, workers=4)
    gen = iter(scheduler.chunks())
    chunk = next(gen)
    scheduler.observe(chunk, 1e-9)  # absurdly fast -> huge target size
    start, stop = next(gen)
    remaining = 100 - start
    assert stop - start == -(-remaining // 4)
