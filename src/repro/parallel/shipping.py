"""Content-keyed PDB shipping and the pooled fan-out orchestrator.

For the anytime workloads this module exists for (ε-sweeps over growing
truncations), consecutive fan-outs ship tables that differ only by an
append-only suffix: TI tables grow by
:meth:`~repro.finite.tuple_independent.TupleIndependentTable.extend`
(dict insertion order *is* append order, and changing an existing
marginal is rejected) and BID tables by appending blocks.  So a warm
worker only ever needs the delta.

Parent side, :class:`TableShipper` keeps, per worker slot, what that
worker currently holds: ``(epoch, table key, item count)``.  Keys are
assigned per table *identity* (weakref-guarded, so a recycled ``id``
can never alias a dead table) — the same grown-in-place session table
keeps its key across sweep steps.  On the next fan-out each worker gets
either nothing (same count), the pickled suffix ``items[count:]``
(``fanout.ship_delta_bytes``), or — a freshly started worker, whatever
its epoch, or an unknown or shrunk table — one full pickle
(``fanout.ship_full_bytes``).  Serialization happens exactly once per
distinct payload per call and *is* the picklability probe: a pickle
failure raises :class:`ShipError` (verdict cached per table identity +
count, so repeated calls don't re-pickle a known-bad table) and the
evaluation layer degrades to the serial path with the usual
``fanout.serial_fallback`` event.

Worker side, each process keeps the received tables plus one query
runtime per ``(table key, query)``: the parsed query, its candidate
values, the pruned answer support, and — when the fan-out shares one
grounding — a :class:`~repro.finite.compile_cache.SharedGrounding` that
*extends* across sweep steps (same hash-consed node store, same scoring
memo, and a variable order that appends the shipped delta in the
table's order, so workers compile the diagrams the parent's serial path
compiles), plus a worker-local
:class:`~repro.finite.compile_cache.CompileCache` for per-answer
evaluations.  A delta ship extends the worker's table in place, which
grows the table's own fact index, so a refresh reads the active domain
and the new facts off that index without rescanning the table.
Compiled diagrams therefore survive worker-side exactly as they do in
the parent's serial sessions.

The evaluation layer answers safe queries on TI tables in-process with
one grouped lifted pass, so only compiled fan-outs reach the pool
through it.  Workers route a family and score its chunks with the
serial path's helpers, :func:`~repro.finite.evaluation._shares_grounding`
and :func:`~repro.finite.evaluation._score_answers`.

Bit-identity: workers evaluate contiguous index ranges of the *same*
canonical answer enumeration the serial path uses (the deterministic
support list, or the ``candidates^arity`` product), with the same
per-answer evaluation; merging the ranges in order reproduces the
serial result dict exactly, entry order included.
"""

from __future__ import annotations

import itertools
import pickle
import threading
import weakref
from typing import Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.errors import EvaluationError
from repro.finite.bid import BlockIndependentTable
from repro.finite.tuple_independent import TupleIndependentTable
from repro.parallel.pool import PoolUnavailableError, ShardPool
from repro.parallel.schedule import ChunkScheduler

SHIP_FULL_BYTES = "fanout.ship_full_bytes"
SHIP_DELTA_BYTES = "fanout.ship_delta_bytes"


class ShipError(EvaluationError):
    """The payload cannot be shipped to the pool (most often: the table
    does not pickle).  The fan-out degrades to the serial path."""


def _table_count(table) -> int:
    """The append-only progress counter of a table: facts for TI tables,
    blocks for BID tables."""
    if isinstance(table, TupleIndependentTable):
        return len(table.marginals)
    if isinstance(table, BlockIndependentTable):
        return len(table.blocks)
    raise ShipError(
        f"shard shipping needs a TI or BID table, got {type(table).__name__}")


# =============================================================== worker side
#
# Everything below the fold runs inside pool worker processes.  Module
# globals are per-process, i.e. per-worker — that is the whole point.

#: key -> [table, version]; a delta ship bumps the version.
_TABLES: Dict[str, list] = {}
_RUNTIMES: Dict[Tuple[str, str], "_QueryRuntime"] = {}
_COMPILE_CACHE = None  # worker-local CompileCache, built lazily


def _worker_compile_cache():
    global _COMPILE_CACHE
    if _COMPILE_CACHE is None:
        from repro.finite.compile_cache import CompileCache

        _COMPILE_CACHE = CompileCache()
    return _COMPILE_CACHE


class _QueryRuntime:
    """One query family's warm state inside a worker: candidates,
    answer support, and the shared grounding, all refreshed lazily when
    the underlying table's version moves.  Routing and scoring are the
    serial path's own helpers."""

    __slots__ = (
        "key", "query", "strategy", "domain", "version",
        "candidates", "answers", "grounding", "share",
    )

    def __init__(self, key: str, query, strategy: str, domain):
        self.key = key
        self.query = query
        self.strategy = strategy
        self.domain = domain  # explicit candidate values, or None
        self.version = -1
        self.candidates: Optional[List] = None
        self.answers: Optional[List] = None  # pruned support, or None
        self.grounding = None
        self.share: Optional[bool] = None

    def refresh(self, entry: list) -> None:
        from repro.finite.evaluation import _candidate_values, _shares_grounding
        from repro.logic.analysis import constants_of

        table, version = entry
        if version == self.version:
            return
        query = self.query
        candidates = _candidate_values(query, table, self.domain)
        if self.share is None:
            # Stable across truncation growth: decide once per family.
            self.share = _shares_grounding(
                query, table, candidates, self.strategy)
        if self.share:
            # The grounding's base domain: query constants plus every
            # fact argument, read off the table's index.
            base = table.index.values | constants_of(query.formula)
            if self.grounding is None:
                from repro.finite.compile_cache import SharedGrounding

                self.grounding = SharedGrounding(query.formula, table, base)
            else:
                self.grounding = self.grounding.extended(table, base)
            self.answers = self.grounding.answer_support(
                query.variables, candidates)
        else:
            self.answers = None
        self.candidates = candidates
        self.version = version

    def total(self) -> int:
        if self.answers is not None:
            return len(self.answers)
        return len(self.candidates) ** self.query.arity

    def eval_range(self, start: int, stop: int) -> Dict:
        from repro.finite.evaluation import _score_answers

        if self.answers is not None:
            answers: Iterable = self.answers[start:stop]
        else:
            answers = itertools.islice(
                itertools.product(self.candidates, repeat=self.query.arity),
                start, stop,
            )
        return _score_answers(
            self.query, _TABLES[self.key][0], answers, self.strategy,
            self.grounding, _worker_compile_cache())


def _worker_store_table(key: str, blob: bytes) -> int:
    """Full ship: (re)place the table under ``key``; any runtime built
    on a previous incarnation of the key is dropped."""
    table = pickle.loads(blob)
    _TABLES[key] = [table, 0]
    for stale in [k for k in _RUNTIMES if k[0] == key]:
        del _RUNTIMES[stale]
    return _table_count(table)


def _worker_extend_table(key: str, kind: str, blob: bytes) -> int:
    """Delta ship: append the pickled suffix to the cached table and
    bump its version (runtimes refresh lazily on next use)."""
    entry = _TABLES.get(key)
    if entry is None:
        raise ShipError(f"delta for unknown table key {key!r}")
    delta = pickle.loads(blob)
    table = entry[0]
    table.extend(dict(delta) if kind == "ti" else delta)
    entry[1] += 1
    return _table_count(table)


def _worker_store_query(key: str, qid: str, blob: bytes) -> bool:
    from repro.logic.queries import Query

    formula, schema, variables, name, strategy, domain = pickle.loads(blob)
    query = Query(formula, schema, variables=variables, name=name)
    _RUNTIMES[(key, qid)] = _QueryRuntime(key, query, strategy, domain)
    return True


def _worker_prepare(key: str, qid: str) -> Tuple[int, str]:
    """Bring one query runtime up to the current table version and
    report the answer-space size — the parent's chunking input.  The
    support/grounding computed here is reused by every later chunk."""
    runtime = _RUNTIMES[(key, qid)]
    runtime.refresh(_TABLES[key])
    mode = "support" if runtime.answers is not None else "product"
    return runtime.total(), mode


def _worker_eval_chunk(key: str, qid: str, start: int, stop: int) -> Dict:
    runtime = _RUNTIMES[(key, qid)]
    runtime.refresh(_TABLES[key])
    return runtime.eval_range(start, stop)


# =============================================================== parent side
class TableShipper:
    """Parent-side bookkeeping of what each pool worker holds."""

    def __init__(self) -> None:
        #: id(table) -> (weakref, key): identity-stable keys.
        self._keys: Dict[int, Tuple[weakref.ref, str]] = {}
        self._next_key = itertools.count(1)
        #: slot -> (epoch, key, shipped item count).
        self._slots: Dict[int, Tuple[int, str, int]] = {}
        #: (slot, key, qid) -> epoch the query context was shipped at.
        self._queries: Dict[Tuple[int, str, str], int] = {}
        #: query fingerprint -> (qid, context blob).
        self._qids: Dict[tuple, Tuple[str, bytes]] = {}
        self._next_qid = itertools.count(1)
        #: key -> (count, reason): cached pickle-failure verdicts, so a
        #: known-bad table is probed once, not once per call.
        self._pickle_fail: Dict[str, Tuple[int, str]] = {}
        #: (key, from_count, count) -> blob: per-call serialization memo
        #: — one pickle per distinct payload no matter how many workers.
        self._blobs: Dict[Tuple[str, int, int], bytes] = {}
        #: Serializes whole fan-outs: slot bookkeeping must match what
        #: the (itself serialized) pool actually ran.
        self.lock = threading.RLock()

    # -------------------------------------------------------------- identity
    def table_key(self, table) -> Tuple[str, str, int]:
        """``(key, kind, count)`` for a table, keyed by live identity."""
        kind = "ti" if isinstance(table, TupleIndependentTable) else "bid"
        count = _table_count(table)  # validates the type, too
        record = self._keys.get(id(table))
        if record is not None and record[0]() is table:
            return record[1], kind, count
        key = f"t{next(self._next_key)}"
        self._keys[id(table)] = (weakref.ref(table), key)
        return key, kind, count

    def query_id(self, query, strategy: str, domain) -> Tuple[str, bytes]:
        """``(qid, context blob)`` for a query family; the blob is built
        (and probed) once per family."""
        fingerprint = (
            query.formula, query.variables, query.name, strategy,
            None if domain is None else tuple(domain),
        )
        cached = self._qids.get(fingerprint)
        if cached is not None:
            return cached
        context = (
            query.formula, query.schema, query.variables, query.name,
            strategy, None if domain is None else list(domain),
        )
        try:
            blob = pickle.dumps(context)
        except Exception as exc:
            raise ShipError(
                f"query context cannot be pickled: "
                f"{type(exc).__name__}: {exc}") from exc
        qid = f"q{next(self._next_qid)}"
        self._qids[fingerprint] = (qid, blob)
        return qid, blob

    def begin_call(self) -> None:
        """Reset the per-call serialization memo (blobs are only
        guaranteed coherent within one fan-out)."""
        self._blobs.clear()

    # -------------------------------------------------------------- shipping
    def ensure_worker(
        self, pool: ShardPool, slot: int, table,
        key: str, kind: str, count: int,
        qid: str, query_blob: bytes,
    ) -> None:
        """Bring one worker's cached state up to date: nothing, a delta,
        or a full table — plus the query context if this worker (epoch)
        hasn't seen this family yet."""
        epoch = pool.worker_epoch(slot)
        held = self._slots.get(slot)
        if (
            held is not None
            and held[0] == epoch and held[1] == key and held[2] <= count
        ):
            if held[2] < count:
                blob = self._serialize(table, key, kind, held[2], count)
                shipped = pool.run_on(
                    slot, _worker_extend_table, key, kind, blob)
                obs.incr(SHIP_DELTA_BYTES, len(blob))
                self._check_count(shipped, count, key, slot)
                self._slots[slot] = (epoch, key, count)
        else:
            blob = self._serialize(table, key, kind, 0, count)
            shipped = pool.run_on(slot, _worker_store_table, key, blob)
            obs.incr(SHIP_FULL_BYTES, len(blob))
            self._check_count(shipped, count, key, slot)
            self._slots[slot] = (epoch, key, count)
            # A full (re)ship dropped the worker's runtimes for the key.
            for stale in [
                q for q in self._queries if q[0] == slot and q[1] == key
            ]:
                del self._queries[stale]
        if self._queries.get((slot, key, qid)) != epoch:
            pool.run_on(slot, _worker_store_query, key, qid, query_blob)
            self._queries[(slot, key, qid)] = epoch

    def _check_count(self, shipped: int, count: int, key: str, slot: int):
        if shipped != count:
            # The worker's table disagrees with ours — drop the slot
            # record so the next attempt re-ships from scratch.
            self._slots.pop(slot, None)
            raise ShipError(
                f"worker {slot} holds {shipped} items of table {key!r}, "
                f"expected {count}")

    def _serialize(
        self, table, key: str, kind: str, from_count: int, count: int
    ) -> bytes:
        memo_key = (key, from_count, count)
        blob = self._blobs.get(memo_key)
        if blob is not None:
            return blob
        failed = self._pickle_fail.get(key)
        if failed is not None and failed[0] == count:
            raise ShipError(failed[1])
        try:
            if from_count == 0:
                blob = pickle.dumps(table)
            elif kind == "ti":
                delta = list(itertools.islice(
                    table.marginals.items(), from_count, None))
                blob = pickle.dumps(delta)
            else:
                blob = pickle.dumps(table.blocks[from_count:])
        except Exception as exc:
            reason = (
                f"table cannot be pickled for the shard pool: "
                f"{type(exc).__name__}: {exc}")
            self._pickle_fail[key] = (count, reason)
            raise ShipError(reason) from exc
        self._blobs[memo_key] = blob
        return blob


#: One shipper per pool, tied to the pool's lifetime.
_SHIPPERS: "weakref.WeakKeyDictionary[ShardPool, TableShipper]" = (
    weakref.WeakKeyDictionary())
_SHIPPERS_LOCK = threading.Lock()


def shipper_for(pool: ShardPool) -> TableShipper:
    with _SHIPPERS_LOCK:
        shipper = _SHIPPERS.get(pool)
        if shipper is None:
            shipper = TableShipper()
            _SHIPPERS[pool] = shipper
        return shipper


def pooled_answer_marginals(
    pool: ShardPool,
    query,
    pdb,
    candidates: List,
    strategy: str,
    domain=None,
) -> Dict:
    """Run one answer-marginal fan-out on a shard pool.

    The parent ships state (tables by delta, query contexts once per
    family), asks one worker for the answer-space size, then streams
    adaptively sized chunks through
    :meth:`~repro.parallel.pool.ShardPool.map_shards`; every worker
    evaluates ranges of the same canonical enumeration, and merging the
    contiguous ranges in order reproduces the serial
    :func:`~repro.finite.evaluation._evaluate_answers` result exactly.
    So a safe query passed here directly is scored one answer at a
    time, not by the grouped lifted pass.

    Raises :class:`ShipError` /
    :class:`~repro.parallel.pool.PoolUnavailableError` when the pool
    cannot run this payload (callers fall back serially); genuine
    evaluation errors re-raise with the worker traceback attached, and
    are *not* turned into fallbacks.
    """
    shipper = shipper_for(pool)
    with shipper.lock:
        key, kind, count = shipper.table_key(pdb)
        explicit = None if domain is None else list(candidates)
        qid, query_blob = shipper.query_id(query, strategy, explicit)
        shipper.begin_call()

        def prepare(pool_: ShardPool, slot: int) -> None:
            shipper.ensure_worker(
                pool_, slot, pdb, key, kind, count, qid, query_blob)

        # Size the answer space on worker 0 (starting only that slot);
        # this is also the pre-flight picklability probe (the full
        # pickle happens here on cold pools) and warms worker 0's
        # support and grounding.  A worker that died since the last call
        # raises PoolUnavailableError after moving its slot to a fresh
        # epoch, so one retry against that epoch keeps the call pooled;
        # a worker that could not start leaves the epoch alone, and the
        # caller runs serially.
        epoch = pool.worker_epoch(0)
        try:
            prepare(pool, 0)
            total, mode = pool.run_on(0, _worker_prepare, key, qid)
        except PoolUnavailableError:
            if pool.worker_epoch(0) == epoch:
                raise
            prepare(pool, 0)
            total, mode = pool.run_on(0, _worker_prepare, key, qid)
        if total == 0:
            obs.event(
                "fanout.pool", workers=pool.workers, shards=0, mode=mode)
            return {}
        scheduler = ChunkScheduler(total, pool.workers)
        tasks = (
            (_worker_eval_chunk, (key, qid, start, stop))
            for (start, stop) in scheduler.chunks()
        )

        def observe(args: tuple, result, seconds: float) -> None:
            scheduler.observe(args[2:], seconds)

        chunks = pool.map_shards(tasks, prepare=prepare, observe=observe)
        obs.event(
            "fanout.pool", workers=pool.workers, shards=len(chunks),
            mode=mode)
        results: Dict = {}
        for chunk in chunks:
            results.update(chunk)
        return results
