"""Persistent shard pool: long-lived worker processes for answer fan-out.

The relaxed open-world semantics (paper §3.1/§6) makes per-answer
marginals embarrassingly parallel.  A :class:`ShardPool` starts no
process when it is built: each slot's worker is forked with the first
task sent to that slot, so a pool that never ships costs one small
object.  From then on the worker survives across calls, sessions, and
ε-sweep steps, and holds worker-side state (cached tables, extended
compile diagrams — see :mod:`repro.parallel.shipping`) that the parent
refreshes with O(delta)-sized messages instead of re-shipping whole
tables.

The pool is a deliberately small primitive:

* :meth:`ShardPool.map_shards` pulls tasks *lazily* from an iterator
  and hands each to the next idle worker — the dynamic chunk
  scheduling of :mod:`repro.parallel.schedule` plugs in as a generator
  whose chunk sizes adapt while the call is in flight.
* Per-shard timeout: a worker that exceeds ``timeout`` seconds on one
  task is killed, and the call raises :class:`ShardError`.
* Crashed-worker detection: a worker that dies mid-shard (segfault,
  ``SIGKILL``, OOM) is replaced, its shard is rescheduled onto the
  next idle worker, and ``fanout.worker_restarts`` is incremented —
  the call still returns bit-identical results.  A killed or crashed
  worker's slot moves to a new *epoch* and forks its successor with
  its next task.
* Worker exceptions re-raise in the parent as the *original* exception
  type with the worker's traceback attached as a :class:`ShardError`
  cause.

Failures of the pool *infrastructure* (a task that cannot be pickled,
a worker that cannot be started) raise :class:`PoolUnavailableError`;
the evaluation layer catches it and degrades to the serial path with a
``fanout.serial_fallback`` trace event.  A slot whose worker could not
start stays unstarted, so the next fan-out tries again; within a
:meth:`ShardPool.map_shards` call it sits out while the started workers
finish the call, which raises only when no slot can start.

Process-wide sharing: :func:`get_shared_pool` keeps one pool per
worker count, created on first use and reused by every later call —
``marginal_answer_probabilities(..., workers=k)``,
:meth:`RefinementSession.refine_marginals
<repro.core.refine.RefinementSession.refine_marginals>` sweeps, and
the serve layer's sessions all land on the same workers.  Reuse is
counted in ``fanout.pool_reuse``.

Workers are usually forked from a thread that is inside a traced call,
often a serve request thread while other threads run.  A worker starts
with an empty trace stack, and the pool settles the process's numpy
probe before it forks, so the probe's lock is never taken in a worker;
DESIGN.md ("Parallel execution") lists what else a worker touches.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import pickle
import threading
import time
import traceback
from collections import deque
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import obs
from repro.errors import EvaluationError
from repro.utils.probability import numpy_or_none

#: Trace counters of the shard pool (active only inside ``obs.trace()``).
WORKER_RESTARTS = "fanout.worker_restarts"
CHUNKS_COUNTER = "fanout.chunks"
POOL_REUSE_COUNTER = "fanout.pool_reuse"

#: A shard that crashes its worker this many times is abandoned with a
#: :class:`ShardError` instead of being rescheduled forever.
MAX_SHARD_CRASHES = 3


class ShardError(EvaluationError):
    """A process-pool answer shard failed; the message carries the
    worker's original traceback.  Raised as the ``__cause__`` of the
    re-raised original exception, so both the exception type and the
    remote traceback survive the process boundary.  Raised directly for
    per-shard timeouts and shards that repeatedly crash their worker."""


class PoolUnavailableError(EvaluationError):
    """The pool infrastructure itself cannot run this call — the task
    payload does not pickle, or a worker cannot be started.  Callers
    degrade to the serial path (``fanout.serial_fallback``)."""


# ---------------------------------------------------------------- worker side
def _worker_main(conn) -> None:
    """Worker-process loop: execute pickled ``("call", id, func, args)``
    frames until shutdown.  Module-level so both fork and spawn start
    methods can reach it."""
    obs.clear_trace_stack()  # a fork copies the forking thread's traces
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            return
        try:
            command = pickle.loads(data)
        except Exception as exc:  # corrupt frame: report, keep serving
            _worker_send(conn, ("error", -1, exc, traceback.format_exc()), -1)
            continue
        op = command[0]
        if op == "shutdown":
            return
        task_id, func, args = command[1:]
        try:
            frame = ("ok", task_id, func(*args))
        except KeyboardInterrupt:
            return
        except BaseException as exc:
            frame = ("error", task_id, exc, traceback.format_exc())
        _worker_send(conn, frame, task_id)


def _worker_send(conn, frame, task_id) -> None:
    """Send a result frame; unpicklable results degrade to an error
    frame instead of killing the worker."""
    try:
        data = pickle.dumps(frame)
    except Exception as exc:
        data = pickle.dumps((
            "error", task_id,
            ShardError(f"worker result could not be pickled: {exc}"),
            traceback.format_exc(),
        ))
    try:
        conn.send_bytes(data)
    except (BrokenPipeError, OSError):
        pass  # parent went away; the loop's recv will see EOF next


class _Worker:
    """Parent-side handle of one worker slot; ``process`` and ``conn``
    are None until the slot's next task starts a worker."""

    __slots__ = ("slot", "epoch", "process", "conn", "task")

    def __init__(self, slot: int):
        self.slot = slot
        #: Bumped whenever the slot's worker is killed or dies — shipped
        #: worker-side state keyed by ``(slot, epoch)`` goes stale
        #: exactly when the epoch moves.
        self.epoch = 0
        self.process = None
        self.conn = None
        #: ``(task_id, shard_index, deadline)`` while busy, else None.
        self.task: Optional[Tuple[int, int, Optional[float]]] = None


class ShardPool:
    """A pool of worker processes for answer-shard evaluation.

    No process starts at construction: a slot forks its worker when the
    first task is sent to it, and that worker stays alive until
    :meth:`close` — repeated fan-outs (ε-sweep steps, serve requests)
    reuse it, which is what makes worker-side caching
    (:mod:`repro.parallel.shipping`) possible at all.  A worker that is
    killed (timeout) or dies leaves its slot unstarted, one epoch on,
    until the slot's next task.

    ``mp_context`` selects the multiprocessing start method (default:
    the platform default — fork on Linux); ``timeout`` is the default
    per-shard timeout in seconds (None = unbounded).

    Calls serialize on an internal lock: one fan-out runs at a time,
    concurrent callers (the serve layer multiplexes sessions onto one
    pool) take turns — same discipline as the session locks above it.
    """

    def __init__(
        self,
        workers: int,
        mp_context: Optional[str] = None,
        timeout: Optional[float] = None,
    ):
        workers = int(workers)
        if workers < 1:
            raise EvaluationError(f"pool needs >= 1 worker, got {workers}")
        self.timeout = timeout
        self._ctx = multiprocessing.get_context(mp_context)
        self._lock = threading.RLock()
        self._task_ids = itertools.count(1)
        self._closed = False
        self._workers = [_Worker(slot) for slot in range(workers)]

    # ------------------------------------------------------------- lifecycle
    @property
    def workers(self) -> int:
        """The configured number of slots, started or not."""
        return len(self._workers)

    @property
    def closed(self) -> bool:
        return self._closed

    def worker_epoch(self, slot: int) -> int:
        """The epoch of ``slot`` (0 until its first worker dies) —
        shipped state recorded under an older epoch lives in a dead
        process."""
        return self._workers[slot].epoch

    def worker_pids(self) -> List[int]:
        """Pids of the started workers, in slot order.  Reads each slot
        once, so a serve ``stats`` request may call it while a fan-out
        starts or retires workers."""
        processes = [w.process for w in self._workers]
        return [p.pid for p in processes if p is not None]

    def _start(self, worker: _Worker) -> None:
        """Fork the worker of an unstarted slot (a no-op once started).
        A failure raises :class:`PoolUnavailableError` and leaves the
        slot unstarted, so a later task tries again."""
        if worker.process is not None:
            return
        # Settle the process's one-time numpy probe first: a fork taken
        # while another thread holds the probe's lock would leave that
        # lock held, and the probe undone, in the worker.
        numpy_or_none()
        try:
            parent_conn, child_conn = self._ctx.Pipe()
            try:
                process = self._ctx.Process(
                    target=_worker_main, args=(child_conn,),
                    name=f"repro-shard-{worker.slot}", daemon=True,
                )
                process.start()
            except BaseException:
                parent_conn.close()
                raise
            finally:
                child_conn.close()
        except OSError as exc:
            raise PoolUnavailableError(
                f"could not start shard worker {worker.slot}: {exc}"
            ) from exc
        worker.process, worker.conn = process, parent_conn

    def _retire(self, worker: _Worker, counted: bool = True) -> None:
        """Kill a dead or stuck worker; its slot moves to a new epoch
        and starts a successor with its next task."""
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process = worker.conn = worker.task = None
        worker.epoch += 1
        if counted:
            obs.incr(WORKER_RESTARTS)
            obs.event("fanout.worker_restart", slot=worker.slot,
                      epoch=worker.epoch)

    def close(self) -> None:
        """Shut the started workers down; idempotent."""
        self._closed = True
        started = [w for w in self._workers if w.process is not None]
        for worker in started:
            try:
                worker.conn.send_bytes(pickle.dumps(("shutdown",)))
            except (BrokenPipeError, OSError):
                pass
        for worker in started:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------ execution
    def run_on(
        self,
        slot: int,
        func: Callable,
        *args,
        timeout: Optional[float] = None,
    ):
        """Run ``func(*args)`` on one specific idle worker and wait.

        The targeted primitive the shipping layer uses to refresh one
        worker's cached state; also handy in tests.  Starts that slot's
        worker if it has none.  Worker exceptions re-raise with the
        remote traceback attached; a crash or timeout kills the worker
        and raises.
        """
        with self._lock:
            self._check_open()
            worker = self._workers[slot]
            if worker.task is not None:
                raise EvaluationError(f"worker {slot} is busy")
            task_id = next(self._task_ids)
            data = self._encode_task(task_id, func, args)
            self._start(worker)
            self._send_task(worker, data)
            deadline = timeout if timeout is not None else self.timeout
            if not worker.conn.poll(deadline):
                self._retire(worker)
                raise ShardError(
                    f"targeted call on worker {slot} timed out "
                    f"after {deadline}s")
            try:
                frame = pickle.loads(worker.conn.recv_bytes())
            except (EOFError, OSError):
                self._retire(worker)
                raise PoolUnavailableError(
                    f"worker {slot} died during a targeted call") from None
            status, _, *rest = frame
            if status == "ok":
                return rest[0]
            exc, remote_tb = rest
            raise exc from ShardError(
                "targeted worker call failed; original traceback:\n"
                + remote_tb)

    def map_shards(
        self,
        tasks: Iterable[Tuple[Callable, tuple]],
        prepare: Optional[Callable[["ShardPool", int], None]] = None,
        observe: Optional[Callable[[tuple, object, float], None]] = None,
        timeout: Optional[float] = None,
    ) -> List[object]:
        """Run ``(func, args)`` tasks on the pool, dynamically.

        ``tasks`` is pulled *lazily*: the next task is materialized only
        when a worker is free to take it, so a generator backed by an
        adaptive :class:`~repro.parallel.schedule.ChunkScheduler` sizes
        later chunks from the latency of earlier ones.  Results come
        back in task order (the order the iterator produced them).

        A slot's worker is started when the slot has a task to take, so
        a call with fewer tasks than slots starts only as many workers.
        ``prepare(pool, slot)`` runs before the first task is dispatched
        to each worker within this call — and again after a crash —
        which is where the shipping layer refreshes that worker's cached
        table and query state.  ``observe(args, result, seconds)`` fires
        on each completed task (the scheduler's feedback hook).

        Fault handling: a worker exception re-raises here (original
        type, remote traceback as the :class:`ShardError` cause); a
        crashed worker is replaced and its shard rescheduled (counted
        in ``fanout.worker_restarts``; :data:`MAX_SHARD_CRASHES` caps a
        shard that kills every worker it touches); a shard exceeding the
        timeout kills its worker and raises :class:`ShardError`.  A slot
        whose worker cannot start sits out the rest of the call, which
        finishes on the started workers, their shipped state intact;
        only when no slot can start does the call raise
        :class:`PoolUnavailableError`.  On any raise, still-busy
        workers are killed (uncounted) so the pool is clean for the
        next call.
        """
        with self._lock:
            self._check_open()
            timeout = timeout if timeout is not None else self.timeout
            source: Iterator = iter(tasks)
            stash: List[Tuple[Callable, tuple]] = []  # all pulled tasks
            pending: deque = deque()  # indices awaiting dispatch
            crashes: Dict[int, int] = {}
            started: Dict[int, float] = {}
            results: List[object] = []
            done = 0
            prepared: set = set()
            benched: set = set()  # slots whose worker could not start
            exhausted = False
            try:
                while True:
                    # Dispatch to every idle worker while work remains.
                    for worker in self._workers:
                        if worker.task is not None:
                            continue
                        if not pending and not exhausted:
                            nxt = next(source, None)
                            if nxt is None:
                                exhausted = True
                            else:
                                stash.append(nxt)
                                results.append(_UNSET)
                                pending.append(len(stash) - 1)
                        if not pending or worker.slot in benched:
                            continue
                        try:
                            self._start(worker)
                        except PoolUnavailableError:
                            # The slot sits out the rest of the call; the
                            # started workers finish it.
                            benched.add(worker.slot)
                            if len(benched) == len(self._workers):
                                raise
                            continue
                        if prepare is not None and worker.slot not in prepared:
                            prepare(self, worker.slot)
                            prepared.add(worker.slot)
                        index = pending.popleft()
                        func, args = stash[index]
                        task_id = next(self._task_ids)
                        data = self._encode_task(task_id, func, args)
                        try:
                            self._send_task(worker, data)
                        except PoolUnavailableError:
                            # Worker died before/while receiving: put
                            # the shard back; the slot starts a fresh
                            # worker on the next loop iteration.
                            prepared.discard(worker.slot)
                            pending.appendleft(index)
                            continue
                        deadline = (
                            time.monotonic() + timeout
                            if timeout is not None else None
                        )
                        worker.task = (task_id, index, deadline)
                        started[index] = time.monotonic()
                        obs.incr(CHUNKS_COUNTER)
                    if exhausted and done == len(stash):
                        break
                    self._pump_one(
                        stash, pending, crashes, started, results,
                        prepared, observe, timeout,
                    )
                    done = sum(
                        1 for r in results if r is not _UNSET)
            except BaseException:
                self._abandon()
                raise
            return results

    # ------------------------------------------------------------- internals
    def _pump_one(
        self, stash, pending, crashes, started, results,
        prepared, observe, timeout,
    ) -> None:
        """Wait for (at least) one in-flight shard to resolve."""
        busy = [w for w in self._workers if w.task is not None]
        if not busy:
            return
        now = time.monotonic()
        deadlines = [w.task[2] for w in busy if w.task[2] is not None]
        wait_s = None
        if deadlines:
            wait_s = max(0.0, min(deadlines) - now)
        ready = multiprocessing.connection.wait(
            [w.conn for w in busy], wait_s)
        if not ready:
            # Timed out: kill every expired worker, then fail the call —
            # a per-shard timeout is a hard error.
            now = time.monotonic()
            expired = [
                w for w in busy
                if w.task[2] is not None and now >= w.task[2]
            ]
            for worker in expired:
                self._retire(worker)
            slots = [w.slot for w in expired]
            raise ShardError(
                f"shard timed out after {timeout}s on worker(s) "
                f"{slots}; workers killed")
        by_conn = {w.conn: w for w in busy}
        for conn in ready:
            worker = by_conn[conn]
            task_id, index, _ = worker.task
            try:
                frame = pickle.loads(conn.recv_bytes())
            except (EOFError, OSError):
                # Crashed mid-shard: retire it, reschedule the shard.
                self._retire(worker)
                prepared.discard(worker.slot)
                crashes[index] = crashes.get(index, 0) + 1
                if crashes[index] >= MAX_SHARD_CRASHES:
                    raise ShardError(
                        f"shard {index} crashed its worker "
                        f"{crashes[index]} times; giving up") from None
                pending.appendleft(index)
                continue
            status, frame_id, *rest = frame
            if frame_id != task_id:
                continue  # stale frame; the worker is still busy
            worker.task = None
            elapsed = time.monotonic() - started.pop(index)
            if status == "ok":
                results[index] = rest[0]
                if observe is not None:
                    observe(stash[index][1], rest[0], elapsed)
            else:
                exc, remote_tb = rest
                raise exc from ShardError(
                    "answer-marginal shard failed in worker process; "
                    f"original traceback:\n{remote_tb}")

    def _send_task(self, worker: _Worker, data: bytes) -> None:
        try:
            worker.conn.send_bytes(data)
        except (BrokenPipeError, OSError):
            self._retire(worker)
            raise PoolUnavailableError(
                f"worker {worker.slot} was dead at dispatch") from None

    def _encode_task(self, task_id: int, func, args) -> bytes:
        try:
            return pickle.dumps(("call", task_id, func, args))
        except Exception as exc:
            raise PoolUnavailableError(
                f"task payload cannot be pickled: "
                f"{type(exc).__name__}: {exc}") from exc

    def _abandon(self) -> None:
        """Error-path cleanup: kill (uncounted) every busy worker so no
        stale in-flight shard can pollute the next call."""
        for worker in self._workers:
            if worker.task is not None:
                self._retire(worker, counted=False)

    def _check_open(self) -> None:
        if self._closed:
            raise PoolUnavailableError("shard pool is closed")

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{len(self.worker_pids())} live"
        return f"ShardPool(workers={self.workers}, {state})"


class _Unset:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unset shard result>"


_UNSET = _Unset()


# -------------------------------------------------------- process-wide pools
_SHARED_POOLS: Dict[int, ShardPool] = {}
_SHARED_LOCK = threading.Lock()


def get_shared_pool(workers: int, timeout: Optional[float] = None) -> ShardPool:
    """The process-wide shard pool for ``workers`` — created once (its
    workers start with the first fan-out that ships to them), shared by
    every later caller asking for the same size (counted in
    ``fanout.pool_reuse``), shut down at interpreter exit."""
    workers = int(workers)
    with _SHARED_LOCK:
        pool = _SHARED_POOLS.get(workers)
        if pool is not None and not pool.closed:
            obs.incr(POOL_REUSE_COUNTER)
            return pool
        pool = ShardPool(workers, timeout=timeout)
        _SHARED_POOLS[workers] = pool
        return pool


def shutdown_shared_pools() -> None:
    """Close every process-wide pool (atexit hook; also used by tests)."""
    with _SHARED_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.close()


atexit.register(shutdown_shared_pools)
