"""Fault injection for the persistent shard pool: crashed workers are
replaced and their shards rescheduled (bit-identical results), per-shard
timeouts raise :class:`ShardError`, unpicklable payloads and workers
that cannot start raise :class:`PoolUnavailableError`, each slot starts
its worker with its first task, and the process-wide registry reuses
pools."""

import multiprocessing
import os
import signal
import time

import pytest

from repro import obs
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic.parser import parse_formula
from repro.logic.queries import Query
from repro.parallel.pool import (
    MAX_SHARD_CRASHES,
    POOL_REUSE_COUNTER,
    WORKER_RESTARTS,
    PoolUnavailableError,
    ShardError,
    ShardPool,
    get_shared_pool,
    shutdown_shared_pools,
)
from repro.parallel.shipping import SHIP_FULL_BYTES, shipper_for
from repro.relational import Schema


@pytest.fixture
def pool():
    p = ShardPool(2)
    yield p
    p.close()


# Task functions must be module-level (they cross the process boundary).
def _double(x):
    return 2 * x


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def _boom():
    raise ValueError("boom in worker")


def _crash_once(marker, x):
    """Kill the worker outright on the first attempt; succeed on retry."""
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(1)
    return 2 * x


def _crash_always():
    os._exit(1)


def _pid():
    return os.getpid()


def _fail_first_start(monkeypatch, pool):
    """Make the first worker start of ``pool``'s context raise."""
    process_class = pool._ctx.Process
    start = process_class.start
    calls = []

    def failing_start(self):
        calls.append(self)
        if len(calls) == 1:
            raise OSError("fork refused")
        return start(self)

    monkeypatch.setattr(process_class, "start", failing_start)


# -------------------------------------------------------------- lazy start
def test_new_pool_starts_no_process():
    before = set(multiprocessing.active_children())
    pool = ShardPool(2)
    try:
        assert pool.worker_pids() == []
        assert set(multiprocessing.active_children()) == before
        assert pool.workers == 2
    finally:
        pool.close()


def test_map_shards_with_one_task_starts_one_worker(pool):
    assert pool.map_shards([(_double, (4,))]) == [8]
    assert len(pool.worker_pids()) == 1


def test_unstarted_slot_is_epoch_zero_and_gets_a_full_ship(pool):
    schema = Schema.of(R=1)
    R = schema["R"]
    table = TupleIndependentTable(schema, {R(1): 0.5, R(2): 0.25})
    query = Query(parse_formula("R(x)", schema), schema)
    assert [pool.worker_epoch(slot) for slot in range(2)] == [0, 0]
    shipper = shipper_for(pool)
    key, kind, count = shipper.table_key(table)
    qid, blob = shipper.query_id(query, "bdd", None)
    shipper.begin_call()
    with obs.trace() as t:
        shipper.ensure_worker(pool, 1, table, key, kind, count, qid, blob)
    assert t.counters.get(SHIP_FULL_BYTES, 0) > 0
    assert pool.worker_epoch(1) == 0
    assert len(pool.worker_pids()) == 1


def test_start_failure_leaves_the_slot_unstarted(pool, monkeypatch):
    _fail_first_start(monkeypatch, pool)
    with pytest.raises(PoolUnavailableError, match="could not start"):
        pool.run_on(0, _double, 1)
    assert pool.worker_pids() == []
    assert not pool.closed
    assert pool.worker_epoch(0) == 0
    assert pool.run_on(0, _double, 2) == 4  # the next task tries again


def test_start_failure_in_map_shards_finishes_on_started_slots(
        pool, monkeypatch):
    assert pool.run_on(0, _double, 1) == 2  # slot 0 is up
    (pid,) = pool.worker_pids()
    _fail_first_start(monkeypatch, pool)
    with obs.trace() as t:
        results = pool.map_shards([(_double, (i,)) for i in range(4)])
    # Slot 1 could not start and sat the call out; slot 0 ran every
    # task and keeps its worker, its epoch and the state shipped to it.
    assert results == [0, 2, 4, 6]
    assert pool.worker_pids() == [pid]
    assert [pool.worker_epoch(slot) for slot in range(2)] == [0, 0]
    assert t.counters.get(WORKER_RESTARTS, 0) == 0
    # The next call starts slot 1.
    assert pool.map_shards([(_double, (i,)) for i in range(4)]) == [0, 2, 4, 6]
    assert len(pool.worker_pids()) == 2
    assert pool.worker_pids()[0] == pid


def test_map_shards_raises_pool_unavailable_when_no_slot_starts(
        pool, monkeypatch):
    process_class = pool._ctx.Process

    def refused(self):
        raise OSError("fork refused")

    monkeypatch.setattr(process_class, "start", refused)
    with pytest.raises(PoolUnavailableError, match="could not start"):
        pool.map_shards([(_double, (i,)) for i in range(4)])
    assert pool.worker_pids() == []
    assert [pool.worker_epoch(slot) for slot in range(2)] == [0, 0]
    assert not pool.closed
    monkeypatch.undo()
    assert pool.map_shards([(_double, (i,)) for i in range(4)]) == [0, 2, 4, 6]


# ------------------------------------------------------------------ basics
def test_map_shards_preserves_task_order(pool):
    tasks = ((_double, (i,)) for i in range(7))  # a lazy generator
    assert pool.map_shards(tasks) == [0, 2, 4, 6, 8, 10, 12]


def test_tasks_actually_run_out_of_process(pool):
    pids = set(pool.map_shards([(_pid, ())] * 4))
    assert pids  # at least one worker ran something
    assert os.getpid() not in pids
    assert pids <= set(pool.worker_pids())


def test_run_on_targets_one_worker(pool):
    assert pool.run_on(1, _double, 21) == 42
    # Only slot 1 started, and its worker serves the next call too.
    assert pool.worker_pids() == [pool.run_on(1, _pid)]


def test_worker_exception_reraises_with_remote_traceback(pool):
    with pytest.raises(ValueError) as excinfo:
        pool.map_shards([(_double, (1,)), (_boom, ())])
    cause = excinfo.value.__cause__
    assert isinstance(cause, ShardError)
    assert "original traceback" in str(cause)
    assert "ValueError" in str(cause)
    # The pool survives the failed call.
    assert pool.map_shards([(_double, (5,))]) == [10]


def test_unpicklable_task_raises_pool_unavailable(pool):
    with pytest.raises(PoolUnavailableError):
        pool.map_shards([(_double, (lambda: None,))])


def test_closed_pool_refuses_work(pool):
    pool.close()  # it never started a worker: nothing to shut down
    pool.close()
    assert pool.closed and pool.worker_pids() == []
    with pytest.raises(PoolUnavailableError):
        pool.map_shards([(_double, (1,))])
    with pytest.raises(PoolUnavailableError):
        pool.run_on(0, _double, 1)


# ----------------------------------------------------------------- crashes
def test_crashed_worker_is_respawned_and_shard_rescheduled(pool, tmp_path):
    marker = str(tmp_path / "crashed-once")
    tasks = [(_double, (1,)), (_crash_once, (marker, 5)), (_double, (3,))]
    epochs = [pool.worker_epoch(slot) for slot in range(pool.workers)]
    with obs.trace() as t:
        results = pool.map_shards(tasks)
    assert results == [2, 10, 6]  # bit-identical despite the crash
    assert t.counters.get(WORKER_RESTARTS) == 1
    restarts = [e for e in t.events if e.name == "fanout.worker_restart"]
    assert len(restarts) == 1
    # Exactly one slot's epoch moved — shipped state there is now stale.
    bumped = [
        slot for slot in range(pool.workers)
        if pool.worker_epoch(slot) != epochs[slot]
    ]
    assert len(bumped) == 1


def test_worker_killed_between_calls_recovers(pool):
    assert pool.map_shards([(_double, (i,)) for i in range(4)]) == [0, 2, 4, 6]
    os.kill(pool.worker_pids()[0], signal.SIGKILL)
    with obs.trace() as t:
        results = pool.map_shards([(_double, (i,)) for i in range(4)])
    assert results == [0, 2, 4, 6]
    assert t.counters.get(WORKER_RESTARTS, 0) >= 1


def test_shard_that_always_crashes_is_abandoned(pool):
    with obs.trace() as t, pytest.raises(ShardError) as excinfo:
        pool.map_shards([(_crash_always, ())])
    assert "giving up" in str(excinfo.value)
    assert t.counters.get(WORKER_RESTARTS) == MAX_SHARD_CRASHES
    # The pool is clean afterwards.
    assert pool.map_shards([(_double, (4,))]) == [8]


# ---------------------------------------------------------------- timeouts
def test_per_shard_timeout_raises_shard_error(pool):
    with pytest.raises(ShardError) as excinfo:
        pool.map_shards([(_sleep, (30.0,))], timeout=0.3)
    assert "timed out" in str(excinfo.value)
    # The stuck worker was killed; its slot starts a successor with the
    # next task, and the pool still works.
    assert pool.map_shards([(_double, (2,)), (_double, (3,))]) == [4, 6]


def test_run_on_timeout(pool):
    with pytest.raises(ShardError, match="timed out"):
        pool.run_on(0, _sleep, 30.0, timeout=0.3)
    assert pool.run_on(0, _double, 8) == 16


# ------------------------------------------------------------- shared pools
def test_get_shared_pool_reuses_warm_pool():
    shutdown_shared_pools()
    try:
        with obs.trace() as t:
            first = get_shared_pool(2)
            second = get_shared_pool(2)
        assert first is second
        assert not first.closed
        assert t.counters.get(POOL_REUSE_COUNTER) == 1
    finally:
        shutdown_shared_pools()


def test_shared_pool_recreated_after_shutdown():
    pool = get_shared_pool(2)
    shutdown_shared_pools()
    assert pool.closed
    try:
        fresh = get_shared_pool(2)
        assert fresh is not pool
        assert not fresh.closed
    finally:
        shutdown_shared_pools()
