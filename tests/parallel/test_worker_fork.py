"""What a shard-pool worker inherits from the thread that forks it.

A slot's worker starts with the slot's first task, so workers fork from
inside traced calls and, in the serve layer, from request threads while
other threads run.  A forked child is a copy of the forking thread
only: it keeps that thread's trace stack, and every lock that any
parent thread held at the fork stays held in it.  These tests pin that
a worker starts with no active trace and takes no lock that another
parent thread may hold."""

import threading

from repro import obs
from repro.finite import Block, BlockIndependentTable
from repro.finite.compile_cache import DEFAULT_COMPILE_CACHE
from repro.finite.evaluation import (
    _candidate_values,
    marginal_answer_probabilities,
)
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic.parser import parse_formula
from repro.logic.queries import Query
from repro.parallel.pool import (
    ShardPool,
    get_shared_pool,
    shutdown_shared_pools,
)
from repro.parallel.shipping import pooled_answer_marginals
from repro.relational import Schema

schema = Schema.of(R=1, S=2)
R, S = schema["R"], schema["S"]

#: Long enough for any case here; a worker blocked on an inherited lock
#: turns into a ShardError instead of a hung test.
TIMEOUT_S = 30.0


def _query(text):
    return Query(parse_formula(text, schema), schema)


def _ti_table():
    return TupleIndependentTable(schema, {
        R(1): 0.5, R(2): 0.25, R(3): 0.75,
        S(1, 2): 0.8, S(2, 1): 0.4, S(3, 2): 0.3, S(2, 3): 0.6})


def _bid_table():
    return BlockIndependentTable(schema, [
        Block(f"k{i}", {S(i, 1): 0.5, S(i, 2): 0.3}) for i in range(1, 5)])


def _has_trace():
    return obs.current_trace() is not None


def _hold(lock):
    """Hold ``lock`` on another thread until the returned event is set."""
    held, release = threading.Event(), threading.Event()

    def run():
        with lock:
            held.set()
            release.wait(TIMEOUT_S)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert held.wait(TIMEOUT_S)
    return release, thread


# ------------------------------------------------------------------ traces
def test_shared_pool_workers_started_in_a_traced_call_have_no_trace():
    shutdown_shared_pools()
    try:
        query, table = _query("R(x)"), _ti_table()
        answers = marginal_answer_probabilities(
            query, table, strategy="bdd", workers=2)
        assert "fanout.pool" in {e["name"] for e in answers.report.events}
        pool = get_shared_pool(2)
        # Both workers forked inside the call's trace.
        assert len(pool.worker_pids()) == 2
        assert [pool.run_on(slot, _has_trace) for slot in (0, 1)] == [
            False, False]
    finally:
        shutdown_shared_pools()


def test_explicit_pool_whose_first_task_arrives_in_a_trace():
    pool = ShardPool(2)
    try:
        with obs.trace():
            assert pool.run_on(0, _has_trace) is False
            assert pool.map_shards([(_has_trace, ())] * 2) == [False, False]
        assert len(pool.worker_pids()) == 2
    finally:
        pool.close()


# ------------------------------------------------------------------- locks
def test_workers_forked_while_another_thread_holds_the_default_cache():
    """Request threads evaluate in ``DEFAULT_COMPILE_CACHE`` while a
    fan-out forks its workers; a worker scores in its own cache on
    every path, shared grounding and per-answer alike."""
    cases = [
        (_query("EXISTS y. R(x) AND S(x, y)"), _ti_table(), "bdd"),
        (_query("EXISTS z. S(x, z) AND S(y, z)"), _ti_table(), "auto"),
        (_query("EXISTS z. S(x, z) AND S(y, z)"), _ti_table(), "lifted"),
        (_query("EXISTS y. S(x, y)"), _bid_table(), "bdd"),
        (_query("EXISTS y. S(x, y)"), _bid_table(), "auto"),
    ]
    serial = [
        list(marginal_answer_probabilities(q, t, strategy=s).items())
        for q, t, s in cases]
    pool = ShardPool(2, timeout=TIMEOUT_S)
    release, thread = _hold(DEFAULT_COMPILE_CACHE._lock)
    try:
        pooled = []
        for q, t, s in cases:
            pooled.append(list(pooled_answer_marginals(
                pool, q, t, _candidate_values(q, t, None), s).items()))
        assert len(pool.worker_pids()) == 2
    finally:
        release.set()
        thread.join(TIMEOUT_S)
        pool.close()
    assert not thread.is_alive()
    assert pooled == serial

