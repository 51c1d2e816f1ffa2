"""Failure injection for the ``workers=`` answer-marginal fan-out:
worker exceptions must surface with the original traceback, and
unpicklable payloads and workers that cannot start must degrade to the
serial path (with a trace event) instead of dying inside the pool.

Only compiled fan-outs reach the pool — a safe query on a TI table is
answered by one in-process grouped lifted pass whatever ``workers=``
says — so the pool tests run ``R(x)`` under ``strategy="bdd"``."""

import pickle

import pytest

from repro.errors import UnsafeQueryError
from repro.finite.evaluation import marginal_answer_probabilities
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic.parser import parse_formula
from repro.logic.queries import Query
from repro.parallel.pool import ShardError, ShardPool
from repro.relational import Schema

schema = Schema.of(R=1, S=2)
R, S = schema["R"], schema["S"]


def _table():
    return TupleIndependentTable(schema, {
        R(1): 0.5, R(2): 0.25, S(1, 2): 0.8, S(2, 1): 0.4})


def _r_query():
    return Query(parse_formula("R(x)", schema), schema)


def test_pooled_fanout_matches_serial():
    query, table = _r_query(), _table()
    serial = marginal_answer_probabilities(query, table, strategy="bdd")
    pooled = marginal_answer_probabilities(
        query, table, workers=2, strategy="bdd")
    assert dict(pooled) == dict(serial)
    assert list(pooled) == list(serial)  # same enumeration order
    events = {e["name"] for e in pooled.report.events}
    assert "fanout.pool" in events
    assert "fanout.serial_fallback" not in events


def test_shard_exception_propagates_with_remote_traceback():
    # An unsafe self-join under forced "lifted" raises UnsafeQueryError
    # inside the worker; the parent must re-raise the *original*
    # exception type with the worker-side traceback attached as a
    # ShardError cause.
    query = Query(
        parse_formula("EXISTS y, z. R(y) AND S(y, z) AND S(x, z)", schema),
        schema)
    with pytest.raises(UnsafeQueryError) as excinfo:
        marginal_answer_probabilities(
            query, _table(), strategy="lifted", workers=2)
    cause = excinfo.value.__cause__
    if isinstance(excinfo.value, ShardError):
        # The re-raised exception may itself be the shard wrapper only
        # if the original was a ShardError — it is not here.
        pytest.fail("original exception type was replaced")
    assert isinstance(cause, ShardError)
    assert "original traceback" in str(cause)
    assert "UnsafeQueryError" in str(cause)  # the remote format_exc text


def test_unpicklable_payload_degrades_to_serial_with_event():
    table = _table()
    table.not_picklable = lambda: None  # closures cannot cross the pool
    query = _r_query()
    with pytest.raises(Exception):
        pickle.dumps(table)
    answers = marginal_answer_probabilities(
        query, table, workers=2, strategy="bdd")
    assert dict(answers) == dict(
        marginal_answer_probabilities(query, _table(), strategy="bdd"))
    events = {e["name"]: e for e in answers.report.events}
    assert "fanout.serial_fallback" in events
    assert events["fanout.serial_fallback"]["workers"] == 2
    assert events["fanout.serial_fallback"]["reason"]
    assert "fanout.pool" not in events


def test_fanout_does_not_ship_columnar_arrays():
    """A table with a warm columnar mirror fans out without shipping it
    (the pickled state carries ``_columns=None``), and the pooled
    answers still match the serial path bit-for-bit."""
    query, table = _r_query(), _table()
    table.columns  # warm the columnar mirror before the fan-out
    state = pickle.loads(pickle.dumps(table)).__dict__
    assert state["_columns"] is None
    serial = marginal_answer_probabilities(query, _table(), strategy="bdd")
    pooled = marginal_answer_probabilities(
        query, table, workers=2, strategy="bdd")
    assert dict(pooled) == dict(serial)
    events = {e["name"] for e in pooled.report.events}
    assert "fanout.pool" in events
    # The parent-side mirror survives the round-trip untouched.
    assert table._columns is not None
    assert table.expected_size() == _table().expected_size()


def _assert_grouped_in_process(result, serial):
    assert result.report.strategy == "lifted"
    assert "fanout.pool" not in {e["name"] for e in result.report.events}
    assert not any(
        name.startswith("fanout.ship_") and value
        for name, value in result.report.counters.items())
    assert dict(result) == dict(serial)  # bit for bit
    assert list(result) == list(serial)  # same enumeration order


@pytest.mark.parametrize("text", [
    "R(x)", "EXISTS y. R(x) AND S(x, y)", "S(x, y)"])
def test_safe_query_ignores_workers_and_pool(text):
    """A safe query on a TI table takes the in-process grouped pass:
    neither ``workers=`` nor ``pool=`` puts it on the pool, nothing is
    shipped, and the answers equal the serial ones bit for bit."""
    query = Query(parse_formula(text, schema), schema)
    serial = marginal_answer_probabilities(query, _table())
    assert serial.report.strategy == "lifted"
    _assert_grouped_in_process(
        marginal_answer_probabilities(query, _table(), workers=2), serial)
    pool = ShardPool(2)
    try:
        _assert_grouped_in_process(
            marginal_answer_probabilities(query, _table(), pool=pool),
            serial)
        assert pool.worker_pids() == []  # the pool started no worker
    finally:
        pool.close()


def test_worker_that_cannot_start_sends_the_call_to_the_serial_path(
        monkeypatch):
    """A failed worker start raises inside the pool, the fan-out runs
    serially with one ``fanout.serial_fallback`` event, and the slot
    stays unstarted, so the next fan-out runs on the pool."""
    query, table = _r_query(), _table()
    serial = marginal_answer_probabilities(query, table, strategy="bdd")
    pool = ShardPool(2)
    try:
        start = pool._ctx.Process.start
        calls = []

        def start_failing_once(process):
            calls.append(process)
            if len(calls) == 1:
                raise OSError("fork refused")
            return start(process)

        with monkeypatch.context() as patched:
            patched.setattr(pool._ctx.Process, "start", start_failing_once)
            fallback = marginal_answer_probabilities(
                query, table, strategy="bdd", pool=pool)
        assert list(fallback.items()) == list(serial.items())
        events = [e["name"] for e in fallback.report.events]
        assert events.count("fanout.serial_fallback") == 1
        assert "fanout.pool" not in events
        assert len(calls) == 1  # no second start within the call
        assert pool.worker_pids() == [] and not pool.closed

        pooled = marginal_answer_probabilities(
            query, table, strategy="bdd", pool=pool)
        assert list(pooled.items()) == list(serial.items())
        events = [e["name"] for e in pooled.report.events]
        assert "fanout.pool" in events
        assert "fanout.serial_fallback" not in events
        assert pool.worker_pids()
    finally:
        pool.close()
