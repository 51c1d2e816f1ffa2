"""The shipping layer: pooled results are bit-identical to the serial
path, grown tables ship only their append-only delta, serialization (the
picklability probe included) happens exactly once per payload, and
pickle failures are cached per table identity."""

import pickle

import pytest

from repro import obs
from repro.core.bid import BlockFamily, CountableBIDPDB
from repro.core.completion import complete
from repro.core.fact_distribution import GeometricFactDistribution
from repro.core.refine import RefinementSession
from repro.finite import Block, BlockIndependentTable
from repro.finite.evaluation import marginal_answer_probabilities
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic.parser import parse_formula
from repro.logic.queries import Query
from repro.parallel.pool import WORKER_RESTARTS, ShardPool
from repro.parallel.shipping import (
    SHIP_DELTA_BYTES,
    SHIP_FULL_BYTES,
    ShipError,
    pooled_answer_marginals,
    shipper_for,
)
from repro.relational import Schema
from repro.universe import FactSpace, Naturals

schema = Schema.of(R=1, S=2)
R, S = schema["R"], schema["S"]


@pytest.fixture
def pool():
    p = ShardPool(2)
    yield p
    p.close()


def _table():
    return TupleIndependentTable(schema, {
        R(1): 0.5, R(2): 0.25, R(3): 0.75,
        S(1, 2): 0.8, S(2, 1): 0.4,
    })


def _query(text="R(x)"):
    return Query(parse_formula(text, schema), schema)


def _pooled(pool, query, table, **kwargs):
    from repro.finite.evaluation import _candidate_values

    candidates = _candidate_values(query, table, None)
    kwargs.setdefault("strategy", "auto")
    return pooled_answer_marginals(
        pool, query, table, candidates, **kwargs)


# ------------------------------------------------------------- bit-identity
def test_pooled_matches_serial_order_included(pool):
    query, table = _query(), _table()
    serial = marginal_answer_probabilities(query, table)
    pooled = _pooled(pool, query, table)
    assert dict(pooled) == dict(serial)
    assert list(pooled) == list(serial)


def test_pooled_matches_serial_on_join_query(pool):
    query, table = _query("EXISTS y. R(x) AND S(x, y)"), _table()
    serial = marginal_answer_probabilities(query, table)
    pooled = _pooled(pool, query, table)
    assert dict(pooled) == dict(serial)
    assert list(pooled) == list(serial)


def test_pooled_matches_serial_on_bid_table(pool):
    table = BlockIndependentTable(schema, [
        Block("k1", {S(1, 1): 0.5, S(1, 2): 0.3}),
        Block("k2", {S(2, 1): 0.4}),
    ])
    query = Query(parse_formula("EXISTS y. S(x, y)", schema), schema)
    serial = marginal_answer_probabilities(query, table)
    pooled = _pooled(pool, query, table)
    assert dict(pooled) == dict(serial)
    assert list(pooled) == list(serial)


# ------------------------------------------------------------ delta shipping
def test_grown_table_ships_only_the_delta(pool):
    query, table = _query(), _table()
    with obs.trace() as cold:
        first = _pooled(pool, query, table)
    assert cold.counters.get(SHIP_FULL_BYTES, 0) > 0
    assert cold.counters.get(SHIP_DELTA_BYTES, 0) == 0

    table.extend({R(4): 0.1, R(5): 0.2})
    with obs.trace() as warm:
        second = _pooled(pool, query, table)
    assert warm.counters.get(SHIP_FULL_BYTES, 0) == 0
    delta_bytes = warm.counters.get(SHIP_DELTA_BYTES, 0)
    assert 0 < delta_bytes < len(pickle.dumps(table))
    # The delta-shipped workers agree with a from-scratch serial run.
    serial = marginal_answer_probabilities(query, table)
    assert dict(second) == dict(serial)
    assert list(second) == list(serial)
    assert set(first) < set(second)


def test_unchanged_table_ships_nothing(pool):
    query, table = _query(), _table()
    _pooled(pool, query, table)
    with obs.trace() as t:
        _pooled(pool, query, table)
    assert t.counters.get(SHIP_FULL_BYTES, 0) == 0
    assert t.counters.get(SHIP_DELTA_BYTES, 0) == 0


def test_respawned_worker_gets_a_full_reship(pool):
    import os
    import signal

    query, table = _query(), _table()
    _pooled(pool, query, table)
    os.kill(pool.worker_pids()[0], signal.SIGKILL)
    with obs.trace() as t:
        pooled = _pooled(pool, query, table)
    assert t.counters.get(WORKER_RESTARTS, 0) >= 1
    assert t.counters.get(SHIP_FULL_BYTES, 0) > 0  # epoch moved: re-ship
    serial = marginal_answer_probabilities(query, table)
    assert dict(pooled) == dict(serial)


def test_grown_bid_table_ships_block_delta(pool):
    # Enough blocks that the first call dispatches chunks to (and so
    # warms) every worker — otherwise the second call's first contact
    # with a cold worker is a legitimate full ship.
    table = BlockIndependentTable(schema, [
        Block(f"k{i}", {S(i, 1): 0.5, S(i, 2): 0.3}) for i in range(1, 7)
    ])
    query = Query(parse_formula("EXISTS y. S(x, y)", schema), schema)
    _pooled(pool, query, table)
    table.extend([Block("k9", {S(9, 1): 0.4})])
    with obs.trace() as t:
        pooled = _pooled(pool, query, table)
    assert t.counters.get(SHIP_FULL_BYTES, 0) == 0
    assert t.counters.get(SHIP_DELTA_BYTES, 0) > 0
    serial = marginal_answer_probabilities(query, table)
    assert dict(pooled) == dict(serial)


def test_growing_sweep_ships_deltas_far_below_full_tables(pool):
    """A sweep-shaped workload: the queried ``S`` slice rides on open-world
    ballast (``T`` facts the query never reads), and each step grows the
    table in place by a small delta.  Every step's pooled dict equals the
    serial one, and after the cold first step only deltas are shipped."""
    sweep = Schema.of(S=2, T=1)
    s, t = sweep["S"], sweep["T"]
    query = Query(parse_formula("EXISTS y. S(x, y)", sweep), sweep)
    domain = range(4)
    table = TupleIndependentTable(sweep, {
        **{s(i % 4, 100 + i): 0.5 + 0.01 * i for i in range(12)},
        **{t(1_000 + i): 0.5 for i in range(2_000)},
    })
    full = delta = 0
    for step in range(4):
        if step:
            table.extend({
                **{s(step, 200 + 10 * step + j): 0.3 for j in range(2)},
                **{t(10_000 + 100 * step + j): 0.5 for j in range(40)},
            })
        serial = marginal_answer_probabilities(
            query, table, domain=domain, strategy="bdd")
        with obs.trace() as trace:
            pooled = marginal_answer_probabilities(
                query, table, domain=domain, strategy="bdd", pool=pool)
        assert "fanout.pool" in {e["name"] for e in pooled.report.events}
        assert list(pooled.items()) == list(serial.items()), step
        full += trace.counters.get(SHIP_FULL_BYTES, 0)
        delta += trace.counters.get(SHIP_DELTA_BYTES, 0)
    assert delta > 0
    assert full >= 10 * delta


def test_worker_refresh_reads_the_grown_index(monkeypatch):
    """A delta ship grows the worker's table, and with it the table's
    index, in place; a refresh takes the candidates and the grounding's
    base domain off that index instead of rescanning the facts."""
    from repro.finite.evaluation import _candidate_values
    from repro.parallel import shipping

    table, query, key = _table(), _query("EXISTS y. S(x, y)"), "t-refresh"
    context = (query.formula, schema, query.variables, query.name, "bdd",
               None)
    delta = [(R(7), 0.5), (S(7, 8), 0.25), (S(3, 1), 0.125)]
    grown = TupleIndependentTable(schema, {**table.marginals, **dict(delta)})
    try:
        shipping._worker_store_table(key, pickle.dumps(table))
        shipping._worker_store_query(key, "q", pickle.dumps(context))
        runtime = shipping._RUNTIMES[(key, "q")]
        runtime.refresh(shipping._TABLES[key])  # indexes the table

        def rescan(self):
            raise AssertionError("refresh rescanned the table's facts")

        with monkeypatch.context() as patched:
            patched.setattr(TupleIndependentTable, "possible_facts", rescan)
            shipping._worker_extend_table(key, "ti", pickle.dumps(delta))
            runtime.refresh(shipping._TABLES[key])
            scored = runtime.eval_range(0, runtime.total())
        assert runtime.candidates == _candidate_values(query, grown, None)
        assert scored == marginal_answer_probabilities(
            query, grown, strategy="bdd")
    finally:
        shipping._TABLES.pop(key, None)
        shipping._RUNTIMES.pop((key, "q"), None)


# ---------------------------------------------------- single serialization
class _CountingTable(TupleIndependentTable):
    """A TI table that counts how often it is pickled."""

    pickles = 0

    def __getstate__(self):
        type(self).pickles += 1
        return super().__getstate__()


def test_table_is_serialized_exactly_once_per_call(pool):
    _CountingTable.pickles = 0
    table = _CountingTable(schema, {
        R(i): 0.5 for i in range(1, 40)})
    query = _query()
    pooled = _pooled(pool, query, table)
    # Cold call: the probe and every worker's full ship share ONE pickle
    # (the old fan-out serialized the table once per probe plus once per
    # executor submission).
    assert _CountingTable.pickles == 1
    assert len(pooled) == 39


class _Bomb:
    attempts = 0

    def __reduce__(self):
        type(self).attempts += 1
        raise RuntimeError("deliberately unpicklable")


def test_pickle_failure_verdict_is_cached(pool):
    _Bomb.attempts = 0
    table = _table()
    table.bomb = _Bomb()  # rides along in the table's pickled state
    query = _query()
    with pytest.raises(ShipError, match="cannot be pickled"):
        _pooled(pool, query, table)
    assert _Bomb.attempts == 1
    with pytest.raises(ShipError, match="cannot be pickled"):
        _pooled(pool, query, table)
    assert _Bomb.attempts == 1  # cached verdict: no second probe


def test_unsupported_table_type_raises_ship_error(pool):
    with pytest.raises(ShipError, match="TI or BID"):
        pooled_answer_marginals(
            pool, _query(), object(), [], strategy="auto")


# ------------------------------------------------------ session certificates
def _countable_bid():
    """Blocks of three alternatives: n counts blocks, a third of the
    truncation's facts."""
    family = BlockFamily.geometric(
        make_block=lambda i: Block(
            f"k{i}", {S(i + 1, j): 0.25 * 0.5**i for j in (1, 2, 3)}),
        block_mass=lambda i: 0.75 * 0.5**i, first=0.75, ratio=0.5)
    return CountableBIDPDB(schema, family)


def _completion():
    """A 12-fact table completed: n counts only the new facts."""
    table = TupleIndependentTable(schema, {
        S(i, j): 0.5 for i in range(1, 5) for j in range(1, 4)})
    return complete(table, GeometricFactDistribution(
        FactSpace(schema, Naturals()), first=0.25, ratio=0.5))


@pytest.mark.parametrize("make_pdb, text", [
    (_countable_bid, "EXISTS y. S(x, y)"),
    (_completion, "EXISTS z. S(x, z) AND S(y, z)"),
], ids=["bid", "completion"])
def test_pooled_session_certifies_like_the_serial_one(pool, make_pdb, text):
    """Pool workers keep their traces, so the parent certifies a pooled
    fan-out's fold error itself: over the truncation's facts, the
    variables of the diagrams the workers score, as a serial fan-out
    does."""
    query = _query(text)
    serial = RefinementSession(query, make_pdb(), strategy="bdd")
    pooled = RefinementSession(query, make_pdb(), strategy="bdd", pool=pool)
    for epsilon in (0.2, 0.05):
        expected = serial.refine_marginals(epsilon)
        with obs.trace() as t:
            got = pooled.refine_marginals(epsilon, workers=2)
        assert "fanout.pool" in [event.name for event in t.events]
        assert list(got) == list(expected)
        for answer, result in expected.items():
            assert got[answer].value == result.value
            assert got[answer].truncation == result.truncation
            assert got[answer].fold_error == result.fold_error > 0.0


# ----------------------------------------------------------- shipper state
def test_shipper_is_per_pool(pool):
    other = ShardPool(2)
    try:
        assert shipper_for(pool) is shipper_for(pool)
        assert shipper_for(pool) is not shipper_for(other)
    finally:
        other.close()


def test_same_table_identity_keeps_its_key(pool):
    shipper = shipper_for(pool)
    table = _table()
    key1, _, _ = shipper.table_key(table)
    table.extend({R(9): 0.5})
    key2, _, count = shipper.table_key(table)
    assert key1 == key2
    assert count == len(table.marginals)
    other_key, _, _ = shipper.table_key(_table())
    assert other_key != key1
