"""Each TI and BID table owns one fact index.

The index is built once, on first use, in the table's own order (TI
insertion order, BID block order); the table's ``extend`` grows it by
exactly the facts that call added; pickles drop it.  Every lifted
family and compiled grounding over a table reads that one index, so a
table is indexed once however many query families run on it.
"""

import pickle
import threading
import time

import pytest

from repro import obs
from repro.finite import (
    Block,
    BlockIndependentTable,
    TupleIndependentTable,
    query_probability,
)
from repro.finite.compile_cache import CompileCache
from repro.finite.lifted import query_probability_lifted
from repro.logic import BooleanQuery, parse_formula
from repro.relational import Schema
from repro.relational.index import FactIndex

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]


def ti_table():
    # Insertion order is neither canonical nor by probability.
    return TupleIndependentTable(schema, {
        S(2, 1): 0.4, R(3): 0.25, T(1): 0.6, R(1): 0.5, S(1, 1): 0.7,
        S(3, 2): 0.2, T(2): 0.3, R(2): 0.45,
    })


def bid_table():
    return BlockIndependentTable(schema, [
        Block("s2", {S(2, 1): 0.25, S(2, 2): 0.5}),
        Block("r", {R(3): 0.5, R(1): 0.25}),
        Block("t", {T(1): 0.6}),
        Block("s1", {S(1, 1): 0.7}),
    ])


def query(text):
    return BooleanQuery(parse_formula(text, schema), schema)


@pytest.fixture
def builds(monkeypatch):
    """Every FactIndex built, in construction order."""
    built = []
    original = FactIndex.__init__

    def recording(self, facts=()):
        built.append(self)
        original(self, facts)

    monkeypatch.setattr(FactIndex, "__init__", recording)
    return built


@pytest.fixture
def extend_calls(monkeypatch):
    """Every ``FactIndex.extend`` argument, as a list, in call order."""
    calls = []
    original = FactIndex.extend

    def recording(self, facts):
        facts = list(facts)
        calls.append(facts)
        return original(self, facts)

    monkeypatch.setattr(FactIndex, "extend", recording)
    return calls


@pytest.mark.parametrize("make", [ti_table, bid_table], ids=["ti", "bid"])
class TestOwnership:
    def test_built_once_in_table_order(self, make, builds):
        table = make()
        assert builds == []  # built on first use only
        index = table.index
        assert table.index is index
        assert builds == [index]
        assert list(index) == list(table.possible_facts())

    def test_racing_readers_build_one_index(self, make, builds, monkeypatch):
        table = make()
        original = FactIndex.extend

        def slow(self, facts):
            time.sleep(0.01)  # widen the window between check and build
            return original(self, facts)

        monkeypatch.setattr(FactIndex, "extend", slow)
        start = threading.Barrier(6)
        seen = []

        def read():
            start.wait(timeout=10)
            seen.append(table.index)

        threads = [threading.Thread(target=read) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert len(builds) == 1
        assert len(seen) == 6 and all(index is builds[0] for index in seen)

    def test_a_pickled_table_rebuilds_an_equal_index(self, make):
        table = make()
        index = table.index
        clone = pickle.loads(pickle.dumps(table))
        assert clone._index is None
        assert clone.index is not index
        assert list(clone.index) == list(index)
        assert clone.index.values == index.values


class TestExtend:
    def test_ti_extend_passes_exactly_the_new_facts(self, extend_calls):
        table = ti_table()
        index = table.index
        extend_calls.clear()
        with obs.trace() as t:
            # R(1) is already listed with this marginal: not new.
            table.extend({R(1): 0.5, S(4, 4): 0.1, R(4): 0.2})
            table.extend({R(4): 0.2})
        assert extend_calls == [[S(4, 4), R(4)]]
        assert t.counters["grounding.delta_facts"] == 2
        assert table.index is index
        assert list(index) == list(table.possible_facts())
        assert 4 in index.values

    def test_bid_extend_passes_exactly_the_new_facts(self, extend_calls):
        table = bid_table()
        index = table.index
        extend_calls.clear()
        with obs.trace() as t:
            table.extend([Block("t3", {T(3): 0.5, T(4): 0.25})])
        assert extend_calls == [[T(3), T(4)]]
        assert t.counters["grounding.delta_facts"] == 2
        assert list(index) == list(table.possible_facts())

    def test_an_unindexed_table_builds_nothing_on_extend(self, builds):
        table = ti_table()
        table.extend({R(9): 0.5})
        assert builds == []
        assert list(table.index) == list(table.possible_facts())


class TestOneIndexPerTable:
    def test_lifted_and_compiled_families_share_the_tables_index(
            self, builds):
        table = ti_table()
        cache = CompileCache()
        chain = query("EXISTS x, y. R(x) AND S(x, y)")
        star = query("EXISTS x. R(x) AND T(x)")
        unsafe = query("EXISTS x, y. R(x) AND S(x, y) AND T(y)")
        values = [
            query_probability_lifted(chain, table, plan_cache=cache),
            query_probability_lifted(star, table, plan_cache=cache),
            query_probability(
                unsafe, table, strategy="bdd", compile_cache=cache),
        ]
        assert len(builds) == 1
        index = table.index
        for q in (chain, star):
            _, grounded = cache.lifted(q.formula, table)
            assert grounded is index
        table.extend({R(5): 0.3, S(5, 1): 0.6})
        values += [
            query_probability_lifted(chain, table, plan_cache=cache),
            query_probability(
                unsafe, table, strategy="bdd", compile_cache=cache),
        ]
        assert len(builds) == 1
        assert table.index is index
        cold = ti_table()
        cold.extend({R(5): 0.3, S(5, 1): 0.6})
        assert values[3:] == [
            query_probability_lifted(chain, cold, plan_cache=CompileCache()),
            query_probability(
                unsafe, cold, strategy="bdd", compile_cache=CompileCache()),
        ]
