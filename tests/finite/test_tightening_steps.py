"""A tightening step grounds only its new facts, without moving a bit.

Each table owns one fact index in its insertion order, and the table's
``extend`` grows it by exactly the facts that call added.  Every lifted
family and compiled grounding over the table reads that one index;
another table keeps its own.  Either way every answer equals a cold run
bit for bit: the executor's fold order (bound segments in table order,
root-level values in ``domain_sort_key`` order) does not depend on how
the index grew.
"""

import random

import pytest

from repro import obs
from repro.core.fact_distribution import GeometricFactDistribution
from repro.core.tuple_independent import CountableTIPDB
from repro.finite import TupleIndependentTable, query_probability
from repro.finite.compile_cache import CompileCache
from repro.finite.lifted import query_probability_lifted
from repro.logic import BooleanQuery, parse_formula
from repro.relational import Schema
from repro.relational.index import FactIndex
from repro.universe import FactSpace, Naturals

CHAIN = "EXISTS x, y. R(x) AND S(x, y)"


def geometric_pdb():
    schema = Schema.of(R=1, S=2)
    space = FactSpace(schema, Naturals())
    return CountableTIPDB(
        schema, GeometricFactDistribution(space, first=0.3, ratio=0.97))


def query(text, schema):
    return BooleanQuery(parse_formula(text, schema), schema)


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


def cold(q, table):
    """A fresh cache over a fresh copy of the table, so over a fresh
    index too."""
    copy = TupleIndependentTable(table.schema, dict(table.marginals))
    return query_probability_lifted(q, copy, plan_cache=CompileCache())


class TestSuffixGrounding:
    def test_sweep_extends_the_index_by_each_steps_new_facts(
            self, extend_calls):
        pdb = geometric_pdb()
        q = query(CHAIN, pdb.schema)
        cache = CompileCache()
        table = pdb.truncate(20)
        query_probability_lifted(q, table, plan_cache=cache)
        index = table.index
        for n in (20, 35, 36, 60, 60, 90):
            before = len(table)
            extend_calls.clear()
            with obs.trace() as t:
                pdb.extend_truncation(table, n)
            added = list(table.possible_facts())[before:]
            assert extend_calls == ([added] if added else [])
            assert t.counters.get("grounding.delta_facts", 0) == len(added)
            extend_calls.clear()
            value = query_probability_lifted(q, table, plan_cache=cache)
            assert extend_calls == []
            assert value == cold(q, table)
            _, grounded = cache.lifted(q.formula, table)
            assert grounded is index
            assert list(index) == list(table.possible_facts())

    def test_ground_phase_times_the_index_growth(self):
        pdb = geometric_pdb()
        q = query(CHAIN, pdb.schema)
        table = pdb.truncate(20)
        with obs.trace() as t:
            query_probability_lifted(q, table, plan_cache=CompileCache())
        assert "ground" in t.timings


class TestFallback:
    """Another table, or a compiled grounding of the same family,
    between two steps.  Each table keeps its own index, which only its
    own ``extend`` grows, and its values equal a cold run."""

    def step_after(self, interleave, extend_calls):
        pdb = geometric_pdb()
        q = query(CHAIN, pdb.schema)
        cache = CompileCache()
        table = pdb.truncate(30)
        assert query_probability_lifted(
            q, table, plan_cache=cache) == cold(q, table)
        index = table.index
        other = interleave(pdb, q, cache, table)
        if other is not None:
            assert other.index is not index
            assert list(other.index) == list(other.possible_facts())
        before = len(table)
        extend_calls.clear()
        pdb.extend_truncation(table, 45)
        order = list(table.possible_facts())
        assert extend_calls == [order[before:]]
        extend_calls.clear()
        value = query_probability_lifted(q, table, plan_cache=cache)
        assert extend_calls == []
        assert value == cold(q, table)
        _, grounded = cache.lifted(q.formula, table)
        assert grounded is table.index is index
        assert list(index) == order
        extend_calls.clear()
        pdb.extend_truncation(table, 50)
        assert extend_calls == [list(table.possible_facts())[len(order):]]
        value = query_probability_lifted(q, table, plan_cache=cache)
        assert value == cold(q, table)

    @pytest.mark.parametrize("extra", [0, 40], ids=["same-size", "larger"])
    def test_second_table(self, extra, extend_calls):
        def interleave(pdb, q, cache, table):
            other = pdb.truncate(len(table) + extra)
            value = query_probability_lifted(q, other, plan_cache=cache)
            assert value == cold(q, other)
            return other

        self.step_after(interleave, extend_calls)

    def test_compiled_grounding_of_the_family(self, extend_calls):
        def interleave(pdb, q, cache, table):
            query_probability(q, table, strategy="bdd", compile_cache=cache)

        self.step_after(interleave, extend_calls)

    def test_compiled_grounding_of_a_larger_table(self, extend_calls):
        def interleave(pdb, q, cache, table):
            other = pdb.truncate(len(table) + 40)
            query_probability(q, other, strategy="bdd", compile_cache=cache)
            return other

        self.step_after(interleave, extend_calls)


class TestMixedSeparatorValues:
    """Separator values of mixed types whose repr order is not their
    numeric order (``10`` sorts before ``9``), arriving out of canonical
    order: a delta-extended sweep equals a one-shot bit for bit."""

    SCHEMA = Schema.of(R=1, S=2, U=3)
    VALUES = [9, 10, 100, 2, "9", "a", "B", 2.5, -1.5, -0.0, True,
              (1, 2), (1, "x"), (10,), (9,)]
    QUERIES = [
        "EXISTS x, y. R(x) AND S(x, y)",
        "EXISTS x, y. R(x) AND U(x, y, y)",
        "EXISTS x. R(x) AND U(x, x, 9)",
        "(EXISTS x. R(x)) OR (EXISTS y. S(y, 10))",
    ]

    def facts(self, seed):
        R, S, U = (self.SCHEMA[name] for name in ("R", "S", "U"))
        values = self.VALUES
        facts = [R(v) for v in values]
        facts += [S(u, v) for u in values for v in values]
        facts += [U(u, v, v) for u in values for v in values]
        facts += [U(v, v, 9) for v in values]
        facts = list(dict.fromkeys(facts))
        rng = random.Random(seed)
        rng.shuffle(facts)
        # Small marginals keep every answer well below 1, where a fold
        # in another order would show in the last bits.
        return [(fact, rng.uniform(0.001, 0.1)) for fact in facts]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("text", QUERIES)
    def test_sweep_is_bit_equal_to_one_shot(self, text, seed):
        q = query(text, self.SCHEMA)
        pairs = self.facts(seed)
        cache = CompileCache()
        table = TupleIndependentTable(self.SCHEMA, dict(pairs[:10]))
        for stop in (10, 40, 41, 120, 200, len(pairs)):
            table.extend(dict(pairs[:stop]))
            swept = query_probability_lifted(q, table, plan_cache=cache)
            snapshot = TupleIndependentTable(self.SCHEMA, dict(pairs[:stop]))
            assert swept == cold(q, snapshot)
