"""The batched set-at-a-time lifted executor: its obs counters, warm
reruns over delta-extended binding tables, and the fact index's
probe-view cache."""

from repro import obs
from repro.finite import TupleIndependentTable
from repro.finite.compile_cache import CompileCache
from repro.finite.lifted import query_probability_lifted
from repro.logic import BooleanQuery, parse_formula
from repro.relational import Schema
from repro.relational.index import FactIndex

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]


def make_table():
    return TupleIndependentTable(schema, {
        R(1): 0.5, R(2): 0.25, R(3): 0.8,
        S(1, 1): 0.3, S(1, 2): 0.6, S(2, 1): 0.9, S(3, 3): 0.45,
        T(1): 0.7, T(2): 0.15,
    })


def query(text):
    return BooleanQuery(parse_formula(text, schema), schema)


class TestCounters:
    def test_batched_run_reports_vectorized_nodes_and_group_rows(self):
        table = make_table()
        with obs.trace() as t:
            query_probability_lifted(
                query("EXISTS x. EXISTS y. R(x) AND S(x, y)"), table,
                plan_cache=CompileCache())
        assert t.counters.get("lifted.vectorized_nodes", 0) > 0
        assert t.counters.get("lifted.group_rows", 0) > 0
        assert t.counters.get("lifted.scalar_fallbacks", 0) == 0

    def test_warm_rerun_reports_cached_groups(self):
        cache = CompileCache()
        table = make_table()
        q = query("EXISTS x. R(x)")
        query_probability_lifted(q, table, plan_cache=cache)
        with obs.trace() as t:
            first = query_probability_lifted(q, table, plan_cache=cache)
        assert t.counters.get("lifted.cached_groups", 0) > 0
        # Growing the table re-executes only the delta's groups.
        table.extend({R(9): 0.35})
        with obs.trace() as t:
            second = query_probability_lifted(q, table, plan_cache=cache)
        assert t.counters.get("lifted.cached_groups", 0) > 0
        fresh = query_probability_lifted(
            q, table, plan_cache=CompileCache())
        assert second == fresh  # delta reuse is bit-identical
        assert second > first


class TestViewCache:
    def test_probe_views_are_cached_by_bucket_identity(self):
        index = FactIndex(make_table().facts())
        first = index.probe(R, {})
        again = index.probe(R, {})
        assert first is again
        assert index.probe(S, {0: 1}) is index.probe(S, {0: 1})
        assert list(first) == list(index.relation_facts(R))

    def test_extension_keeps_views_coherent(self):
        table = make_table()
        index = FactIndex(table.facts())
        before = index.probe(R, {})
        table.extend({R(7): 0.2})
        index.extend(table.facts())
        after = index.probe(R, {})
        assert R(7) in set(after)
        assert len(after) == len(before)  # same live bucket object
