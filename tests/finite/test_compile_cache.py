"""Tests for the compiled-lineage cache: key semantics, manager sharing
and extension across truncations, LRU bounds, the BID diagram scorer,
and the shared answer-fan-out grounding."""

import pytest

from repro.finite import (
    Block,
    BlockIndependentTable,
    CompileCache,
    SharedGrounding,
    TupleIndependentTable,
    bid_bdd_probability,
    query_probability,
    query_probability_by_bdd_cached,
)
from repro.errors import EvaluationError
from repro.finite.compile_cache import DEFAULT_COMPILE_CACHE
from repro.finite.pdb import FinitePDB
from repro.logic import BooleanQuery, parse_formula
from repro.relational import Instance, Schema

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]


def h0():
    return BooleanQuery(
        parse_formula("EXISTS x, y. R(x) AND S(x, y) AND T(y)", schema),
        schema)


def table(n=3):
    marginals = {R(i): 0.5 for i in range(1, n + 1)}
    marginals.update({
        S(i, j): 0.25 for i in range(1, n + 1) for j in range(1, n + 1)})
    marginals.update({T(j): 0.5 for j in range(1, n + 1)})
    return TupleIndependentTable(schema, marginals)


class TestCacheKeying:
    def test_hit_on_repeat(self):
        cache = CompileCache()
        full = table()
        first = cache.compiled(h0().formula, full)
        second = cache.compiled(h0().formula, full)
        assert first.manager is second.manager
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_distinct_fact_sets_are_distinct_entries(self):
        cache = CompileCache()
        full = table()
        cache.compiled(h0().formula, full.top(4))
        cache.compiled(h0().formula, full.top(8))
        assert cache.stats.misses == 2
        assert len(cache) == 2

    def test_same_query_shares_one_manager(self):
        """A truncation grown in place extends one manager instead of
        recompiling into a fresh one — the node store carries over."""
        cache = CompileCache()
        items = list(table().marginals.items())
        grown = TupleIndependentTable(schema, dict(items[:5]))
        small = cache.compiled(h0().formula, grown)
        grown.extend(dict(items))
        large = cache.compiled(h0().formula, grown)
        assert small.manager is large.manager
        assert cache.stats.extensions == 1
        # The extended order is the table's order, original prefix
        # intact.
        assert large.manager.order == list(grown.possible_facts())

    def test_lru_eviction_bounds_memory(self):
        cache = CompileCache(max_queries=2)
        full = table()
        formulas = [
            parse_formula(text, schema)
            for text in ("EXISTS x. R(x)", "EXISTS x. T(x)",
                         "EXISTS x, y. S(x, y)")
        ]
        for formula in formulas:
            cache.compiled(formula, full)
        assert len(cache._families) == 2  # oldest family evicted


class TestCacheCorrectness:
    def test_reused_diagram_matches_cold_compiles(self):
        """The acceptance-criteria test: the same cached/extended diagram
        evaluated at two truncation sizes gives exactly the answers two
        cold compiles give."""
        warm = CompileCache()
        full = table()
        query = h0()
        truncations = [full.top(6), full]
        warm_values = [
            query_probability_by_bdd_cached(query, t, warm)
            for t in truncations
        ]
        # Re-score through the cache a second time: pure hits.
        rescored = [
            query_probability_by_bdd_cached(query, t, warm)
            for t in truncations
        ]
        cold_values = [
            query_probability_by_bdd_cached(query, t, CompileCache())
            for t in truncations
        ]
        assert warm_values == cold_values == rescored
        assert warm.stats.hits == 2 and warm.stats.misses == 2

    def test_rescoring_under_new_marginals_reuses_diagram(self):
        """Same facts, different marginals: one compilation, two scores."""
        cache = CompileCache()
        query = h0()
        base = table()
        doubled = TupleIndependentTable(
            schema, {f: p / 2 for f, p in base.marginals.items()})
        assert set(base.marginals) == set(doubled.marginals)
        p1 = query_probability_by_bdd_cached(query, base, cache)
        p2 = query_probability_by_bdd_cached(query, doubled, cache)
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert p1 != p2  # genuinely re-scored
        assert p2 == query_probability(query, doubled, strategy="lineage")

    def test_clear_resets(self):
        cache = CompileCache()
        query_probability_by_bdd_cached(h0(), table(), cache)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0 and cache.stats.misses == 0

    def test_default_cache_is_used_by_dispatcher(self):
        hits_before = DEFAULT_COMPILE_CACHE.stats.hits
        misses_before = DEFAULT_COMPILE_CACHE.stats.misses
        full = table()
        query_probability(h0(), full, strategy="bdd")
        query_probability(h0(), full, strategy="bdd")
        gained = (DEFAULT_COMPILE_CACHE.stats.hits - hits_before) + (
            DEFAULT_COMPILE_CACHE.stats.misses - misses_before)
        assert gained == 2
        assert DEFAULT_COMPILE_CACHE.stats.hits - hits_before >= 1


class TestBIDScoring:
    def bid(self):
        return BlockIndependentTable(schema, [
            Block("a", {R(1): 0.5, R(2): 0.25}),
            Block("b", {T(1): 0.5}),
            Block("c", {S(1, 1): 0.5, S(2, 1): 0.25}),
        ])

    def test_bid_bdd_matches_lineage(self):
        cache = CompileCache()
        query = h0()
        value = query_probability_by_bdd_cached(query, self.bid(), cache)
        assert value == query_probability(
            query, self.bid(), strategy="lineage")

    def test_bid_scorer_direct(self):
        cache = CompileCache()
        pdb = self.bid()
        compiled = cache.compiled(h0().formula, pdb)
        assert bid_bdd_probability(
            compiled.manager, compiled.root, pdb
        ) == query_probability(h0(), pdb, strategy="worlds")

    def test_finite_pdb_rejected(self):
        pdb = FinitePDB(schema, {Instance([R(1)]): 0.5, Instance(): 0.5})
        with pytest.raises(EvaluationError):
            query_probability_by_bdd_cached(h0(), pdb)


class TestSharedGrounding:
    def test_matches_per_answer_grounding(self):
        from repro.logic.normalform import substitute
        from repro.logic.queries import Query

        full = table()
        query = Query(
            parse_formula("EXISTS y. R(x) AND S(x, y) AND T(y)", schema),
            schema)
        shared = SharedGrounding(
            query.formula, full,
            {v for f in full.facts() for v in f.args})
        for i in range(1, 4):
            answer = (i,)
            grounded = substitute(
                query.formula, dict(zip(query.variables, answer)))
            expected = query_probability(
                BooleanQuery(grounded, schema), full, strategy="lineage")
            got = shared.answer_probability(query.variables, answer)
            assert got == pytest.approx(expected, abs=1e-12)
        # One manager served every answer.
        assert shared.manager.size() > 0

    def test_rejects_finite_pdb(self):
        pdb = FinitePDB(schema, {Instance([R(1)]): 1.0})
        with pytest.raises(EvaluationError):
            SharedGrounding(h0().formula, pdb, set())
