"""Hypothesis differential properties for the batched lifted executor.

Over random tables and the plan shapes that exercise every grouped
constructor (chain joins, star joins, shattered constants, unions with
UCQ separators), the batched set-at-a-time executor must agree with the
compiled-BDD strategy to 1e-12 — and a refinement sweep's
delta-extended re-runs must be bit-identical to fresh full evaluations
at the same truncations.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.core.fact_distribution import GeometricFactDistribution
from repro.core.refine import RefinementSession
from repro.core.tuple_independent import CountableTIPDB
from repro.finite import TupleIndependentTable, query_probability
from repro.finite.compile_cache import CompileCache
from repro.finite.lifted import query_probability_lifted
from repro.logic import BooleanQuery, parse_formula
from repro.relational import Schema
from repro.universe import FactSpace, Naturals

#: Columns and folds run on plain Python lists only; the one-value
#: parameter keeps each case's ``[python]`` test id.
BACKENDS = ("python",)

#: The BDD reference rescores its diagram node by node in Python; the
#: one-value parameter keeps each case's ``[shape-python]`` test id.
RESCORE_LEGS = ("python",)

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]

#: One query per grouped-plan shape: leaf project, chain join, star
#: join, shattered constants, root union (inclusion–exclusion), and a
#: union whose disjuncts share a separator (the UCQ-separator project).
SHAPES = {
    "leaf": "EXISTS x. R(x)",
    "chain": "EXISTS x. EXISTS y. R(x) AND S(x, y)",
    "star": "EXISTS x. EXISTS y. R(x) AND S(x, y) AND T(x)",
    "shattered": "EXISTS y. S(1, y) AND R(1)",
    "union": "(EXISTS x. R(x) AND T(x)) OR (EXISTS y. S(2, y))",
    "ucq-separator": (
        "(EXISTS x. R(x)) OR (EXISTS x. EXISTS y. S(x, y) AND T(x))"
    ),
}

FACT_POOL = (
    [R(i) for i in (1, 2, 3)]
    + [S(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    + [T(i) for i in (1, 2, 3)]
)

marginal_maps = st.dictionaries(
    st.sampled_from(FACT_POOL),
    st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
    min_size=1,
    max_size=len(FACT_POOL),
)


def boolean_query(text):
    return BooleanQuery(parse_formula(text, schema), schema)


@pytest.mark.parametrize("rescore", RESCORE_LEGS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestBatchedMatchesBDD:
    @given(marginals=marginal_maps)
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_differential(self, shape, rescore, marginals):
        query = boolean_query(SHAPES[shape])
        table = TupleIndependentTable(schema, marginals)
        batched = query_probability_lifted(
            query, table, plan_cache=CompileCache())
        bdd = float(query_probability(
            query, table, strategy="bdd", compile_cache=CompileCache()))
        assert batched == pytest.approx(bdd, abs=1e-12)


@pytest.mark.parametrize("backend", BACKENDS)
class TestDeltaReuseIsExact:
    @given(
        marginals=marginal_maps,
        deltas=st.lists(marginal_maps, min_size=1, max_size=4),
    )
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_grown_table_matches_fresh_evaluation(
        self, backend, marginals, deltas
    ):
        """Re-running after each of several append-only extensions (the
        binding-table delta path, and the bound segments' resumed folds)
        is bit-identical to a cold evaluation of the grown table."""
        query = boolean_query(SHAPES["chain"])
        table = TupleIndependentTable(schema, marginals)
        cache = CompileCache()
        query_probability_lifted(query, table, plan_cache=cache)
        for delta in deltas:
            table.extend({
                fact: p for fact, p in delta.items()
                if fact not in table.marginals
            })
            warm = query_probability_lifted(
                query, table, plan_cache=cache)
            cold = query_probability_lifted(
                query, table, plan_cache=CompileCache())
            assert warm == cold


class TestRefinementSweepDeltaParity:
    SWEEP = [0.2, 0.05, 0.01]

    def make_pdb(self):
        space = FactSpace(Schema.of(R=1), Naturals())
        return CountableTIPDB(
            space.schema,
            GeometricFactDistribution(space, first=0.3, ratio=0.9))

    def test_mid_sweep_deltas_match_cold_sessions(self):
        """Each step of an ε-sweep (running the batched executor's
        delta path on all but the first step) equals a cold session
        refined straight to that ε — bit-for-bit — and the warm steps
        actually reuse cached separator groups."""
        pdb = self.make_pdb()
        query = BooleanQuery(
            parse_formula("EXISTS x. R(x)", pdb.schema), pdb.schema)
        session = RefinementSession(
            query, pdb, strategy="auto", compile_cache=CompileCache())
        with obs.trace() as t:
            swept = {
                eps: r.value
                for eps, r in session.sweep(self.SWEEP).items()
            }
        assert t.counters.get("lifted.cached_groups", 0) > 0
        assert t.counters.get("lifted.vectorized_nodes", 0) > 0
        for eps, value in swept.items():
            cold = RefinementSession(
                query, self.make_pdb(), strategy="auto",
                compile_cache=CompileCache())
            assert cold.refine(eps).value == value
