"""Compiled answers are bit-identical between a sweep and a cold one-shot.

A refinement promises exactly what a cold one-shot call at the same ε
returns.  On the compiled (BDD) paths that holds because every manager
orders its variables by the table's insertion order — the enumeration
order of the truncation, which a tightening step only appends to — so a
diagram grown along a sweep and one compiled cold see the same order.
Each test below checks a sweep against cold one-shots bit for bit.
"""

import pickle

import pytest

from repro.core.approx import (
    approximate_answer_marginals,
    approximate_query_probability,
)
from repro.core.fact_distribution import (
    GeometricFactDistribution,
    TableFactDistribution,
)
from repro.core.refine import RefinementSession
from repro.core.tuple_independent import CountableTIPDB
from repro.finite.compile_cache import DEFAULT_COMPILE_CACHE, CompileCache
from repro.finite.evaluation import query_probability
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic import BooleanQuery, Query, parse_formula
from repro.relational import Schema
from repro.universe import FactSpace, Naturals

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]
H0 = "EXISTS x, y. R(x) AND S(x, y) AND T(y)"
TWIN = "EXISTS z. R(x) AND R(y) AND R(z) AND S(x, z)"


def h0():
    return BooleanQuery(parse_formula(H0, schema), schema)


def geometric_pdb(first=0.3, ratio=0.95):
    return CountableTIPDB(schema, GeometricFactDistribution(
        FactSpace(schema, Naturals()), first=first, ratio=ratio))


def cold_one_shot(query, pdb, epsilon, strategy):
    """A one-shot call as from a fresh process: no diagram of a sweep's
    in the process-wide cache."""
    DEFAULT_COMPILE_CACHE.clear()
    return approximate_query_probability(
        query, pdb, epsilon, strategy=strategy)


@pytest.fixture(autouse=True)
def _clean_default_cache():
    DEFAULT_COMPILE_CACHE.clear()
    yield
    DEFAULT_COMPILE_CACHE.clear()


@pytest.mark.parametrize("strategy", ["auto", "bdd"])
def test_h0_sweep_matches_a_cold_one_shot(strategy):
    """The unsafe H0 query goes to the BDD under ``auto`` as well.  At
    ε = 0.05 the union-bound rule keeps 94 facts (6·0.95^94 ≤ 0.05)."""
    session = RefinementSession(h0(), geometric_pdb(), strategy=strategy)
    session.refine(0.3)
    swept = session.refine(0.05)
    cold = cold_one_shot(h0(), geometric_pdb(), 0.05, strategy)
    assert swept.report.strategy == cold.report.strategy == "bdd"
    assert swept.truncation == cold.truncation == 94
    assert swept.value == cold.value
    assert (swept.tail, swept.low, swept.high) == (
        cold.tail, cold.low, cold.high)


def test_answer_marginal_twin_sweep_matches_cold_one_shots():
    """The compiled fan-out chains one warm shared grounding across the
    sweep; every step equals a cold one-shot answer for answer."""
    def twin():
        return (Query(parse_formula(TWIN, schema), schema),
                geometric_pdb(ratio=0.9))

    session = RefinementSession(*twin(), strategy="bdd")
    for epsilon in (0.3, 0.1, 0.05):
        swept = session.refine_marginals(epsilon)
        DEFAULT_COMPILE_CACHE.clear()
        cold = approximate_answer_marginals(*twin(), epsilon, strategy="bdd")
        assert swept, epsilon
        assert [(a, r.value, r.truncation) for a, r in swept.items()] == [
            (a, r.value, r.truncation) for a, r in cold.items()]


def test_a_fact_joining_the_lineage_late_keeps_its_table_position():
    """T(2) is in the table from the first step, but H0's lineage only
    reaches it once S(1, 2) arrives in the second.  The variable order
    is the table's insertion order, so T(2) keeps its table position."""
    marginals = {
        R(1): 0.9, S(1, 1): 0.85, T(1): 0.8, T(2): 0.75, R(2): 0.7,
        S(2, 1): 0.65, R(3): 0.6, T(3): 0.55,
        S(1, 2): 0.2, S(3, 2): 0.1, S(2, 3): 0.08, S(3, 3): 0.04,
    }

    def pdb():
        return CountableTIPDB(schema, TableFactDistribution(marginals))

    cache = CompileCache()
    session = RefinementSession(h0(), pdb(), compile_cache=cache)
    first = session.refine(0.45)
    assert first.truncation == 8  # T(2) in, S(1, 2) not yet
    second = session.refine(0.05)
    assert second.truncation == 11
    order = list(session._table.marginals)
    assert order.index(T(2)) == 3
    # The diagram of the swept table tests its facts in table order.
    compiled = cache.compiled(h0().formula, session._table)
    assert compiled.manager.order[: len(order)] == order
    cold = cold_one_shot(h0(), pdb(), 0.05, "auto")
    assert second.value == cold.value


# Rounded from random.Random(0) draws: these marginals give different
# last bits under the two insertion orders below.
CONFLICT = [
    (R(1), 0.81), (R(2), 0.732), (R(3), 0.429), (S(1, 1), 0.283),
    (S(1, 2), 0.51), (S(2, 1), 0.414), (S(2, 3), 0.755), (S(3, 2), 0.323),
    (T(1), 0.479), (T(2), 0.575), (T(3), 0.867),
]


def test_conflicting_insertion_orders_share_the_default_cache():
    """Two tables over the same facts in different insertion orders
    compile different diagrams; sharing the process-wide cache must not
    hand one table the other's."""
    forward = TupleIndependentTable(schema, dict(CONFLICT))
    backward = TupleIndependentTable(schema, dict(reversed(CONFLICT)))
    cold = [
        query_probability(h0(), table, strategy="bdd",
                          compile_cache=CompileCache())
        for table in (forward, backward)
    ]
    assert cold[0] != cold[1]  # the orders really do differ in the bits
    shared = [
        query_probability(h0(), table, strategy="bdd")
        for table in (forward, backward, forward, backward)
    ]
    assert shared == cold + cold
    assert DEFAULT_COMPILE_CACHE.stats.hits == 2
    # Growing one of them in place still matches its own cold compile.
    forward.extend({S(3, 3): 0.25, T(4): 0.5, S(3, 4): 0.125})
    grown = query_probability(h0(), forward, strategy="bdd")
    assert grown == query_probability(
        h0(), forward, strategy="bdd", compile_cache=CompileCache())


def test_a_snapshot_taken_mid_sweep_resumes_bit_for_bit():
    """A pickled session carries its table, its compile cache and the
    managers' variable orders; the restored session's later steps equal
    cold one-shots and the unpickled original's."""
    def pdb():
        return geometric_pdb(ratio=0.9)

    session = RefinementSession(h0(), pdb(), compile_cache=CompileCache())
    session.refine(0.3)
    restored = pickle.loads(pickle.dumps(session))
    for epsilon in (0.1, 0.05):
        resumed = restored.refine(epsilon)
        original = session.refine(epsilon)
        cold = cold_one_shot(h0(), pdb(), epsilon, "auto")
        assert resumed.truncation == original.truncation == cold.truncation
        assert resumed.value == original.value == cold.value
