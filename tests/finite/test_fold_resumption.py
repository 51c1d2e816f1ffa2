"""Bound lifted segments resume their folds across tightening steps.

A project over a single leaf whose bucket key an enclosing separator
binds folds its segment in the table's order, which the family's fact
index interns in.  A tightening step only appends, so the family keeps
each segment's clean fold state ``(epoch, product, zero)`` and the next
step multiplies just the segment's new rows onto the product.  The
cases check:

* sweeps equal a cold evaluation bit for bit, resume folds, and do no
  more fold work than their new rows plus the segments they fold in
  full;
* a tiny marginal, an underflowing product and a marginal of 1.0 still
  give the cold bits, the first two through a counted re-fold;
* two insertion orders of one fact set each get their own cold bits;
* ``evaluate_plan`` folds in the table's order too.
"""

import random

import pytest

from repro import obs
from repro.core.fact_distribution import GeometricFactDistribution
from repro.core.refine import RefinementSession
from repro.core.tuple_independent import CountableTIPDB
from repro.finite import TupleIndependentTable
from repro.finite.compile_cache import CompileCache
from repro.finite.lifted import evaluate_plan, query_probability_lifted
from repro.logic import BooleanQuery, parse_formula
from repro.relational import Schema
from repro.relational.columns import FloatColumn
from repro.universe import FactSpace, Naturals

SCHEMA = Schema.of(R=1, S=2, V=2)
R, S, V = (SCHEMA[name] for name in ("R", "S", "V"))

CHAIN = "EXISTS x, y. R(x) AND S(x, y)"
STAR = "EXISTS x, y, z. R(x) AND S(x, y) AND V(x, z)"
#: Plan leaves, one row each per fresh root value or new fact.
LEAVES = {CHAIN: 2, STAR: 3}

#: Columns and folds run on plain Python lists only; the one-value
#: parameter keeps each case's ``[python]`` test id.
pytestmark = pytest.mark.parametrize("backend", ["python"])


@pytest.fixture
def full_fold_rows(monkeypatch):
    """Rows each full segmented fold reads, one list entry per call."""
    calls = []
    original = FloatColumn.segmented_disjunction

    def recording(self, rows, offsets):
        calls.append(len(rows))
        return original(self, rows, offsets)

    monkeypatch.setattr(FloatColumn, "segmented_disjunction", recording)
    return calls


def query(text):
    return BooleanQuery(parse_formula(text, SCHEMA), SCHEMA)


def geometric_pdb():
    space = FactSpace(SCHEMA, Naturals())
    return CountableTIPDB(
        SCHEMA, GeometricFactDistribution(space, first=0.3, ratio=0.97))


def cold(q, table):
    """A fresh cache over a fresh copy of the table, so over a fresh
    index too."""
    copy = TupleIndependentTable(table.schema, dict(table.marginals))
    return query_probability_lifted(q, copy, plan_cache=CompileCache())


def run(q, table, cache):
    """One warm evaluation and its counters."""
    with obs.trace() as t:
        value = query_probability_lifted(q, table, plan_cache=cache)
    return value, t.counters


class TestSweeps:
    @pytest.mark.parametrize("text", [CHAIN, STAR], ids=["chain", "star"])
    def test_each_step_is_cold_and_folds_only_new_rows(
            self, backend, text, full_fold_rows):
        q = query(text)
        pdb = geometric_pdb()
        cache = CompileCache()
        resumed = 0
        table = pdb.truncate(40)
        run(q, table, cache)
        for n in (60, 61, 90, 120, 121, 160, 200, 260):
            new = n - pdb.extend_truncation(table, n)
            full_fold_rows.clear()
            value, counters = run(q, table, cache)
            assert value == cold(q, table)
            assert counters.get("lifted.group_rows", 0) <= (
                LEAVES[text] * new + sum(full_fold_rows))
            resumed += counters.get("lifted.folds_resumed", 0)
        assert resumed > 0

    def test_session_sweep_matches_cold_sessions(self, backend):
        q = query(CHAIN)
        epsilons = [0.2, 0.1, 0.05, 0.03, 0.02]
        session = RefinementSession(
            q, geometric_pdb(), strategy="auto",
            compile_cache=CompileCache())
        with obs.trace() as t:
            swept = {
                eps: result.value
                for eps, result in session.sweep(epsilons).items()
            }
        for eps, value in swept.items():
            fresh = RefinementSession(
                q, geometric_pdb(), strategy="auto",
                compile_cache=CompileCache())
            assert fresh.refine(eps).value == value
        assert t.counters.get("lifted.folds_resumed", 0) > 0

    def test_a_resumed_segment_folds_its_new_row_only(self, backend):
        q = query(CHAIN)
        marginals = {R(1): 0.5, R(2): 0.25}
        marginals.update({S(1, j): 0.01 * (j % 7 + 1) for j in range(100)})
        marginals.update({S(2, j): 0.02 for j in range(10)})
        cache = CompileCache()
        table = TupleIndependentTable(SCHEMA, marginals)
        run(q, table, cache)
        table.extend({S(1, 100): 0.3})
        value, counters = run(q, table, cache)
        assert value == cold(q, table)
        # One fresh root value read by the R leaf, one new S row folded.
        assert counters["lifted.group_rows"] == 2
        assert counters["lifted.folds_resumed"] == 1
        assert counters.get("lifted.folds_refolded", 0) == 0


class TestFallbacks:
    def step(self, backend, gained):
        """A chain whose segment for x = 1 gains ``gained`` facts after
        a first run; returns the second run's value and counters."""
        q = query(CHAIN)
        marginals = {R(1): 0.5, R(2): 0.25}
        marginals.update({S(1, j): 0.3 for j in range(10)})
        marginals.update({S(2, j): 0.2 for j in range(5)})
        cache = CompileCache()
        table = TupleIndependentTable(SCHEMA, marginals)
        run(q, table, cache)
        table.extend(gained)
        value, counters = run(q, table, cache)
        assert value == cold(q, table)
        # The next step re-folds a segment whose state is unclean
        # and resumes a clean one; both keep the cold bits.
        table.extend({S(1, 1000): 0.4})
        again, _ = run(q, table, cache)
        assert again == cold(q, table)
        return value, counters

    def test_tiny_marginal_refolds(self, backend):
        _, counters = self.step(backend, {S(1, 500): 1e-20})
        assert counters["lifted.folds_refolded"] == 1
        assert counters.get("lifted.folds_resumed", 0) == 0

    def test_underflowing_product_refolds(self, backend):
        _, counters = self.step(
            backend, {S(1, 500 + j): 0.9 for j in range(400)})
        assert counters["lifted.folds_refolded"] == 1
        assert counters.get("lifted.folds_resumed", 0) == 0

    def test_certain_fact_saturates_the_segment(self, backend):
        _, counters = self.step(backend, {S(1, 500): 1.0})
        assert counters["lifted.folds_resumed"] == 1


class TestConflictingOrders:
    def test_each_order_gets_its_own_cold_bits(self, backend):
        q = query(STAR)
        rng = random.Random(5)
        facts = [R(i) for i in range(6)]
        facts += [S(i, j) for i in range(6) for j in range(8)]
        facts += [V(i, j) for i in range(6) for j in range(3)]
        marginals = {fact: rng.uniform(0.01, 0.2) for fact in facts}
        shuffled = list(facts)
        rng.shuffle(shuffled)
        cache = CompileCache()
        first = TupleIndependentTable(SCHEMA, marginals)
        second = TupleIndependentTable(
            SCHEMA, {fact: marginals[fact] for fact in shuffled})
        for table in (first, second, first, second):
            value, _ = run(q, table, cache)
            assert value == cold(q, table)


class TestEvaluatePlan:
    @pytest.mark.parametrize("text", [CHAIN, STAR], ids=["chain", "star"])
    def test_follows_the_tables_order(self, backend, text):
        q = query(text)
        rng = random.Random(11)
        facts = [R(i) for i in range(8)]
        facts += [S(i, j) for i in range(8) for j in range(6)]
        facts += [V(i, j) for i in range(8) for j in range(4)]
        rng.shuffle(facts)
        cache = CompileCache()
        table = TupleIndependentTable(
            SCHEMA, {fact: rng.uniform(0.01, 0.3) for fact in facts})
        plan, _ = cache.lifted(q.formula, table)
        lifted = query_probability_lifted(q, table, plan_cache=cache)
        assert evaluate_plan(plan, table) == lifted
