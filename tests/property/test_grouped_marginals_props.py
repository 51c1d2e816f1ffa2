"""Hypothesis differential properties for grouped answer marginals.

A safe free-variable UCQ on a TI table gets every answer's marginal from
one grouped lifted pass over its head-bound plan
(:func:`repro.finite.lifted.answer_marginals_lifted`).  Over random
tables and random UCQs of arity 1 and 2 — joins, unions,
inclusion–exclusion, constants — that pass must agree with the per-answer
oracle (one :func:`query_probability` per grounded tuple):

* the same answers in the same ``itertools.product`` order, values
  within 1e-12, and equal bits on dyadic marginals;
* the same bits whichever answers share a pass (any partition of the
  answer list);
* the same bits from a warm ε-sweep as from cold one-shot calls, for
  the grouped pass and for compiled (``"bdd"``) fan-outs;
* through colliding answers (head values equal to query constants,
  repeated head values), disjuncts that omit a head variable, explicit
  ``domain=``, and empty candidate sets;

on both columnar backends.  Queries without a head-bound plan take the
per-answer route and must still match the oracle.
"""

import itertools
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import repro.utils.probability as probability_module
from repro.core.fact_distribution import GeometricFactDistribution
from repro.core.refine import RefinementSession
from repro.core.tuple_independent import CountableTIPDB
from repro.errors import UnsafeQueryError
from repro.finite import TupleIndependentTable
from repro.finite.compile_cache import CompileCache
from repro.finite.evaluation import (
    _candidate_values,
    marginal_answer_probabilities,
    query_probability,
)
from repro.finite.lifted import answer_marginals_lifted
from repro.logic import BooleanQuery, Query, parse_formula
from repro.logic.analysis import free_variables
from repro.logic.hierarchy import safe_plan_ucq
from repro.logic.normalform import ConjunctiveQuery, extract_ucq, substitute
from repro.logic.syntax import Atom, Constant, Or, Variable
from repro.relational import Schema
from repro.relational.columns import available_backends
from repro.universe import FactSpace, Naturals

BACKENDS = available_backends()

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]
x, y, z, w = (Variable(name) for name in "xyzw")
HEADS = {1: (x,), 2: (x, y)}

#: Values 1–3: the constants 1 and 2 collide with answer values.
FACT_POOL = (
    [R(i) for i in (1, 2, 3)]
    + [S(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    + [T(i) for i in (1, 2, 3)]
)
DYADIC = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)

float_maps = st.dictionaries(
    st.sampled_from(FACT_POOL),
    st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
    max_size=len(FACT_POOL),
)
dyadic_maps = st.dictionaries(
    st.sampled_from(FACT_POOL), st.sampled_from(DYADIC),
    max_size=len(FACT_POOL),
)


def _atoms(terms):
    return st.one_of(
        st.builds(lambda t: Atom(R, (t,)), terms),
        st.builds(lambda a, b: Atom(S, (a, b)), terms, terms),
        st.builds(lambda t: Atom(T, (t,)), terms),
    )


@st.composite
def free_queries(draw, arity):
    """A UCQ formula whose free variables are exactly the head: the
    first disjunct opens with atoms over the head variables, every
    other atom draws from head, existential and constant terms — so
    other disjuncts may omit a head variable."""
    head = HEADS[arity]
    terms = st.sampled_from(list(head) + [z, w, Constant(1), Constant(2)])
    opening = [draw(_atoms(st.just(variable))) for variable in head]
    first = opening + draw(st.lists(_atoms(terms), max_size=2))
    rest = draw(st.lists(
        st.lists(_atoms(terms), min_size=1, max_size=3), max_size=2))
    formula = None
    for atoms in [first] + rest:
        cq = ConjunctiveQuery(atoms, head_variables=head).to_formula()
        formula = cq if formula is None else Or(formula, cq)
    assert free_variables(formula) == set(head)
    return Query(formula, schema, variables=head)


@contextmanager
def forced_backend(backend):
    """Pin the columnar backend by patching the process-wide numpy
    probe; tables and caches built inside resolve to ``backend``."""
    if backend == "numpy":
        yield
        return
    saved = probability_module._numpy_probe
    probability_module._numpy_probe = None
    try:
        yield
    finally:
        probability_module._numpy_probe = saved


def has_head_bound_plan(query):
    ucq = extract_ucq(query.formula)
    try:
        return ucq is not None and safe_plan_ucq(ucq) is not None
    except UnsafeQueryError:
        return False


def per_answer(query, table, domain=None):
    """The oracle: one Boolean ``query_probability`` per candidate
    tuple, positive answers in product order."""
    candidates = _candidate_values(query, table, domain)
    results = {}
    for answer in itertools.product(candidates, repeat=query.arity):
        grounded = substitute(query.formula, dict(zip(query.variables, answer)))
        value = query_probability(BooleanQuery(grounded, schema), table)
        if value > 0:
            results[answer] = float(value)
    return results


def assert_matches_oracle(got, want, exact=False):
    assert list(got) == list(want)  # same answers, same order
    for answer, value in want.items():
        if exact:
            assert got[answer] == value, answer
        else:
            assert got[answer] == pytest.approx(value, abs=1e-12), answer


SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("arity", [1, 2])
class TestGroupedMatchesPerAnswer:
    @given(data=st.data(), marginals=float_maps)
    @settings(max_examples=60, **SETTINGS)
    def test_differential(self, backend, arity, data, marginals):
        query = data.draw(free_queries(arity))
        with forced_backend(backend):
            table = TupleIndependentTable(schema, marginals)
            got = marginal_answer_probabilities(
                query, table, compile_cache=CompileCache())
            want = per_answer(query, table)
        if has_head_bound_plan(query) and _candidate_values(
                query, table, None):
            assert got.report.strategy == "lifted"
            assert got.report.counters.get("lifted.plans") == 1
        assert_matches_oracle(got, want)

    @given(data=st.data(), marginals=dyadic_maps)
    @settings(max_examples=40, **SETTINGS)
    def test_dyadic_marginals_are_bit_exact(
        self, backend, arity, data, marginals
    ):
        query = data.draw(free_queries(arity))
        with forced_backend(backend):
            table = TupleIndependentTable(schema, marginals)
            got = marginal_answer_probabilities(
                query, table, compile_cache=CompileCache())
            want = per_answer(query, table)
        assert_matches_oracle(got, want, exact=True)

    @given(data=st.data(), marginals=float_maps)
    @settings(max_examples=40, **SETTINGS)
    def test_any_partition_gives_the_same_bits(
        self, backend, arity, data, marginals
    ):
        """An answer's value does not depend on which answers share its
        pass — what lets pool workers evaluate contiguous chunks."""
        query = data.draw(free_queries(arity))
        with forced_backend(backend):
            table = TupleIndependentTable(schema, marginals)
            answers = list(itertools.product(
                _candidate_values(query, table, None), repeat=arity))
            whole = answer_marginals_lifted(
                query, table, answers, plan_cache=CompileCache())
            if whole is None:
                return  # no head-bound plan: nothing grouped to split
            cuts = sorted(data.draw(st.lists(
                st.integers(0, len(answers)), max_size=4)))
            merged = {}
            for start, stop in zip([0] + cuts, cuts + [len(answers)]):
                merged.update(answer_marginals_lifted(
                    query, table, answers[start:stop],
                    plan_cache=CompileCache()))
        assert list(merged.items()) == list(whole.items())

    @given(data=st.data(), marginals=float_maps)
    @settings(max_examples=30, **SETTINGS)
    def test_explicit_domain_restricts_candidates(
        self, backend, arity, data, marginals
    ):
        query = data.draw(free_queries(arity))
        domain = data.draw(st.sets(st.integers(0, 4), max_size=4))
        with forced_backend(backend):
            table = TupleIndependentTable(schema, marginals)
            got = marginal_answer_probabilities(
                query, table, domain=domain, compile_cache=CompileCache())
            want = per_answer(query, table, domain)
        assert all(set(answer) <= domain for answer in got)
        assert_matches_oracle(got, want)


@pytest.mark.parametrize("backend", BACKENDS)
class TestSweepsMatchColdOneShots:
    SWEEP = [0.2, 0.1, 0.05]

    @given(
        data=st.data(),
        first=st.floats(min_value=0.2, max_value=0.6),
        ratio=st.floats(min_value=0.5, max_value=0.85),
    )
    @settings(max_examples=15, **SETTINGS)
    def test_sweep_steps_equal_cold_one_shots(
        self, backend, data, first, ratio
    ):
        query = data.draw(st.sampled_from([1, 2]).flatmap(free_queries))
        # The grouped pass; compiled fan-outs have their own test below.
        assume(has_head_bound_plan(query))
        self._sweep(backend, query, first, ratio, "auto")

    @given(
        data=st.data(),
        first=st.floats(min_value=0.2, max_value=0.6),
        ratio=st.floats(min_value=0.5, max_value=0.85),
    )
    @settings(max_examples=15, **SETTINGS)
    def test_compiled_sweep_steps_equal_cold_one_shots(
        self, backend, data, first, ratio
    ):
        """``strategy="bdd"``: the warm shared grounding's diagrams order
        their variables by the truncation's insertion order, so they
        carry the bits of a cold compile."""
        query = data.draw(st.sampled_from([1, 2]).flatmap(free_queries))
        self._sweep(backend, query, first, ratio, "bdd")

    def _sweep(self, backend, query, first, ratio, strategy):
        space = FactSpace(schema, Naturals())

        def pdb():
            return CountableTIPDB(schema, GeometricFactDistribution(
                space, first=first, ratio=ratio))

        with forced_backend(backend):
            session = RefinementSession(
                query, pdb(), strategy=strategy, compile_cache=CompileCache())
            for epsilon in self.SWEEP:
                warm = session.refine_marginals(epsilon)
                cold = RefinementSession(
                    query, pdb(), strategy=strategy,
                    compile_cache=CompileCache(),
                ).refine_marginals(epsilon)
                assert [(a, r.value, r.truncation) for a, r in warm.items()] \
                    == [(a, r.value, r.truncation) for a, r in cold.items()]


# ------------------------------------------------------- pinned edge cases
COLLIDING = {
    # head value 1 equals the query constant
    "R(x) AND S(x, 1)": (x,),
    "S(x, 1) OR S(x, 2)": (x,),
    "EXISTS z. S(1, z) AND R(x)": (x,),
    # repeated head values: the product visits (a, a)
    "S(x, y)": (x, y),
    "S(x, y) AND R(x) AND T(y)": (x, y),
    # a disjunct without the head variable keeps every candidate
    "R(x) OR EXISTS z. T(z)": (x,),
    "(R(x) AND T(y)) OR EXISTS z. S(z, z)": (x, y),
    # inclusion–exclusion under a bound head
    "(R(x) AND EXISTS z. S(x, z)) OR (R(x) AND T(x))": (x,),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("text", sorted(COLLIDING))
def test_colliding_answers_match_per_answer(backend, text):
    query = Query(parse_formula(text, schema), schema, variables=COLLIDING[text])
    assert has_head_bound_plan(query)
    marginals = {fact: 0.05 + 0.9 * i / len(FACT_POOL)
                 for i, fact in enumerate(FACT_POOL)}
    with forced_backend(backend):
        table = TupleIndependentTable(schema, marginals)
        got = marginal_answer_probabilities(
            query, table, compile_cache=CompileCache())
        want = per_answer(query, table)
    assert got.report.strategy == "lifted"
    assert got.report.counters["fanout.answers"] == 3 ** query.arity
    assert_matches_oracle(got, want)


@pytest.mark.parametrize("text", ["R(x)", "S(x, y)", "R(x) OR T(x)"])
def test_no_candidates_gives_no_answers(text):
    query = Query(parse_formula(text, schema), schema)
    empty = TupleIndependentTable(schema, {})
    assert marginal_answer_probabilities(query, empty) == {}
    assert marginal_answer_probabilities(
        query, TupleIndependentTable(schema, {R(1): 0.5}), domain=()) == {}


@pytest.mark.parametrize("text", [
    "R(x) AND R(y)",                     # components share a slice
    "EXISTS z. S(x, z) AND S(y, z)",     # bound leaves may alias
    "R(x) OR R(1)",                      # overlapping constant patterns
])
def test_queries_without_head_bound_plan_keep_per_answer_routing(text):
    query = Query(parse_formula(text, schema), schema)
    assert not has_head_bound_plan(query)
    table = TupleIndependentTable(
        schema, {fact: 0.5 for fact in FACT_POOL})
    got = marginal_answer_probabilities(query, table)
    assert_matches_oracle(got, per_answer(query, table), exact=True)
