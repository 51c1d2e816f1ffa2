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
  ``domain=``, and empty candidate sets.

Queries without a head-bound plan take the per-answer route and must
still match the oracle.

The fan-out scores only the support rows: the product of each head
variable's values in a semi-join over the plan
(:func:`repro.finite.lifted.answer_marginals_on_support`).  Those rows
give the full product's dict bit for bit, entry order included;
``fanout.answers`` counts the rows, equal to the product of support
sizes a scan of the facts finds, and ``grounding.pruned_answers`` the
rest.  The pass resumes bound segments' folds across a sweep, so warm
steps — through tiny and underflowing marginals that force a re-fold —
must still give a cold call's bits.
"""

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.fact_distribution import GeometricFactDistribution
from repro.core.refine import RefinementSession
from repro.core.tuple_independent import CountableTIPDB
from repro.errors import UnsafeQueryError
from repro.finite import TupleIndependentTable
from repro.finite.compile_cache import CompileCache
from repro.finite.evaluation import (
    _candidate_set,
    _candidate_values,
    marginal_answer_probabilities,
    query_probability,
)
from repro.finite.lifted import (
    answer_marginals_lifted,
    answer_marginals_on_support,
)
from repro.logic import BooleanQuery, Query, parse_formula
from repro.logic.analysis import free_variables
from repro.logic.hierarchy import (
    FactLeaf,
    InclusionExclusion,
    IndependentJoin,
    IndependentProject,
    safe_plan_ucq,
)
from repro.logic.normalform import ConjunctiveQuery, extract_ucq, substitute
from repro.logic.syntax import Atom, Constant, Or, Variable
from repro.relational import Schema
from repro.relational.facts import domain_sort_key
from repro.universe import FactSpace, Naturals

#: Columns and folds run on plain Python lists only; the one-value
#: parameter keeps each case's ``[python]`` test id.
BACKENDS = ("python",)

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
        table = TupleIndependentTable(schema, marginals)
        got = marginal_answer_probabilities(
            query, table, domain=domain, compile_cache=CompileCache())
        want = per_answer(query, table, domain)
        assert all(set(answer) <= domain for answer in got)
        assert_matches_oracle(got, want)


def scanned_supports(plan, facts, head):
    """Per head variable ``plan`` restricts, the values it may take in
    an answer whose value at ``plan`` is not 0 — the semi-join of the
    grouped pass, found by scanning every fact instead of reading
    signature-table keys."""
    if isinstance(plan, FactLeaf):
        atom = plan.atom
        variables = {term for term in atom.terms if term in head}
        found = {variable: set() for variable in variables}
        for fact in facts:
            if fact.relation != atom.relation:
                continue
            binding = {}
            if all(
                term.value == value if isinstance(term, Constant)
                else term not in head
                or binding.setdefault(term, value) == value
                for term, value in zip(atom.terms, fact.args)
            ):
                for variable in variables:
                    found[variable].add(binding[variable])
        return found
    if isinstance(plan, IndependentProject):
        return scanned_supports(plan.child, facts, head)
    if isinstance(plan, IndependentJoin):
        supports = {}
        for child in plan.children:
            for variable, values in scanned_supports(
                    child, facts, head).items():
                supports[variable] = supports.get(variable, values) & values
        return supports
    operands = (
        [term for _, term in plan.terms]
        if isinstance(plan, InclusionExclusion) else plan.children)
    each = [scanned_supports(child, facts, head) for child in operands]
    return {
        variable: set().union(*(supports[variable] for supports in each))
        for variable in head if all(variable in s for s in each)
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("arity", [1, 2])
class TestSupportRows:
    @given(data=st.data(), marginals=float_maps)
    @settings(max_examples=60, **SETTINGS)
    def test_support_rows_give_the_full_products_dict(
        self, backend, arity, data, marginals
    ):
        query = data.draw(free_queries(arity))
        domain = data.draw(
            st.none() | st.sets(st.integers(0, 4), max_size=4))
        table = TupleIndependentTable(schema, marginals)
        candidates = _candidate_set(query, table, domain)
        full = answer_marginals_lifted(
            query, table,
            itertools.product(
                sorted(candidates, key=domain_sort_key), repeat=arity),
            plan_cache=CompileCache())
        support = answer_marginals_on_support(
            query, table, candidates, plan_cache=CompileCache())
        assert (support is None) == (full is None)
        if full is not None:
            assert list(support.items()) == list(full.items())

    @given(data=st.data(), marginals=float_maps)
    @settings(max_examples=60, **SETTINGS)
    def test_rows_are_the_product_of_support_sizes(
        self, backend, arity, data, marginals
    ):
        query = data.draw(free_queries(arity))
        domain = data.draw(
            st.none() | st.sets(st.integers(0, 4), max_size=4))
        table = TupleIndependentTable(schema, marginals)
        candidates = _candidate_set(query, table, domain)
        if not (candidates and has_head_bound_plan(query)):
            return  # no grouped pass to count
        cache = CompileCache()
        got = marginal_answer_probabilities(
            query, table, domain=domain, compile_cache=cache)
        plan, _ = cache.lifted(query.formula, table)
        supports = scanned_supports(
            plan, list(table.marginals), set(query.variables))
        rows = 1
        for variable in query.variables:
            rows *= len(supports.get(variable, candidates) & candidates)
        counters = got.report.counters
        assert got.report.strategy == "lifted"
        assert counters.get("fanout.answers", 0) == rows
        assert counters.get("grounding.pruned_answers", 0) == (
            len(candidates) ** arity - rows)
        assert all(
            answer[i] in supports.get(variable, candidates)
            for answer in got for i, variable in enumerate(query.variables))


#: A bigger pool for in-place growth: 40 facts a bucket, so marginals
#: of ``1 − 2⁻⁵³`` can push a bound segment's product under the
#: underflow floor, and ``1e-20`` / ``5e-17`` sit under the tiny
#: threshold — both end a resumed fold and force a re-fold.
GROWTH_POOL = (
    [R(i) for i in (1, 2, 3)]
    + [S(i, j) for i in (1, 2, 3) for j in range(40)]
    + [T(i) for i in (1, 2, 3)]
)
NEAR_ONE = 1.0 - 2.0**-53
growth_marginals = st.sampled_from(
    [NEAR_ONE] * 4 + [1e-20, 5e-17, 1.0, 0.5, 0.25])


@pytest.mark.parametrize("backend", BACKENDS)
class TestResumedAnswerFolds:
    @given(
        data=st.data(),
        marginals=st.lists(
            growth_marginals, min_size=len(GROWTH_POOL),
            max_size=len(GROWTH_POOL)),
    )
    @settings(max_examples=25, **SETTINGS)
    def test_warm_steps_equal_cold_calls(self, backend, data, marginals):
        """A table grown in place, scored after each step through one
        warm cache, against a fresh copy and cache per step."""
        query = data.draw(st.sampled_from([1, 2]).flatmap(free_queries))
        if not has_head_bound_plan(query):
            return  # per-answer route: no fold state kept
        order = data.draw(st.permutations(range(len(GROWTH_POOL))))
        facts = [(GROWTH_POOL[i], marginals[i]) for i in order]
        cuts = sorted(data.draw(st.lists(
            st.integers(1, len(facts)), min_size=2, max_size=4)))
        self._grow(backend, query, facts, cuts)

    @pytest.mark.parametrize("gained", [
        {S(1, 39): 1e-20},
        {S(2, j): NEAR_ONE for j in range(20, 40)},
    ], ids=["tiny", "underflow"])
    def test_a_step_that_leaves_the_clean_regime_refolds(
        self, backend, gained
    ):
        query = Query(
            parse_formula("EXISTS y. R(x) AND S(x, y)", schema), schema)
        facts = [(R(i), 0.5) for i in (1, 2, 3)]
        facts += [(S(i, j), 0.25) for i in (1, 2, 3) for j in range(20)]
        facts += [(S(3, 20), 0.5)] + list(gained.items())
        counters = self._grow(
            backend, query, facts, [len(facts) - len(gained) - 1,
                                    len(facts) - len(gained)])
        # The last step re-folds the segment that gained the facts and
        # resumes the other two.
        assert counters.get("lifted.folds_refolded", 0) == 1
        assert counters.get("lifted.folds_resumed", 0) == 2

    @staticmethod
    def _grow(backend, query, facts, cuts):
        """Score the prefixes ``facts[:cut]``, then all of ``facts``,
        warm on one table grown in place and cold on fresh copies;
        the last warm step's counters."""
        cache = CompileCache()
        table = TupleIndependentTable(schema, dict(facts[:cuts[0]]))
        start = cuts[0]
        for stop in cuts + [len(facts)]:
            table.extend(dict(facts[start:stop]))
            start = max(start, stop)
            warm = marginal_answer_probabilities(
                query, table, compile_cache=cache)
            cold = marginal_answer_probabilities(
                query, TupleIndependentTable(schema, dict(facts[:stop])),
                compile_cache=CompileCache())
            assert list(warm.items()) == list(cold.items())
        return warm.report.counters


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


@pytest.mark.parametrize("backend", BACKENDS)
def test_rows_outside_the_support_are_not_scored(backend):
    """The active domain {1, 2, 3, 4} is larger than R's values {1, 2}:
    two rows are scored and two pruned."""
    query = Query(parse_formula("R(x)", schema), schema)
    table = TupleIndependentTable(schema, {
        R(1): 0.5, R(2): 0.25, S(1, 2): 0.8, S(2, 1): 0.4, S(3, 4): 0.3})
    got = marginal_answer_probabilities(
        query, table, compile_cache=CompileCache())
    assert got == {(1,): 0.5, (2,): 0.25}
    assert got.report.counters["fanout.answers"] == 2
    assert got.report.counters["grounding.pruned_answers"] == 2
