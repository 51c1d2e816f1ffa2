"""Hypothesis properties of Theorem 5.5 completions on the table route.

A TI or BID original stays a table: conditioned on Ω_n, its completion
is that table plus the first n new facts (Remark 5.6).  The same
completion built on the original's explicit worlds truncates to the
world product instead, so it is the oracle here.  Over random TI and BID
originals of at most 6 facts, at most 8 new facts and ε sweeps:

* on dyadic marginals, sessions on both routes give the same values,
  truncation sizes and answer dicts, entry order included, bit for bit;
* otherwise the two values differ by at most their fold-error bounds;
* a table-route session equals fresh one-shot calls at every ε.
"""

from hypothesis import given, settings, strategies as st

from repro.core.approx import (
    approximate_answer_marginals,
    approximate_query_probability_completed,
)
from repro.core.completion import complete
from repro.core.fact_distribution import TableFactDistribution
from repro.core.refine import RefinementSession
from repro.finite.bid import Block, BlockIndependentTable
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic import BooleanQuery, Query, parse_formula
from repro.relational import Schema

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]

FACT_POOL = (
    [R(i) for i in (1, 2, 3)]
    + [S(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    + [T(i) for i in (1, 2, 3)]
)

BOOLEAN_QUERIES = [
    "EXISTS x, y. R(x) AND S(x, y)",              # safe
    "EXISTS x, y. R(x) AND S(x, y) AND T(y)",     # H0, unsafe
    "EXISTS x, y. S(x, y) AND S(y, x)",           # self-join, unsafe
]
ANSWER_QUERIES = [
    "EXISTS y. R(x) AND S(x, y)",                 # safe
    "EXISTS z. S(x, z) AND S(y, z)",              # self-join
]

#: Dyadic masses are multiples of 1/8: with at most 6 + 8 facts every
#: world probability and every engine's intermediate fits in a double,
#: so the two routes agree to the last bit.
EIGHTHS = 8


def masses(draw, count, dyadic, budget=1.0):
    """``count`` masses with total at most ``budget``, each positive."""
    if dyadic:
        share = max(1, int(EIGHTHS * budget) // count)
        return [draw(st.integers(min_value=1, max_value=share)) / EIGHTHS
                for _ in range(count)]
    share = budget / count
    return [draw(st.floats(min_value=0.01, max_value=share))
            for _ in range(count)]


@st.composite
def completion_cases(draw):
    """A TI or BID original of at most 6 pool facts, a table of at most
    8 new facts (the completion drops those the original lists) and
    whether every mass is dyadic."""
    dyadic = draw(st.booleans())
    facts = draw(st.lists(
        st.sampled_from(FACT_POOL), min_size=1, max_size=6, unique=True))
    if draw(st.booleans()):
        original = TupleIndependentTable(
            schema, {fact: masses(draw, 1, dyadic)[0] for fact in facts})
    else:
        blocks = []
        start = 0
        while start < len(facts):
            size = draw(st.integers(min_value=1, max_value=3))
            alternatives = facts[start:start + size]
            start += size
            blocks.append(Block(f"b{len(blocks)}", dict(zip(
                alternatives, masses(draw, len(alternatives), dyadic)))))
        original = BlockIndependentTable(schema, blocks)
    new = draw(st.lists(
        st.sampled_from(FACT_POOL), max_size=8, unique=True))
    new_facts = {
        fact: masses(draw, 1, dyadic, budget=7 / 8)[0] for fact in new}
    return original, TableFactDistribution(new_facts), dyadic


epsilon_sweeps = st.lists(
    st.sampled_from([0.4, 0.3, 0.1, 0.05, 0.02]), min_size=1, max_size=3)

#: The table route's engine: "auto" picks lifted plans for safe queries
#: and small lineages otherwise; "bdd" compiles every query.
table_strategies = st.sampled_from(["auto", "bdd"])


def assert_agree(table_result, worlds_result, dyadic):
    assert table_result.truncation == worlds_result.truncation
    assert table_result.tail == worlds_result.tail
    if dyadic:
        assert table_result.value == worlds_result.value
    else:
        slack = table_result.fold_error + worlds_result.fold_error
        assert abs(table_result.value - worlds_result.value) <= slack


def assert_same(got, expected):
    assert got.value == expected.value
    assert got.truncation == expected.truncation
    assert got.alpha == expected.alpha
    assert got.fold_error == expected.fold_error


@given(completion_cases(), epsilon_sweeps, st.sampled_from(BOOLEAN_QUERIES),
       table_strategies)
@settings(max_examples=30, deadline=None)
def test_boolean_sweeps_match_the_world_product(
    case, epsilons, text, strategy
):
    original, distribution, dyadic = case
    query = BooleanQuery(parse_formula(text, schema), schema)
    tables = RefinementSession(
        query, complete(original, distribution), strategy=strategy)
    worlds = RefinementSession(
        query, complete(original.expand(), distribution))
    for epsilon in epsilons:
        result = tables.refine(epsilon)
        assert_agree(result, worlds.refine(epsilon), dyadic)
        assert_same(result, approximate_query_probability_completed(
            query, complete(original, distribution), epsilon,
            strategy=strategy))


@given(completion_cases(), epsilon_sweeps, st.sampled_from(ANSWER_QUERIES),
       table_strategies)
@settings(max_examples=30, deadline=None)
def test_answer_sweeps_match_the_world_product(
    case, epsilons, text, strategy
):
    original, distribution, dyadic = case
    query = Query(parse_formula(text, schema), schema)
    tables = RefinementSession(
        query, complete(original, distribution), strategy=strategy)
    worlds = RefinementSession(
        query, complete(original.expand(), distribution))
    for epsilon in epsilons:
        results = tables.refine_marginals(epsilon)
        expected = worlds.refine_marginals(epsilon)
        assert list(results) == list(expected)
        for answer, result in expected.items():
            assert_agree(results[answer], result, dyadic)
        one_shot = approximate_answer_marginals(
            query, complete(original, distribution), epsilon,
            strategy=strategy)
        assert list(results) == list(one_shot)
        for answer, result in one_shot.items():
            assert_same(results[answer], result)
