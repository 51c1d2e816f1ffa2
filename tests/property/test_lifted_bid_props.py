"""Hypothesis properties and pins for lifted evaluation on BID tables.

A block-independent-disjoint table keeps its alternatives mutually
exclusive, so the independence a safe plan assumes holds only where the
plan's operands read disjoint blocks.  Over random BID tables and a
fixed list of query shapes, on both columnar backends:

* ``strategy="lifted"`` either raises :class:`UnsafeQueryError` or
  equals world enumeration — bit for bit on dyadic masses, to 1e-12
  otherwise;
* ``strategy="auto"`` always equals world enumeration to 1e-12.

The named pins fix one outcome per block rule: operands of a join that
share a block raise, a union or project over leaves that share a block
takes the disjoint-union rule, and any other shared block raises.
"""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.utils.probability as probability_module
from repro import obs
from repro.errors import UnsafeQueryError
from repro.finite import query_probability
from repro.finite.bid import Block, BlockIndependentTable
from repro.finite.compile_cache import CompileCache
from repro.finite.evaluation import query_probability_by_worlds
from repro.logic import BooleanQuery, parse_formula
from repro.relational import Schema
from repro.relational.columns import available_backends

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]

QUERIES = [
    "EXISTS x. R(x)",
    "EXISTS x, y. R(x) AND S(x, y)",
    "EXISTS x, y. S(x, y)",
    "EXISTS y. S(1, y)",
    "R(1) AND R(2)",
    "R(1) OR R(2)",
    "(EXISTS x. R(x)) OR (EXISTS y. T(y))",
    "EXISTS x. R(x) AND T(x)",
    "EXISTS x, y, z. R(x) AND S(x, y) AND T(z)",
    "EXISTS x, y. R(x) AND S(x, y) AND T(x)",
    "(EXISTS x, y. S(x, y) AND R(x)) OR (EXISTS z. T(z))",
    "EXISTS x. (R(x) OR T(x))",
]

FACT_POOL = (
    [R(i) for i in (1, 2, 3)]
    + [S(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    + [T(i) for i in (1, 2, 3)]
)

#: Dyadic masses are multiples of 1/8: with at most 14 facts every
#: world probability and every lifted intermediate fits in a double, so
#: exact strategies agree to the last bit.
EIGHTHS = 8


@st.composite
def bid_tables(draw):
    """A BID table of at most 14 pool facts in blocks of 1–3
    alternatives, with dyadic or arbitrary masses; returns the table and
    whether its masses are dyadic."""
    facts = draw(st.lists(
        st.sampled_from(FACT_POOL), min_size=1, max_size=14, unique=True))
    dyadic = draw(st.booleans())
    blocks = []
    start = 0
    while start < len(facts):
        size = draw(st.integers(min_value=1, max_value=3))
        alternatives = facts[start:start + size]
        start += size
        if dyadic:
            share = EIGHTHS // len(alternatives)
            masses = [
                draw(st.integers(min_value=1, max_value=share)) / EIGHTHS
                for _ in alternatives
            ]
        else:
            share = 1.0 / len(alternatives)
            masses = [
                draw(st.floats(min_value=0.01, max_value=share))
                for _ in alternatives
            ]
        blocks.append(
            Block(f"b{len(blocks)}", dict(zip(alternatives, masses))))
    return BlockIndependentTable(schema, blocks), dyadic


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


def query(text):
    return BooleanQuery(parse_formula(text, schema), schema)


def lifted(text, table):
    return float(query_probability(
        query(text), table, strategy="lifted",
        compile_cache=CompileCache()))


@pytest.mark.parametrize("backend", available_backends())
class TestLiftedMatchesWorlds:
    @given(case=bid_tables())
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_lifted_raises_or_is_exact_and_auto_is_exact(
        self, backend, case
    ):
        table, dyadic = case
        worlds = table.expand()
        with forced_backend(backend):
            for text in QUERIES:
                expected = query_probability_by_worlds(query(text), worlds)
                try:
                    value = lifted(text, table)
                except UnsafeQueryError:
                    pass
                else:
                    if dyadic:
                        assert value == expected, text
                    else:
                        assert value == pytest.approx(expected, abs=1e-12), text
                auto = float(query_probability(
                    query(text), table, compile_cache=CompileCache()))
                assert auto == pytest.approx(expected, abs=1e-12), text


@pytest.mark.parametrize("backend", available_backends())
class TestBlockRules:
    def test_join_operands_in_one_block_raise(self, backend):
        table = BlockIndependentTable(
            schema, [Block("k", {R(1): 0.25, R(2): 0.5})])
        with forced_backend(backend), pytest.raises(UnsafeQueryError):
            lifted("R(1) AND R(2)", table)

    def test_union_of_leaves_in_one_block_adds_their_masses(self, backend):
        table = BlockIndependentTable(
            schema, [Block("k", {R(1): 0.25, R(2): 0.5})])
        with forced_backend(backend):
            assert lifted("R(1) OR R(2)", table) == 0.75

    def test_union_of_projects_sharing_a_block_raises(self, backend):
        table = BlockIndependentTable(schema, [
            Block("k", {R(1): 0.25, T(1): 0.5}),
            Block("r", {R(2): 0.125}),
        ])
        with forced_backend(backend), pytest.raises(UnsafeQueryError):
            lifted("(EXISTS x. R(x)) OR (EXISTS y. T(y))", table)

    def test_project_over_one_block_adds_its_masses(self, backend):
        table = BlockIndependentTable(schema, [
            Block("k", {R(1): 0.25, R(2): 0.125, R(3): 0.5}),
        ])
        with forced_backend(backend):
            assert lifted("EXISTS x. R(x)", table) == 0.875

    def test_project_values_sharing_a_block_raise(self, backend):
        table = BlockIndependentTable(schema, [
            Block("k", {R(1): 0.25, R(2): 0.5}),
            Block("s1", {S(1, 1): 0.5}),
            Block("s2", {S(2, 1): 0.5}),
        ])
        with forced_backend(backend), pytest.raises(UnsafeQueryError):
            lifted("EXISTS x, y. R(x) AND S(x, y)", table)

    def test_a_saturated_fold_stops_before_a_shared_block(self, backend):
        """The project over x folds x = 1 first; its certain value ends
        the fold, so the block x = 2's join shares is never reached."""
        table = BlockIndependentTable(schema, [
            Block("r1", {R(1): 1.0}),
            Block("s1", {S(1, 1): 1.0}),
            Block("k", {R(2): 0.25, S(2, 1): 0.5}),
        ])
        with forced_backend(backend):
            assert lifted("EXISTS x, y. R(x) AND S(x, y)", table) == 1.0

    def test_a_zero_product_stops_before_a_shared_block(self, backend):
        """The join reads the absent R(1) first; its zero product ends
        the join before the project whose values share block k."""
        table = BlockIndependentTable(schema, [
            Block("k", {S(1, 1): 0.25, S(2, 1): 0.5}),
            Block("t1", {T(1): 0.5}),
            Block("t2", {T(2): 0.5}),
        ])
        with forced_backend(backend):
            assert lifted(
                "R(1) AND (EXISTS x, y. S(x, y) AND T(x))", table) == 0.0

    def test_a_bid_run_is_vectorized(self, backend):
        table = BlockIndependentTable(schema, [
            Block("k1", {R(1): 0.5, R(2): 0.25}),
            Block("k2", {R(3): 0.125}),
            Block("s", {S(1, 1): 0.5, S(1, 2): 0.25}),
        ])
        with forced_backend(backend), obs.trace() as t:
            lifted("EXISTS x. R(x)", table)
            lifted("EXISTS x, y. R(x) AND S(x, y)", table)
        assert t.counters.get("lifted.vectorized_nodes", 0) > 0
        assert t.counters.get("lifted.scalar_fallbacks", 0) == 0
