"""Randomized cross-validation: every query engine must agree on random
TI tables and random safe/unsafe queries (the E8 correctness backbone)."""

import random

import pytest

from repro.errors import UnsafeQueryError
from repro.finite import (
    TupleIndependentTable,
    query_probability,
    query_probability_by_worlds,
    query_probability_monte_carlo,
)
from repro.finite.lifted import query_probability_lifted
from repro.logic import BooleanQuery, parse_formula
from repro.relational import Schema

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]


def random_table(rng, n_r=3, n_s=4, n_t=3):
    marginals = {}
    for i in range(1, n_r + 1):
        marginals[R(i)] = rng.uniform(0.05, 0.95)
    for _ in range(n_s):
        marginals[S(rng.randint(1, 3), rng.randint(1, 3))] = rng.uniform(0.05, 0.95)
    for i in range(1, n_t + 1):
        marginals[T(i)] = rng.uniform(0.05, 0.95)
    return TupleIndependentTable(schema, marginals)


QUERIES = [
    "EXISTS x. R(x)",
    "EXISTS x, y. R(x) AND S(x, y)",
    "EXISTS x, y. R(x) AND S(x, y) AND T(y)",
    "FORALL x. R(x) -> T(x)",
    "(EXISTS x. R(x)) AND NOT (EXISTS y. T(y))",
    "EXISTS x. S(x, x)",
]


class TestRandomizedAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_lineage_vs_worlds(self, seed):
        rng = random.Random(seed)
        table = random_table(rng)
        for text in QUERIES:
            query = BooleanQuery(parse_formula(text, schema), schema)
            expected = query_probability_by_worlds(query, table)
            actual = query_probability(query, table, strategy="lineage")
            assert actual == pytest.approx(expected, abs=1e-9), (seed, text)

    @pytest.mark.parametrize("seed", range(8))
    def test_lifted_vs_worlds_when_safe(self, seed):
        rng = random.Random(100 + seed)
        table = random_table(rng)
        for text in QUERIES:
            query = BooleanQuery(parse_formula(text, schema), schema)
            try:
                lifted = query_probability_lifted(query, table)
            except UnsafeQueryError:
                continue
            expected = query_probability_by_worlds(query, table)
            assert lifted == pytest.approx(expected, abs=1e-9), (seed, text)

    def test_monte_carlo_within_interval(self):
        rng = random.Random(55)
        table = random_table(rng)
        misses = 0
        for text in QUERIES:
            query = BooleanQuery(parse_formula(text, schema), schema)
            truth = query_probability(query, table)
            # Seeded from the text itself, not hash(text): str hashes
            # are salted per process, so the draws would change per run.
            estimate = query_probability_monte_carlo(
                query, table, 2500, random.Random(f"55:{text}"))
            if not estimate.contains(truth):
                misses += 1
        assert misses <= 1  # 95% intervals; allow one unlucky query
