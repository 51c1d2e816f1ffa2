"""Karp–Luby guards: the DNF expansion budget and the seeded-stream
reproducibility audit (draws come only from ``(seed, batch_index)``
streams — never from module-level random state)."""

import random

import pytest

from repro.errors import EvaluationError
from repro.finite.evaluation import query_probability
from repro.finite.karp_luby import (
    DEFAULT_MAX_DNF_TERMS,
    lineage_to_dnf,
    query_probability_karp_luby,
)
from repro.logic.lineage import Lineage
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic.parser import parse_formula
from repro.logic.queries import BooleanQuery
from repro.relational import Schema
from repro.sampling import DEFAULT_BATCH_SIZE

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]


def _cnf_lineage(clauses, width):
    """AND of ``clauses`` disjunctions of ``width`` fresh variables —
    the worst case for DNF expansion (width**clauses terms)."""
    return Lineage.conj([
        Lineage.disj([
            Lineage.var(S(c, v)) for v in range(width)
        ])
        for c in range(clauses)
    ])


def test_dnf_expansion_budget_fires_mid_product():
    # 10 clauses × width 10 would expand to 10^10 terms; the guard must
    # abort long before materialising anything of that order.
    expr = _cnf_lineage(clauses=10, width=10)
    with pytest.raises(EvaluationError, match="max_terms=1000"):
        lineage_to_dnf(expr, max_terms=1000)


def test_dnf_expansion_within_budget_is_unchanged():
    expr = Lineage.disj([Lineage.var(R(1)), Lineage.var(R(2))])
    assert len(lineage_to_dnf(expr)) == 2
    # A small CNF that stays under the cap still expands fully.
    expr = _cnf_lineage(clauses=2, width=3)
    assert len(lineage_to_dnf(expr, max_terms=50)) <= 9


def test_dnf_expansion_rejects_nonpositive_budget():
    with pytest.raises(EvaluationError):
        lineage_to_dnf(Lineage.var(R(1)), max_terms=0)


def test_query_probability_karp_luby_forwards_max_terms():
    table = TupleIndependentTable(
        schema, {S(c, v): 0.5 for c in range(6) for v in range(6)})
    # EXISTS-free conjunction of disjunctions: CNF-shaped lineage.
    q = BooleanQuery(
        parse_formula(
            " AND ".join(
                "(" + " OR ".join(f"S({c}, {v})" for v in range(6)) + ")"
                for c in range(6)),
            schema),
        schema)
    with pytest.raises(EvaluationError, match="max_terms"):
        query_probability_karp_luby(q, table, 100, seed=1, max_terms=100)
    assert DEFAULT_MAX_DNF_TERMS >= 10_000


def _join_table():
    marginals = {R(i): 0.4 for i in range(1, 4)}
    marginals.update({S(i, j): 0.3 for i in range(1, 4) for j in range(1, 4)})
    marginals.update({T(j): 0.5 for j in range(1, 4)})
    return TupleIndependentTable(schema, marginals)


def _join_query():
    return BooleanQuery(
        parse_formula("EXISTS x, y. R(x) AND S(x, y) AND T(y)", schema),
        schema)


def test_batched_estimates_reproducible_from_seed():
    table, query = _join_table(), _join_query()
    first = query_probability_karp_luby(query, table, 2000, seed=7)
    second = query_probability_karp_luby(query, table, 2000, seed=7)
    assert first == second
    other = query_probability_karp_luby(query, table, 2000, seed=8)
    assert other != first  # astronomically unlikely to collide


def test_batch_boundaries_draw_independent_streams():
    # Batches are seeded per (seed, batch_index): a run that crosses a
    # batch boundary replays bit for bit, and its second batch changes
    # the estimate of a one-batch run on the same seed.
    table, query = _join_table(), _join_query()
    truth = query_probability(query, table, strategy="worlds")
    crossing = DEFAULT_BATCH_SIZE + 500
    split = query_probability_karp_luby(query, table, crossing, seed=5)
    assert split.report.sample_batches == 2
    assert split == query_probability_karp_luby(query, table, crossing, seed=5)
    whole = query_probability_karp_luby(
        query, table, DEFAULT_BATCH_SIZE, seed=5)
    assert whole.report.sample_batches == 1
    assert whole != split
    for estimate in (whole, split):
        assert abs(estimate.estimate - truth) < 0.2


def test_sampling_never_touches_module_level_random_state():
    table, query = _join_table(), _join_query()
    random.seed(123456)
    before = random.getstate()
    query_probability_karp_luby(query, table, 500, seed=3)
    query_probability_karp_luby(query, table, 500, random.Random(4))
    assert random.getstate() == before
