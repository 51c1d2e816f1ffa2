"""E11 (extension) — ablations of the library's own design choices.

Not a paper experiment: these benches quantify two implementation
decisions called out in DESIGN.md.

* A-1  Shannon-expansion pivot heuristic: most-frequent-variable vs a
       naive first-variable pivot, measured in expansion cache size on a
       hard (non-hierarchical) lineage.
* A-2  Truncation rule: the certified union-bound rule ``tail(n) ≤ ε``
       and the paper's claim-(∗) rule ``tail(n) ≤ log(1+ε)/1.5`` of
       Prop. 6.1 vs naive fixed-size truncations, measured in n and in
       guarantee violations.
"""

import math

from benchmarks.conftest import report
from repro.analysis.bounds import star_rule_target_tail
from repro.core.approx import approximate_query_probability, choose_truncation
from repro.core.fact_distribution import ZetaFactDistribution
from repro.core.tuple_independent import CountableTIPDB
from repro.errors import EvaluationError
from repro.finite.lineage_eval import _make_pivot, lineage_probability
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic import BooleanQuery, parse_formula
from repro.logic.lineage import Lineage, lineage_of
from repro.relational import Schema
from repro.universe import FactSpace, Naturals

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]


def _h0_lineage(n: int):
    """The non-hierarchical H0 lineage over an n×n bipartite S."""
    marginals = {}
    for i in range(1, n + 1):
        marginals[R(i)] = 0.5
        marginals[T(i)] = 0.5
        for j in range(1, n + 1):
            marginals[S(i, j)] = 0.5
    table = TupleIndependentTable(schema, marginals)
    query = BooleanQuery(parse_formula(
        "EXISTS x, y. R(x) AND S(x, y) AND T(y)", schema), schema)
    expr = lineage_of(query.formula, set(table.marginals))
    return expr, table


def _count_expansions(expr: Lineage, marginal, pivot_fn) -> int:
    """Shannon expansion with a pluggable pivot; returns cache size."""
    cache = {}

    def recurse(e: Lineage) -> float:
        constant = e.is_constant()
        if constant is not None:
            return 1.0 if constant else 0.0
        key = e.node
        if key in cache:
            return cache[key]
        fact = pivot_fn(e)
        p = marginal(fact)
        value = (p * recurse(e.condition(fact, True))
                 + (1 - p) * recurse(e.condition(fact, False)))
        cache[key] = value
        return value

    recurse(expr)
    return len(cache)


def _first_pivot(expr: Lineage):
    """Naive pivot: lexicographically first fact."""
    return min(expr.facts(), key=lambda f: f.sort_key())


def pivot_ablation():
    rows = []
    for n in (2, 3, 4):
        expr, table = _h0_lineage(n)
        frequent = _count_expansions(expr, table.marginal, _make_pivot(expr))
        first = _count_expansions(expr, table.marginal, _first_pivot)
        rows.append((n, frequent, first, first / max(frequent, 1)))
    return rows


def truncation_rule_ablation():
    """Fixed-n truncations vs the certified rule on a zeta-tail PDB."""
    space = FactSpace(Schema.of(R=1), Naturals())
    zeta_schema = Schema.of(R=1)
    pdb = CountableTIPDB(
        zeta_schema, ZetaFactDistribution(space, exponent=2.0, scale=0.5))
    query = BooleanQuery(
        parse_formula("EXISTS x. R(x)", zeta_schema), zeta_schema)
    truth = 1.0 - pdb.empty_world_probability()
    epsilon = 0.01
    rows = []
    # Certified rules: the union bound (the library's) and claim (∗).
    result = approximate_query_probability(query, pdb, epsilon)
    assert choose_truncation(pdb.distribution, epsilon) == result.truncation
    rows.append((
        f"union bound (n={result.truncation})",
        abs(result.value - truth),
        abs(result.value - truth) <= epsilon,
    ))
    from repro.finite.evaluation import query_probability

    n_star = pdb.distribution.prefix_for_tail(star_rule_target_tail(epsilon))
    star_error = abs(query_probability(query, pdb.truncate(n_star)) - truth)
    rows.append((f"claim (∗) (n={n_star})", star_error, star_error <= epsilon))
    # Naive fixed truncations:
    for n in (2, 5, 10):
        value = query_probability(query, pdb.truncate(n))
        error = abs(value - truth)
        rows.append((f"fixed n={n}", error, error <= epsilon))
    return rows


def bdd_vs_shannon():
    """A-3: compile-once ROBDD vs per-query Shannon expansion on the
    safe query at growing truncation sizes."""
    import time

    from repro.finite.bdd import compile_lineage
    from repro.core.fact_distribution import GeometricFactDistribution
    from repro.universe import FactSpace, Naturals

    rs_schema = Schema.of(R=1, S=2)
    space = FactSpace(rs_schema, Naturals())
    pdb = CountableTIPDB(
        rs_schema, GeometricFactDistribution(space, first=0.9, ratio=0.97))
    query = BooleanQuery(parse_formula(
        "EXISTS x, y. R(x) AND S(x, y)", rs_schema), rs_schema)
    rows = []
    for n in (20, 40, 80):
        table = pdb.truncate(n)
        expr = lineage_of(query.formula, set(table.marginals))
        start = time.perf_counter()
        shannon = lineage_probability(expr, table.marginal)
        shannon_time = time.perf_counter() - start
        start = time.perf_counter()
        manager, root = compile_lineage(expr)
        value = manager.probability(root, table.marginal)
        bdd_time = time.perf_counter() - start
        assert abs(value - shannon) < 1e-9
        rows.append((n, shannon_time, bdd_time,
                     manager.count_nodes(root)))
    return rows


def test_a1_pivot_heuristic(benchmark):
    rows = benchmark.pedantic(pivot_ablation, rounds=1, iterations=1)
    report("A-1: Shannon expansion cache size by pivot heuristic (H0)",
           ("n", "most-frequent", "first-var", "blowup"), rows)
    # The heuristic should never be (much) worse; typically better.
    for _, frequent, first, _ in rows:
        assert frequent <= first * 1.5


def test_a3_bdd_vs_shannon(benchmark):
    rows = benchmark.pedantic(bdd_vs_shannon, rounds=1, iterations=1)
    report("A-3: ROBDD compile+count vs Shannon expansion",
           ("facts", "shannon (s)", "bdd (s)", "bdd nodes"), rows)
    # Both exact (asserted inside); BDD node count grows mildly on this
    # read-once-ish query while Shannon re-normalizes whole trees.
    sizes = [nodes for *_, nodes in rows]
    assert sizes == sorted(sizes)


def test_a2_truncation_rule(benchmark):
    rows = benchmark.pedantic(truncation_rule_ablation, rounds=1, iterations=1)
    report("A-2: certified vs fixed truncation (ε = 0.01, zeta tail)",
           ("rule", "|error|", "within ε"), rows)
    union, star = rows[0], rows[1]
    assert union[2] and star[2]  # both certified rules meet the guarantee
    # At least one naive fixed truncation violates it.
    assert any(not within for _, _, within in rows[2:])
