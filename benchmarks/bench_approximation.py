"""E5 — Proposition 6.1: additive ε-approximation by truncation (and
Figure 1's conditioning picture).

Regenerates: measured additive error vs ε with the certified enclosure,
truncation size n(ε) for geometric vs zeta fact-probability tails under
the library's union-bound rule (``tail(n) ≤ ε``) and under the paper's
claim-(∗) rule (``tail(n) ≤ min(log(1+ε)/1.5, 0.49)``), and runtime
growth with n(ε).

Shape to hold: |p − P(Q)| ≤ δ ≤ ε and P(Q) inside ``[low, high]`` at
every ε; n(ε) ~ log(1/ε) for geometric tails vs polynomially larger for
zeta tails under both rules, the union-bound rule never larger;
runtime grows with n(ε).
"""

import time

from benchmarks.conftest import report
from repro.analysis.bounds import star_rule_target_tail
from repro.core.approx import (
    approximate_query_probability,
    choose_truncation,
)
from repro.core.fact_distribution import (
    GeometricFactDistribution,
    ZetaFactDistribution,
)
from repro.core.tuple_independent import CountableTIPDB
from repro.logic import BooleanQuery, parse_formula
from repro.relational import Schema
from repro.universe import FactSpace, Naturals

schema = Schema.of(R=1)
space = FactSpace(schema, Naturals())

EPSILONS = (0.1, 0.01, 0.001, 1e-4)


def geometric_pdb():
    return CountableTIPDB(
        schema, GeometricFactDistribution(space, first=0.5, ratio=0.5))


def exists_truth(pdb):
    """Exact P(∃x R(x)) = 1 − Π(1 − p_f) (single-relation schema)."""
    return 1.0 - pdb.empty_world_probability()


def error_vs_epsilon():
    pdb = geometric_pdb()
    query = BooleanQuery(parse_formula("EXISTS x. R(x)", schema), schema)
    truth = exists_truth(pdb)
    rows = []
    for epsilon in EPSILONS:
        result = approximate_query_probability(query, pdb, epsilon)
        rows.append((
            epsilon, result.truncation, result.value, result.tail,
            abs(result.value - truth),
            abs(result.value - truth) <= result.tail <= epsilon
            and result.contains(truth),
        ))
    return rows


def star_rule_truncation(distribution, epsilon):
    """n(ε) under the paper's claim-(∗) rule, for comparison."""
    return distribution.prefix_for_tail(star_rule_target_tail(epsilon))


def truncation_size_by_tail():
    geometric = GeometricFactDistribution(space, first=0.5, ratio=0.5)
    zeta = ZetaFactDistribution(space, exponent=2.0, scale=0.5)
    rows = []
    for epsilon in EPSILONS:
        rows.append((
            epsilon,
            choose_truncation(geometric, epsilon),
            star_rule_truncation(geometric, epsilon),
            choose_truncation(zeta, epsilon),
            star_rule_truncation(zeta, epsilon),
        ))
    return rows


def runtime_vs_epsilon():
    pdb = CountableTIPDB(
        schema, ZetaFactDistribution(space, exponent=2.0, scale=0.5))
    query = BooleanQuery(parse_formula("EXISTS x. R(x)", schema), schema)
    rows = []
    for epsilon in (0.1, 0.01, 0.001):
        start = time.perf_counter()
        result = approximate_query_probability(query, pdb, epsilon)
        elapsed = time.perf_counter() - start
        rows.append((epsilon, result.truncation, elapsed))
    return rows


def test_e5_error_guarantee(benchmark):
    rows = benchmark.pedantic(error_vs_epsilon, rounds=1, iterations=1)
    report("E5a: additive error vs ε (Prop. 6.1 / Fig. 1)",
           ("ε", "n(ε)", "p = P(Q|Ω_n)", "δ = tail(n)", "|p − P(Q)|",
            "within δ, enclosed"), rows)
    assert all(within for *_, within in rows)


def test_e5_truncation_growth(benchmark):
    rows = benchmark.pedantic(truncation_size_by_tail, rounds=1, iterations=1)
    report("E5b: n(ε) by tail family and rule (paper §6 complexity remark)",
           ("ε", "geometric", "geometric (∗)", "zeta", "zeta (∗)"), rows)
    # Geometric grows additively per decade (log), zeta multiplicatively,
    # under either rule; the union bound never needs more facts.
    for column in (1, 2):
        geometric_sizes = [row[column] for row in rows]
        zeta_sizes = [row[column + 2] for row in rows]
        assert geometric_sizes[-1] < 40
        assert zeta_sizes[-1] > 100 * geometric_sizes[-1]
        growth = [b / max(a, 1) for a, b in zip(zeta_sizes, zeta_sizes[1:])]
        assert all(g > 5 for g in growth)  # ~10× per decade for 1/i²
    for _, geometric, geometric_star, zeta, zeta_star in rows:
        assert geometric <= geometric_star and zeta <= zeta_star


def test_e5_runtime(benchmark):
    rows = benchmark.pedantic(runtime_vs_epsilon, rounds=1, iterations=1)
    report("E5c: runtime vs ε (zeta tail)",
           ("ε", "n(ε)", "seconds"), rows)
    assert rows[-1][1] > rows[0][1]
