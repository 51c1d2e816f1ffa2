"""No library path imports numpy.

Truncations are folded in plain Python floats: a tightening step adds a
few dozen to a few hundred facts and folds 12–16-row group tables, too
little for arrays to pay for their conversions and their import.  The
sampling engines draw from one pure-Python kernel, BDDs are rescored by
one linear pass whatever their size, and the shard pool forks without
probing for numpy.  Each path below runs in a fresh interpreter and
must leave ``numpy`` out of ``sys.modules``; with numpy installed, as
the test extra installs it, that pins that nothing imports it.
"""

import os
import pathlib
import subprocess
import sys

import pytest

PRELUDE = """
import sys

from repro.core.approx import (
    approximate_answer_marginals,
    approximate_query_probability,
    choose_truncation,
)
from repro.core.fact_distribution import GeometricFactDistribution
from repro.core.refine import RefinementSession
from repro.core.tuple_independent import CountableTIPDB
from repro.finite import TupleIndependentTable
from repro.finite.bid import Block, BlockIndependentTable
from repro.finite.compile_cache import CompileCache
from repro.finite.evaluation import query_probability
from repro.finite.karp_luby import query_probability_karp_luby
from repro.finite.montecarlo import query_probability_monte_carlo
from repro.logic import BooleanQuery, Query, parse_formula
from repro.parallel.pool import ShardPool
from repro.relational import Schema
from repro.sampling import sample_instances
from repro.universe import FactSpace, Naturals

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]


def boolean(text):
    return BooleanQuery(parse_formula(text, schema), schema)


def pdb(ratio=0.97):
    space = FactSpace(schema, Naturals())
    return CountableTIPDB(
        schema, GeometricFactDistribution(space, first=0.3, ratio=ratio))


def small_table():
    marginals = {R(i): 0.5 for i in range(1, 5)}
    marginals.update({S(i, i % 4 + 1): 0.25 for i in range(1, 5)})
    marginals.update({T(i): 0.75 for i in range(1, 5)})
    return TupleIndependentTable(schema, marginals)


SAFE = boolean("EXISTS x, y. R(x) AND S(x, y)")
MARGINALS = Query(parse_formula("EXISTS y. R(x) AND S(x, y)", schema), schema)
H0 = boolean("EXISTS x, y. R(x) AND S(x, y) AND T(y)")
EPSILONS = [0.2, 0.1, 0.05, 0.03, 0.02]
"""

PATHS = {
    "boolean-sweep": """
session = RefinementSession(SAFE, pdb())
assert session.sweep(EPSILONS)[0.02].value > 0
""",
    "marginals-sweep": """
session = RefinementSession(MARGINALS, pdb())
for eps in EPSILONS:
    assert session.refine_marginals(eps)
""",
    "bid-lifted": """
table = BlockIndependentTable(schema, [
    Block("r1", {R(1): 0.25, T(1): 0.5}),
    Block("r2", {R(2): 0.5}),
    Block("s1", {S(1, 1): 0.5, S(1, 2): 0.25}),
    Block("s2", {S(2, 1): 0.125}),
])
assert query_probability(SAFE, table, strategy="lifted") == 0.23828125
""",
    "cold-approximation": """
assert approximate_query_probability(SAFE, pdb(), 0.02).value > 0
""",
    "cold-answer-marginals": """
assert approximate_answer_marginals(MARGINALS, pdb(), 0.05)
""",
    # An unsafe query compiled to a small BDD: 5 facts under "bdd", 12
    # (past the Shannon threshold) under "auto".
    "small-bdd": """
table = TupleIndependentTable(schema, {
    R(1): 0.5, S(1, 2): 0.25, S(2, 1): 0.75, T(2): 0.5, T(1): 0.125})
assert query_probability(H0, table, strategy="bdd") == 0.0625
""",
    "small-bdd-auto": """
assert query_probability(H0, small_table(), strategy="auto") > 0
""",
    # H0 on serve's h0 family (geometric 0.3/0.95) truncated at ε 0.2:
    # a diagram of more than 128 nodes, rescored warm by the second call.
    "large-bdd-warm": """
h0 = pdb(ratio=0.95)
table = h0.truncate(choose_truncation(h0.distribution, 0.2))
cache = CompileCache()
first = query_probability(H0, table, strategy="bdd", compile_cache=cache)
assert query_probability(H0, table, strategy="bdd", compile_cache=cache) == first
""",
    "sampled-strategy": """
assert 0 < query_probability(H0, small_table(), strategy="sampled") < 1
""",
    "monte-carlo": """
assert query_probability_monte_carlo(H0, small_table(), 500, seed=1).estimate > 0
""",
    "karp-luby": """
assert query_probability_karp_luby(H0, small_table(), 500, seed=1).estimate > 0
""",
    "sample-batch": """
assert len(sample_instances(small_table(), 50, seed=1)) == 50
""",
    "shard-pool": """
pool = ShardPool(1)
try:
    assert pool.run_on(0, len, ()) == 0
    assert len(pool.worker_pids()) == 1
finally:
    pool.close()
""",
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_path_leaves_numpy_unimported(path):
    script = PRELUDE + PATHS[path] + """
print("numpy" in sys.modules)
"""
    repo_root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, cwd=repo_root,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
