"""The Proposition 6.1 paths never import numpy.

Truncations are folded in plain Python floats: a tightening step adds a
few dozen to a few hundred facts and folds 12–16-row group tables, too
little for arrays to pay for their conversions and their import.  Only
the sampling kernels and the rescoring of BDDs of at least
``_VECTOR_RESCORE_MIN_NODES`` nodes use numpy, so each path below runs
in a fresh interpreter and must leave ``numpy`` out of ``sys.modules``,
whether or not numpy is installed.
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
)
from repro.core.fact_distribution import GeometricFactDistribution
from repro.core.refine import RefinementSession
from repro.core.tuple_independent import CountableTIPDB
from repro.finite import TupleIndependentTable
from repro.finite.bid import Block, BlockIndependentTable
from repro.finite.evaluation import query_probability
from repro.logic import BooleanQuery, Query, parse_formula
from repro.relational import Schema
from repro.universe import FactSpace, Naturals

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]


def boolean(text):
    return BooleanQuery(parse_formula(text, schema), schema)


def pdb():
    space = FactSpace(schema, Naturals())
    return CountableTIPDB(
        schema, GeometricFactDistribution(space, first=0.3, ratio=0.97))


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
    # An unsafe query compiled to a BDD far below the per-level pass's
    # node threshold: 5 facts under "bdd", 12 (past the Shannon
    # threshold) under "auto".
    "small-bdd": """
table = TupleIndependentTable(schema, {
    R(1): 0.5, S(1, 2): 0.25, S(2, 1): 0.75, T(2): 0.5, T(1): 0.125})
assert query_probability(H0, table, strategy="bdd") == 0.0625
""",
    "small-bdd-auto": """
marginals = {R(i): 0.5 for i in range(1, 5)}
marginals.update({S(i, i % 4 + 1): 0.25 for i in range(1, 5)})
marginals.update({T(i): 0.75 for i in range(1, 5)})
table = TupleIndependentTable(schema, marginals)
assert query_probability(H0, table, strategy="auto") > 0
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
