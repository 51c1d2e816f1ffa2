"""Pickles read back in another process hash like fresh objects.

String hashes are salted per process (``PYTHONHASHSEED``), and facts,
relation symbols and instances cache their hash.  A pickle that carried
the cached value would leave an unpickled fact hashing unlike an equal
fresh one in the reading process: dict lookups on a loaded table then
miss, and a restored serve session answers from a table it can no
longer probe.  Each test writes in one process under
``PYTHONHASHSEED=1`` and reads in another under ``PYTHONHASHSEED=2``.
"""

import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import repro
from repro.errors import SnapshotError
from repro.serve.session import SessionManager
from repro.serve.snapshot import dump_snapshot, loads_snapshot

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

SPEC = {
    "schema": {"R": 1, "S": 2},
    "family": {"kind": "geometric", "first": 0.3, "ratio": 0.9},
    "query": "FORALL x. (R(x) -> EXISTS y. S(x, y))",
}

PRELUDE = f"""
import json, pickle, sys
from repro import BooleanQuery, Schema, TupleIndependentTable, parse_formula
from repro.finite.evaluation import query_probability
from repro.relational.instance import Instance
from repro.serve.session import SessionManager
from repro.serve.snapshot import dump_snapshot, loads_snapshot

SPEC = {SPEC!r}
schema = Schema.of(R=1, S=2)
R, S = schema["R"], schema["S"]

def build_table():
    return TupleIndependentTable(schema, {{
        R(1): 0.35, R(2): 0.6, R(3): 0.5, R(4): 0.2,
        S(1, 2): 0.4, S(2, 3): 0.7, S(3, 1): 0.1, S(4, 4): 0.3,
        S(2, 2): 0.25, S(1, 4): 0.15}})
"""

WRITER = PRELUDE + """
manager = SessionManager()
manager.create("forall", SPEC).refine(0.2)
with open(sys.argv[1], "wb") as handle:
    pickle.dump({
        "table": build_table(),
        "instance": Instance([R(1), S(1, 2)]),
        "snapshot": dump_snapshot(manager),
    }, handle)
"""

READER = PRELUDE + """
with open(sys.argv[1], "rb") as handle:
    loaded = pickle.load(handle)
table, fresh = loaded["table"], build_table()
query = BooleanQuery(parse_formula(
    "EXISTS x. (R(x) AND NOT EXISTS y. S(x, y))", schema), schema)
manager = loads_snapshot(loaded["snapshot"])
print(json.dumps({
    "marginal": [table.marginal(R(1)), fresh.marginal(R(1))],
    "instance": loaded["instance"] in {Instance([S(1, 2), R(1)])},
    "negation": {
        strategy: [query_probability(query, table, strategy=strategy),
                   query_probability(query, fresh, strategy=strategy)]
        for strategy in ("auto", "lineage", "bdd")},
    "refined": [manager.get("forall").refine(0.1).value,
                manager.create("fresh", SPEC).refine(0.1).value],
}))
"""


def run(script, path, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        capture_output=True, text=True, env=env, timeout=240)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_pickles_read_under_another_hash_seed(tmp_path):
    path = tmp_path / "written.pickle"
    run(WRITER, path, hash_seed=1)
    read = json.loads(run(READER, path, hash_seed=2))
    loaded, fresh = read["marginal"]
    assert loaded == fresh == 0.35
    assert read["instance"]
    for strategy, (loaded, fresh) in read["negation"].items():
        assert fresh > 0, strategy
        assert loaded == fresh, strategy
    restored, fresh = read["refined"]
    assert restored == fresh


def test_snapshots_with_cached_hashes_are_refused():
    """Version 1 snapshots carry the writer's cached hashes."""
    envelope = pickle.loads(dump_snapshot(SessionManager()))
    envelope["version"] = 1
    with pytest.raises(SnapshotError, match="version 1 is not supported"):
        loads_snapshot(pickle.dumps(envelope))
