"""Tests of the benchmark itself (not part of the library's test suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The traced runs take a few minutes in all; each workload's run is made
once and shared by the tests that read it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
HERE = ROOT / "perfbench"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import spans  # noqa: E402

LIBRARY = ("zeta-sweep", "geometric-sweep", "marginals-sweep")

#: The spans each row of the layer table names, on the workload the row
#: names.  Calls the table lists that no workload's path reaches are left
#: out: ``PrefixCache.prefix``, ``ColumnStore.intern`` and
#: ``.extend_items`` (no refinement path builds a table's column store),
#: the ``vector_*`` folds and the ``segmented_*`` variants other than the
#: disjunction, and ``BDDManager.probability`` (sessions rescore).  The
#: BDD rows name geometric-sweep too, but its H0 sweep is left out until
#: the defect :func:`test_h0_sweep_matches_a_one_shot_bit_for_bit` pins
#: is fixed, so their spans are looked for on serve-mixed only.
TABLE = {
    "core.refine": [("zeta-sweep", "core.refine.refine"),
                    ("marginals-sweep", "core.refine.refine_marginals"),
                    ("zeta-sweep", "core.approx.choose_truncation")],
    "core.prefix_cache": [("zeta-sweep", "core.prefix_cache.pairs")],
    "core.tuple_independent": [("zeta-sweep", "core.tuple_independent.truncate"),
                               ("zeta-sweep", "core.tuple_independent.extend_truncation")],
    "finite.tuple_independent": [("zeta-sweep", "finite.tuple_independent.construct"),
                                 ("zeta-sweep", "finite.tuple_independent.extend")],
    "relational.columns": [("zeta-sweep", "relational.columns.float_extend")],
    "relational.index": [("geometric-sweep", "relational.index.construct"),
                         ("geometric-sweep", "relational.index.extend"),
                         ("zeta-sweep", "relational.index.extend")],
    "finite.compile_cache": [("marginals-sweep", "finite.compile_cache.lifted"),
                             ("geometric-sweep", "finite.compile_cache.lifted"),
                             ("serve-mixed", "finite.compile_cache.compiled")],
    "logic.hierarchy": [("marginals-sweep", "logic.hierarchy.safe_plan_ucq")],
    "finite.lifted": [(w, "finite.lifted.query_probability_lifted") for w in LIBRARY],
    "utils.probability": [("zeta-sweep", "utils.probability.segmented_disjunction"),
                          ("zeta-sweep", "utils.probability.column_segmented_disjunction")],
    "logic.lineage": [("serve-mixed", "logic.lineage.lineage_of")],
    "finite.bdd": [("serve-mixed", "finite.bdd.build"),
                   ("serve-mixed", "finite.bdd.rescore")],
    "finite.evaluation": [("marginals-sweep", "finite.evaluation.query_probability"),
                          ("marginals-sweep",
                           "finite.evaluation.marginal_answer_probabilities")],
    "parallel": [("marginals-sweep", "parallel.pooled_answer_marginals"),
                 ("marginals-sweep", "parallel.map_shards"),
                 ("marginals-sweep", "parallel.run_on")],
    "serve": [("serve-mixed", f"serve.{name}") for name in (
        "server.dispatch", "session.submit", "session.sweep", "session.marginals",
        "session.drain_one", "session.create")],
}


def run_benchmark(workload, seed=3, trace=1, seconds=1, cwd=ROOT):
    # A fixed hash seed: the pool ships pickled sets, and a set's pickle
    # size depends on its iteration order, which the hash seed sets.
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


_RUNS = {}


def traced(workload):
    """``(result, spans fired)`` of one traced run per workload."""
    if workload not in _RUNS:
        proc = run_benchmark(workload)
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        lines = proc.stdout.splitlines()
        fired = json.loads(next(line for line in lines if line.startswith("spans "))[6:])
        _RUNS[workload] = json.loads(lines[-1]), fired
    return _RUNS[workload]


@pytest.mark.parametrize("workload", LIBRARY)
def test_counts_repeat_exactly(workload):
    first, _ = traced(workload)
    proc = run_benchmark(workload)
    assert proc.returncode == 0, proc.stdout[-3000:]
    second = json.loads(proc.stdout.splitlines()[-1])
    for name, unit in layers.METRICS:
        if unit in ("s", "ms") or name.startswith("bench.") or name in layers.TIMED_COUNTS:
            continue
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("row", sorted(TABLE))
def test_table_spans_fire(row):
    for workload, span in TABLE[row]:
        _, fired = traced(workload)
        assert fired.get(span, 0) > 0, f"{span} never fired on {workload}"


def test_index_probes_are_counted():
    # FactIndex.probe_rows serves lineage grounding, which only the H0
    # sessions of serve-mixed reach.
    result, _ = traced("serve-mixed")
    assert result["metrics"]["relational.index.probes"]["value"] > 0


@pytest.mark.parametrize("workload", LIBRARY)
def test_named_layers_cover_the_library_workloads(workload):
    result, _ = traced(workload)
    assert result["correct"]
    assert result["metrics"]["bench.unattributed_share"]["value"] <= 0.10


def test_traced_run_reports_every_metric():
    result, _ = traced("serve-mixed")
    assert set(result["metrics"]) == {name for name, _ in layers.METRICS}
    assert result["metrics"]["serve.dispatch_s"]["value"] > 0


@pytest.mark.parametrize("name", ["finite.lifted.vectorized_nodes", "finite.bdd.nodes",
                                  "logic.lineage.probes", "finite.compile_cache.plan_hit_ratio"])
def test_server_side_report_counts_reach_the_traced_serve_run(name):
    result, _ = traced("serve-mixed")
    assert result["metrics"][name]["value"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("zeta-sweep", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_the_union_of_children():
    exported = {"spans": [
        ["a.x.f", 0.0, 10.0, None, 1, None],
        ["b.y.g", 1.0, 4.0, 0, 1, {"facts": 3}],
        ["b.y.h", 3.0, 6.0, 0, 1, None],
        ["b.y.g", 2.0, 3.0, 1, 1, {"facts": 5}],
    ], "calls": {}}
    summary, root_self = spans.summarize(exported)
    assert summary["a.x.f"]["self_s"] == pytest.approx(5.0)
    assert root_self == pytest.approx(5.0)
    # The nested b.y.g is work of its own layer: time, but no call.
    assert summary["b.y.g"]["count"] == 1
    assert summary["b.y.g"]["facts"] == 3
    assert summary["b.y.g"]["self_s"] == pytest.approx(2.0 + 1.0)


@pytest.mark.xfail(strict=True, reason="known defect: on H0 a sweep's tightest answer "
                   "differs from a cold one-shot's in the last bit")
def test_h0_sweep_matches_a_one_shot_bit_for_bit():
    """core/refine.py promises that a refinement returns exactly what a
    one-shot call at the same ε returns.  On the unsafe H0 query, which
    the ``auto`` strategy compiles to a BDD, a two-step sweep to ε = 0.05
    (102 facts) gives 0.10453132512440394 and a one-shot call
    0.10453132512440395.  geometric-sweep leaves its H0 sweep out while
    this holds; once the program is fixed this test passes, which strict
    xfail reports as a failure, and the sweep can go back in."""
    from repro.core.approx import approximate_query_probability
    from repro.core.fact_distribution import GeometricFactDistribution
    from repro.core.refine import RefinementSession
    from repro.core.tuple_independent import CountableTIPDB
    from repro.finite.compile_cache import DEFAULT_COMPILE_CACHE
    from repro.logic.parser import parse_formula
    from repro.logic.queries import BooleanQuery
    from repro.relational.schema import Schema
    from repro.universe import FactSpace, Naturals

    def h0():
        schema = Schema.of(R=1, S=2, T=1)
        family = GeometricFactDistribution(FactSpace(schema, Naturals()), first=0.3, ratio=0.95)
        formula = parse_formula("EXISTS x, y. (R(x) AND S(x, y) AND T(y))", schema)
        return BooleanQuery(formula, schema), CountableTIPDB(schema, family)

    DEFAULT_COMPILE_CACHE.clear()
    session = RefinementSession(*h0())
    session.refine(0.3)
    swept = session.refine(0.05)
    # A cold call, as from a fresh process: no diagram of the sweep's.
    DEFAULT_COMPILE_CACHE.clear()
    cold = approximate_query_probability(*h0(), 0.05)
    assert swept.truncation == cold.truncation == 102
    assert swept.value == cold.value
