"""K1 — batched sampling kernel: the scalar reference paths vs the
python kernel.

Regenerates: wall-clock comparison of the Monte-Carlo engines'
``backend=`` options at 10k samples — end-to-end query estimation,
raw world-sampling throughput, and the Karp–Luby estimator.

Shape to hold: the pure-Python batched backend is ≥ 3× faster than the
scalar reference path on end-to-end estimation (plan pre-materialisation
+ lineage compilation + per-distinct-world memoised model checking);
both return estimates that agree with the exact probability.

Machine-readable results (including the :class:`repro.obs.EvalReport`
telemetry attached to each estimate) land in
``BENCH_sampling_kernels.json`` at the repo root.

Smoke mode (``BENCH_SMOKE=1``): does not clobber the committed record.
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

from benchmarks.conftest import report
from repro.finite import (
    Block,
    BlockIndependentTable,
    TupleIndependentTable,
    query_probability,
    query_probability_karp_luby,
    query_probability_monte_carlo,
)
from repro.logic import BooleanQuery, parse_formula
from repro.relational import Schema

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]

SAMPLES = 10_000
SEED = 11
BACKENDS = ("scalar", "python")
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

JSON_PATH = (Path(__file__).resolve().parent.parent
             / "BENCH_sampling_kernels.json")

_RESULTS = {}


def _write_json():
    if SMOKE:
        return
    _RESULTS.update({
        "benchmark": "sampling_kernels",
        "samples": SAMPLES,
        "seed": SEED,
        "backends": list(BACKENDS),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "generated_unix": int(time.time()),
    })
    JSON_PATH.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")


def join_table():
    marginals = {R(i): 0.30 + 0.04 * i for i in range(1, 4)}
    marginals.update({S(i, j): 0.25 for i in range(1, 4) for j in range(1, 4)})
    marginals.update({T(j): 0.5 for j in range(1, 4)})
    return TupleIndependentTable(schema, marginals)


def wide_table(facts=64):
    return TupleIndependentTable(
        schema, {R(i): 0.2 + 0.6 * (i % 7) / 7 for i in range(facts)})


def bid_table(blocks=32):
    return BlockIndependentTable(schema, [
        Block(f"k{i}", {R(2 * i): 0.4, R(2 * i + 1): 0.35})
        for i in range(blocks)
    ])


def h0_query():
    return BooleanQuery(
        parse_formula("EXISTS x, y. R(x) AND S(x, y) AND T(y)", schema),
        schema)


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def end_to_end_rows():
    table = join_table()
    query = h0_query()
    truth = query_probability(query, table)
    rows = []
    timings = {}
    telemetry = {}
    for backend in BACKENDS:
        estimate, elapsed = timed(
            lambda b=backend: query_probability_monte_carlo(
                query, table, SAMPLES, seed=SEED, backend=b))
        timings[backend] = elapsed
        telemetry[backend] = estimate.report.to_dict()
        rows.append((
            backend, SAMPLES, elapsed, timings["scalar"] / elapsed,
            estimate.estimate, abs(estimate.estimate - truth),
        ))
    _RESULTS["end_to_end"] = {
        "truth": truth,
        "timings_s": dict(timings),
        "telemetry": telemetry,
    }
    return rows


def world_sampling_rows():
    rows = []
    for label, pdb in (("TI-64", wide_table()), ("BID-32", bid_table())):
        timings = {}
        for backend in BACKENDS:
            _, elapsed = timed(
                lambda p=pdb, b=backend: p.sample_batch(
                    SAMPLES, seed=SEED, backend=b))
            timings[backend] = elapsed
            rows.append((
                label, backend, elapsed, timings["scalar"] / elapsed,
                SAMPLES / elapsed,
            ))
    return rows


def karp_luby_rows():
    table = join_table()
    query = h0_query()
    truth = query_probability(query, table)
    rows = []
    timings = {}
    telemetry = {}
    for backend in BACKENDS:
        estimate, elapsed = timed(
            lambda b=backend: query_probability_karp_luby(
                query, table, SAMPLES, seed=SEED, backend=b))
        timings[backend] = elapsed
        telemetry[backend] = estimate.report.to_dict()
        rows.append((
            backend, elapsed, timings["scalar"] / elapsed,
            abs(estimate.estimate - truth),
        ))
    _RESULTS["karp_luby"] = {
        "truth": truth,
        "timings_s": dict(timings),
        "telemetry": telemetry,
    }
    return rows


def test_k1_end_to_end(benchmark):
    rows = benchmark.pedantic(end_to_end_rows, rounds=1, iterations=1)
    report("K1a: Monte-Carlo estimate, 10k samples (H0 join query)",
           ("backend", "samples", "seconds", "speedup", "estimate", "|err|"),
           rows)
    by_backend = {row[0]: row for row in rows}
    # The acceptance bar: pure-Python batched ≥ 3× the scalar path.
    assert by_backend["python"][3] >= 3.0
    assert all(err < 0.03 for *_, err in rows)


def test_k1_world_sampling(benchmark):
    """Raw ``sample_batch`` throughput, Instances included.

    BID batching wins big (cumulative block weights are materialised
    once instead of re-sorted per draw).  TI decoding is dominated by
    ``Instance`` construction on both paths, so batching roughly
    ties there — the Monte-Carlo engines get their speedup by model
    checking kernel rows *without* decoding to Instances at all (K1a).
    """
    rows = benchmark.pedantic(world_sampling_rows, rounds=1, iterations=1)
    report("K1b: raw world sampling, 10k worlds",
           ("table", "backend", "seconds", "speedup", "worlds/s"), rows)
    by_key = {(row[0], row[1]): row for row in rows}
    assert by_key[("BID-32", "python")][3] >= 2.0


def test_k1_karp_luby(benchmark):
    rows = benchmark.pedantic(karp_luby_rows, rounds=1, iterations=1)
    report("K1c: Karp–Luby FPRAS, 10k samples",
           ("backend", "seconds", "speedup", "|err|"), rows)
    _write_json()
    assert all(err < 0.03 for *_, err in rows)
