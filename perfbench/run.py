"""End-to-end benchmark of the repro library and its server.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with tracing off; their times are scaled to a reference machine speed
(see ``measure.Clock``), and the scale is printed as ``speed``.
``--trace 1`` runs a fixed, seed-determined amount of the same work
twice, untraced and then traced, checks that both give the same answers,
and reports the per-layer metrics of the traced pass.

Every run checks its answers outside the timed phase.  Human-readable
lines go to standard output first; the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every answer was right, 1 when one was wrong, and 2 when
the checkout holds no library to run.

The workloads, their sizes and the limits found while sizing them are
described in ``perfbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

LIBRARY_WORKLOADS = ("zeta-sweep", "geometric-sweep", "marginals-sweep")
WORKLOADS = LIBRARY_WORKLOADS + ("serve-mixed",)

#: Rounds of work in a traced library run: enough for every span to fire,
#: small enough to run twice within the run's time.
TRACE_ROUNDS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end_units():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}


def emit(metrics, samples, units, correct, attempted, failed):
    """Print one line per metric, then the JSON result line."""
    for name, unit in units.items():
        count = samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"{name:42s} {metrics[name]:>16.6g} {unit}{suffix}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": _number(metrics[name], unit), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))


def _number(value, unit):
    return int(round(value)) if unit in ("count", "bytes") else float(value)


# ------------------------------------------------------------------ library
def library_end_to_end(name, seed, seconds):
    import library
    import measure

    library.warm_up(name, seed)
    record = library.run(name, seed, seconds)
    library.check(name, seed, record)
    metrics = {
        "setup_s": measure.median(record.setups),
        "step_p50_ms": measure.median(record.steps) * 1000.0,
        "step_p90_ms": measure.percentile(record.steps, 90) * 1000.0,
        "facts_per_s": record.sweep_facts / record.sweep_seconds if record.sweeps else 0.0,
        "oneshot_s": measure.mean([measure.median(seconds)
                                   for seconds in record.oneshots.values()]),
        "peak_rss_mb": record.rss_mb,
    }
    samples = {
        "setup_s": len(record.setups),
        "step_p50_ms": len(record.steps),
        "step_p90_ms": len(record.steps),
        "facts_per_s": record.sweeps,
        "oneshot_s": sum(len(seconds) for seconds in record.oneshots.values()),
    }
    for clock in (record.clock, record.pool_clock):
        if clock.raw:
            print(f"{'speed':42s} {clock.speed():>16.6g} reference s per wall s  "
                  f"(n={len(clock.raw)}, every CPU: {clock.every_cpu})")
    if record.marginal_seconds:
        print(f"{'answers_per_s':42s} {record.answers / record.marginal_seconds:>16.6g} "
              f"answers/s  (n={record.answers})")
    return metrics, samples, record


def library_traced(name, seed):
    import layers
    import library
    import measure
    import spans

    rounds = TRACE_ROUNDS
    library.warm_up(name, seed)
    # Both passes on one speed-scaled clock, so that the machine's drift
    # between them does not read as tracing overhead.
    clock = measure.Clock(every_cpu=library.WORKLOADS[name].pooled)
    clock.start()
    plain = library.run(name, seed, 0, rounds=rounds)
    plain_s = clock.stop()
    tracer = spans.Tracer()
    tracer.install()
    try:
        clock.start()
        traced = library.run(name, seed, 0, rounds=rounds)
        traced_s = clock.stop()
    finally:
        tracer.uninstall()
    library.check(name, seed, plain)
    if traced.outputs + traced.shots != plain.outputs + plain.shots:
        plain.fail("traced run's answers differ from the untraced run's", wrong=True)
    exported = tracer.export()
    summary, root_self = spans.summarize(exported)
    extra = {
        "bench.trace_overhead_share": traced_s / plain_s - 1.0,
        # Spans hold wall times, so the traced pass's wall time divides them.
        "bench.unattributed_share": root_self / clock.raw[-1],
        "bench.generator_lag_p90_ms": 0.0,
    }
    metrics = layers.compute(summary, exported["calls"],
                             layers.report_counters(traced.reports), extra)
    fired = {name: int(entry["spans"]) for name, entry in sorted(summary.items())}
    print("spans " + json.dumps(fired))
    plain.absorb(traced)
    return metrics, plain


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}/repro; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers

    if args.workload == "serve-mixed":
        import serve_load

        if args.trace:
            metrics, run = serve_load.traced(args.seed, args.seconds)
        else:
            metrics, samples, run = serve_load.end_to_end(args.seed, args.seconds)
    elif args.trace:
        metrics, run = library_traced(args.workload, args.seed)
    else:
        metrics, samples, run = library_end_to_end(args.workload, args.seed, args.seconds)

    failed = run.failed
    attempted = max(run.attempted, 1)
    print(f"{'failed_share':42s} {failed / attempted:>16.6g} ratio  (n={attempted})")
    for line in run.errors + run.wrong:
        print(f"FAILED: {line}")
    correct = not run.wrong
    if args.trace:
        units = dict(layers.METRICS)
        emit(metrics, {}, units, correct, attempted, failed)
    else:
        emit(metrics, samples, end_to_end_units(), correct, attempted, failed)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
