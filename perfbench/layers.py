"""Per-layer metrics of a traced run.

Times come from the spans of :mod:`spans` (self time: a span's duration
minus its children's).  Counts come from three places: the counts the
span wrappers attach, the call counts of :data:`spans.COUNTED`, and the
``EvalReport`` counters that every library result carries as
``.report``.  A library run reads those from the results it keeps; in the
server they ride on the spans of ``RefinementSession.refine`` and
``.refine_marginals`` (:func:`span_report_counters`).
"""

from __future__ import annotations

from collections import Counter

#: ``(name, unit)`` of every per-layer metric, in print order.
METRICS = [
    ("core.refine.self_s", "s"),
    ("core.approx.choose_s", "s"),
    ("core.prefix_cache.self_s", "s"),
    ("core.prefix_cache.facts", "count"),
    ("core.prefix_cache.hit_ratio", "ratio"),
    ("core.tuple_independent.self_s", "s"),
    ("core.tuple_independent.facts_added", "count"),
    ("core.tuple_independent.reused_facts", "count"),
    ("finite.tuple_independent.self_s", "s"),
    ("finite.tuple_independent.facts", "count"),
    ("relational.columns.self_s", "s"),
    ("relational.columns.rows_interned", "count"),
    ("relational.index.extend_s", "s"),
    ("relational.index.delta_facts", "count"),
    ("relational.index.delta_ratio", "ratio"),
    ("relational.index.probes", "count"),
    ("finite.compile_cache.self_s", "s"),
    ("finite.compile_cache.plan_hit_ratio", "ratio"),
    ("finite.compile_cache.bdd_hits", "count"),
    ("finite.compile_cache.bdd_misses", "count"),
    ("finite.compile_cache.bdd_extensions", "count"),
    ("logic.hierarchy.plans", "count"),
    ("logic.hierarchy.self_s", "s"),
    ("finite.lifted.self_s", "s"),
    ("finite.lifted.cached_groups", "count"),
    ("finite.lifted.group_rows", "count"),
    ("finite.lifted.vectorized_nodes", "count"),
    ("finite.lifted.scalar_fallbacks", "count"),
    ("utils.probability.calls", "count"),
    ("utils.probability.elements", "count"),
    ("utils.probability.self_s", "s"),
    ("logic.lineage.self_s", "s"),
    ("logic.lineage.probes", "count"),
    ("logic.lineage.joins", "count"),
    ("finite.bdd.build_s", "s"),
    ("finite.bdd.score_s", "s"),
    ("finite.bdd.nodes", "count"),
    ("finite.evaluation.self_s", "s"),
    ("finite.evaluation.answers_evaluated", "count"),
    ("finite.evaluation.answers_useful_ratio", "ratio"),
    ("parallel.wait_s", "s"),
    ("parallel.chunks", "count"),
    ("parallel.ship_delta_bytes", "bytes"),
    ("parallel.ship_full_bytes", "bytes"),
    ("parallel.worker_restarts", "count"),
    ("serve.dispatch_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.drain_s", "s"),
    ("serve.memory_hit_ratio", "ratio"),
    ("serve.refused", "count"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.unattributed_share", "ratio"),
    ("bench.generator_lag_p90_ms", "ms"),
]

#: Counts that depend on a clock: chunk sizes follow measured throughput.
TIMED_COUNTS = frozenset({"parallel.chunks"})

#: Prefix of the ``EvalReport`` counts a span carries.
REPORT_PREFIX = "report."


def _ratio(part, whole):
    return part / whole if whole else 0.0


def report_counts(report, positive):
    """The counters of one ``EvalReport``, plus its diagram size and, for
    a fan-out that reports how many answers it evaluated, the number of
    positive answers among them."""
    counts = Counter(report.counters)
    if report.bdd_nodes is not None:
        counts["bench.bdd_nodes"] += report.bdd_nodes
    if report.counters.get("fanout.answers"):
        counts["bench.useful_answers"] += positive
    return counts


def report_counters(reports):
    """:func:`report_counts` summed over ``(EvalReport, positive answers)``
    pairs."""
    total = Counter()
    for report, positive in reports:
        if report is not None:
            total.update(report_counts(report, positive))
    return total


def span_report_counters(summary):
    """:func:`report_counts` summed over the spans that carry them, under
    the ``report.`` prefix (see ``spans._report_counts``)."""
    total = Counter()
    for entry in summary.values():
        for key, value in entry.items():
            if key.startswith(REPORT_PREFIX):
                total[key[len(REPORT_PREFIX):]] += value
    return total


def compute(summary, calls, counters, extra):
    """Every metric of :data:`METRICS` from a span ``summary`` (see
    :func:`spans.summarize`), ``calls`` (counted calls), ``counters``
    (:func:`report_counters`) and ``extra`` (the ``bench.*`` values)."""

    def span(name, key="self_s"):
        return summary[name][key] if name in summary else 0.0

    def layer(prefix, key="self_s"):
        return sum(entry[key] for name, entry in summary.items()
                   if name.rsplit(".", 1)[0] == prefix)

    c = counters.get
    index_passed = span("relational.index.extend", "passed_facts")
    index_delta = span("relational.index.extend", "delta_facts")
    prefix_hits = c("prefix.cache.hits", 0)
    plans_cached = c("lifted.plan_cache_hits", 0)
    submits = span("serve.session.submit", "submits")
    values = {
        "core.refine.self_s": layer("core.refine"),
        "core.approx.choose_s": layer("core.approx"),
        "core.prefix_cache.self_s": layer("core.prefix_cache"),
        "core.prefix_cache.facts": layer("core.prefix_cache", "facts"),
        "core.prefix_cache.hit_ratio": _ratio(
            prefix_hits, prefix_hits + c("prefix.cache.extensions", 0)),
        "core.tuple_independent.self_s": layer("core.tuple_independent"),
        "core.tuple_independent.facts_added": layer("core.tuple_independent", "facts_added"),
        "core.tuple_independent.reused_facts": layer("core.tuple_independent",
                                                     "reused_facts"),
        "finite.tuple_independent.self_s": layer("finite.tuple_independent"),
        "finite.tuple_independent.facts": layer("finite.tuple_independent", "facts"),
        "relational.columns.self_s": layer("relational.columns"),
        "relational.columns.rows_interned": c("columns.interned", 0),
        "relational.index.extend_s": layer("relational.index"),
        "relational.index.delta_facts": index_delta,
        "relational.index.delta_ratio": _ratio(index_delta, index_passed),
        "relational.index.probes": calls.get("relational.index.probe_rows", 0),
        "finite.compile_cache.self_s": layer("finite.compile_cache"),
        "finite.compile_cache.plan_hit_ratio": _ratio(
            plans_cached, plans_cached + c("lifted.plans", 0)),
        "finite.compile_cache.bdd_hits": c("cache.hit", 0),
        "finite.compile_cache.bdd_misses": c("cache.miss", 0),
        "finite.compile_cache.bdd_extensions": c("cache.extension", 0),
        "logic.hierarchy.plans": span("logic.hierarchy.safe_plan_ucq", "count"),
        "logic.hierarchy.self_s": layer("logic.hierarchy"),
        "finite.lifted.self_s": layer("finite.lifted"),
        "finite.lifted.cached_groups": c("lifted.cached_groups", 0),
        "finite.lifted.group_rows": c("lifted.group_rows", 0),
        "finite.lifted.vectorized_nodes": c("lifted.vectorized_nodes", 0),
        "finite.lifted.scalar_fallbacks": c("lifted.scalar_fallbacks", 0),
        "utils.probability.calls": layer("utils.probability", "count"),
        "utils.probability.elements": layer("utils.probability", "elements"),
        "utils.probability.self_s": layer("utils.probability"),
        "logic.lineage.self_s": layer("logic.lineage"),
        "logic.lineage.probes": c("grounding.probes", 0),
        "logic.lineage.joins": c("grounding.joins", 0),
        "finite.bdd.build_s": span("finite.bdd.build"),
        "finite.bdd.score_s": span("finite.bdd.rescore") + span("finite.bdd.probability"),
        "finite.bdd.nodes": c("bench.bdd_nodes", 0),
        "finite.evaluation.self_s": layer("finite.evaluation"),
        "finite.evaluation.answers_evaluated": c("fanout.answers", 0),
        "finite.evaluation.answers_useful_ratio": _ratio(
            c("bench.useful_answers", 0), c("fanout.answers", 0)),
        "parallel.wait_s": span("parallel.map_shards", "total_s")
        + span("parallel.run_on", "total_s"),
        "parallel.chunks": c("fanout.chunks", 0),
        "parallel.ship_delta_bytes": c("fanout.ship_delta_bytes", 0),
        "parallel.ship_full_bytes": c("fanout.ship_full_bytes", 0),
        "parallel.worker_restarts": c("fanout.worker_restarts", 0),
        "serve.dispatch_s": span("serve.server.dispatch", "total_s"),
        "serve.queue_wait_s": span("serve.server.dispatch"),
        "serve.drain_s": span("serve.session.drain_one", "total_s"),
        "serve.memory_hit_ratio": _ratio(
            span("serve.session.submit", "memory_hits"), submits),
        "serve.refused": span("serve.server.dispatch", "refused"),
    }
    values.update(extra)
    return values
