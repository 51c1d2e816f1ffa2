"""Spans recorded from outside the library, around each layer's public calls.

Tracing is off unless :meth:`Tracer.install` is called.  It replaces
every call listed in :data:`PATCHES` with a wrapper at the name its
caller looks it up by: methods on their class, functions in every module
that imported them by name.  A wrapper records one span ``[name, start,
end, parent, root, counts]`` per call; spans stay in memory until the run
ends, when :func:`summarize` folds them into per-span-name figures for
:mod:`layers`.

The current span lives in a :class:`contextvars.ContextVar`, so spans nest
correctly across threads and asyncio tasks.  A call whose innermost open
span has the same name (a recursive call) records no span of its own.
Spans named in :data:`ROOTS` always start a new root; any other span opened
with no enclosing span is a root too.  A root id therefore names one sweep
step, one one-shot call, one serve request or one background drain.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

import layers


def _len(value):
    try:
        return len(value)
    except TypeError:
        return 0


def _elements(args, kwargs, result, parent, before):
    # segmented_*(np, values, offsets), vector_*(np, marginals) and
    # FloatColumn.segmented_*(self, rows, offsets): the second argument.
    return {"elements": _len(args[1]) if len(args) > 1 else 0}


def _facts_returned(args, kwargs, result, parent, before):
    return {"facts": _len(result)}


def _truncate_counts(args, kwargs, result, parent, before):
    return {"facts_added": _len(result)}


def _extend_truncation_counts(args, kwargs, result, parent, before):
    n = args[2] if len(args) > 2 else kwargs["n"]
    return {"facts_added": max(0, int(n) - int(result)), "reused_facts": int(result)}


def _table_init_facts(args, kwargs, result, parent, before):
    return {"facts": _len(args[2] if len(args) > 2 else kwargs.get("marginals"))}


def _table_extend_facts(args, kwargs, result, parent, before):
    return {"facts": _len(args[1] if len(args) > 1 else kwargs.get("marginals"))}


def _index_extend(args, kwargs, result, parent, before):
    # The constructor's own extend is a build, not a delta patch.
    if parent is not None and parent[0] == "relational.index.construct":
        return None
    facts = args[1] if len(args) > 1 else kwargs.get("facts")
    return {"delta_facts": int(result), "passed_facts": _len(facts)}


def _report_counts(args, kwargs, result, parent, before):
    # Every RefinementSession.refine / .refine_marginals call computes
    # afresh, so each report is counted once; answers from memory make no
    # such call.  The answers of one refine_marginals call share a report.
    results = list(result.values()) if isinstance(result, dict) else [result]
    report = getattr(results[0], "report", None) if results else None
    if report is None:
        return None
    positive = sum(1 for r in results if r.value > 0) if isinstance(result, dict) else 0
    return {layers.REPORT_PREFIX + key: value
            for key, value in layers.report_counts(report, positive).items()}


def _submit_before(args, kwargs):
    # The first branch of ManagedSession.submit: the remembered best
    # already certifies the request, so it is answered from memory.
    managed, epsilon = args[0], float(args[1])
    wait = kwargs.get("wait", args[2] if len(args) > 2 else False)
    best = managed.best
    return best is not None and best.epsilon <= epsilon and not wait


def _submit_counts(args, kwargs, result, parent, before):
    return {"submits": 1, "memory_hits": int(before)}


class Patch(NamedTuple):
    """One wrapped call.  ``target`` is ``module:attr`` or
    ``module:Class.method``; ``count`` maps ``(args, kwargs, result,
    parent span, before)`` to the counts stored on the span, where
    ``before`` is what ``before(args, kwargs)`` returned ahead of the
    call."""

    target: str
    name: str
    count: Optional[Callable] = None
    before: Optional[Callable] = None


PATCHES = [
    # core.refine — the entry points every sweep step goes through.
    ("repro.core.refine:RefinementSession.refine", "core.refine.refine", _report_counts),
    ("repro.core.refine:RefinementSession.refine_marginals",
     "core.refine.refine_marginals", _report_counts),
    # core.approx
    ("repro.core.refine:choose_truncation", "core.approx.choose_truncation", None),
    ("repro.core.approx:choose_truncation", "core.approx.choose_truncation", None),
    # core.prefix_cache — enumeration happens under extend_to.
    ("repro.core.prefix_cache:PrefixCache.pairs", "core.prefix_cache.pairs",
     _facts_returned),
    ("repro.core.prefix_cache:PrefixCache.prefix", "core.prefix_cache.prefix",
     _facts_returned),
    ("repro.core.prefix_cache:PrefixCache.marginals_dict",
     "core.prefix_cache.marginals_dict", _facts_returned),
    ("repro.core.prefix_cache:PrefixCache.extend_to", "core.prefix_cache.extend_to",
     None),
    # core.tuple_independent
    ("repro.core.tuple_independent:CountableTIPDB.truncate",
     "core.tuple_independent.truncate", _truncate_counts),
    ("repro.core.tuple_independent:CountableTIPDB.extend_truncation",
     "core.tuple_independent.extend_truncation", _extend_truncation_counts),
    # finite.tuple_independent
    ("repro.finite.tuple_independent:TupleIndependentTable.__init__",
     "finite.tuple_independent.construct", _table_init_facts),
    ("repro.finite.tuple_independent:TupleIndependentTable.extend",
     "finite.tuple_independent.extend", _table_extend_facts),
    # relational.columns
    ("repro.relational.columns:ColumnStore.intern", "relational.columns.intern", None),
    ("repro.relational.columns:ColumnStore.extend_items",
     "relational.columns.extend_items", None),
    ("repro.relational.columns:FloatColumn.extend", "relational.columns.float_extend",
     None),
    # relational.index — probe_rows is counted, not timed (see COUNTED).
    ("repro.relational.index:FactIndex.__init__", "relational.index.construct", None),
    ("repro.relational.index:FactIndex.extend", "relational.index.extend",
     _index_extend),
    # finite.compile_cache
    ("repro.finite.compile_cache:CompileCache.lifted", "finite.compile_cache.lifted",
     None),
    ("repro.finite.compile_cache:CompileCache.compiled",
     "finite.compile_cache.compiled", None),
    # logic.hierarchy (callers import it at call time from the module)
    ("repro.logic.hierarchy:safe_plan_ucq", "logic.hierarchy.safe_plan_ucq", None),
    # finite.lifted
    ("repro.finite.evaluation:query_probability_lifted",
     "finite.lifted.query_probability_lifted", None),
    ("repro.finite.lifted:query_probability_lifted",
     "finite.lifted.query_probability_lifted", None),
    # logic.lineage
    ("repro.logic.lineage:lineage_of", "logic.lineage.lineage_of", None),
    ("repro.finite.compile_cache:lineage_of", "logic.lineage.lineage_of", None),
    ("repro.finite.lineage_eval:lineage_of", "logic.lineage.lineage_of", None),
    # finite.bdd
    ("repro.finite.bdd:BDDManager.build", "finite.bdd.build", None),
    ("repro.finite.bdd:BDDManager.rescore", "finite.bdd.rescore", None),
    ("repro.finite.bdd:BDDManager.probability", "finite.bdd.probability", None),
    # finite.evaluation
    ("repro.core.refine:query_probability", "finite.evaluation.query_probability",
     None),
    ("repro.finite.evaluation:query_probability",
     "finite.evaluation.query_probability", None),
    ("repro.core.refine:marginal_answer_probabilities",
     "finite.evaluation.marginal_answer_probabilities", None),
    ("repro.finite.evaluation:marginal_answer_probabilities",
     "finite.evaluation.marginal_answer_probabilities", None),
    # parallel — the parent's side only; worker time is its wait.
    ("repro.parallel.shipping:pooled_answer_marginals",
     "parallel.pooled_answer_marginals", None),
    ("repro.parallel.pool:ShardPool.map_shards", "parallel.map_shards", None),
    ("repro.parallel.pool:ShardPool.run_on", "parallel.run_on", None),
    # serve
    ("repro.serve.server:QueryServer.dispatch", "serve.server.dispatch", None),
    ("repro.serve.session:ManagedSession.submit", "serve.session.submit", _submit_counts,
     _submit_before),
    ("repro.serve.session:ManagedSession.sweep", "serve.session.sweep", None),
    ("repro.serve.session:ManagedSession.marginals", "serve.session.marginals", None),
    ("repro.serve.session:ManagedSession.drain_one", "serve.session.drain_one", None),
    ("repro.serve.session:SessionManager.create", "serve.session.create", None),
]

# utils.probability: the fold kernels, patched where they are looked up.
for _name in ("segmented_complement_product", "segmented_disjunction",
              "segmented_log_complement", "vector_log_complement",
              "vector_complement_product", "vector_disjunction"):
    for _module in ("repro.utils.probability", "repro.relational.columns"):
        PATCHES.append((f"{_module}:{_name}", f"utils.probability.{_name}",
                        _elements))
PATCHES.append(("repro.finite.lifted:segmented_disjunction",
                "utils.probability.segmented_disjunction", _elements))
for _name in ("segmented_complement_product", "segmented_disjunction",
              "segmented_log_complement"):
    PATCHES.append((f"repro.relational.columns:FloatColumn.{_name}",
                    f"utils.probability.column_{_name}", _elements))
PATCHES = [Patch(*entry) for entry in PATCHES]

#: Calls that are only counted: they are too small and too frequent for a
#: span each, and no metric needs their time.
COUNTED = [
    ("repro.relational.index:FactIndex.probe_rows", "relational.index.probe_rows"),
]

#: Spans that always begin a new root, whatever encloses them: a serve
#: request and a background drain step are units of work of their own.
ROOTS = frozenset({"serve.server.dispatch", "serve.session.drain_one"})


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(itertools.count)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._root_ids = itertools.count(1)
        self._restore = []

    # ------------------------------------------------------------ wrappers
    def _sync_wrapper(self, func, patch):
        current, spans, clock, roots = (
            self._current, self.spans, time.perf_counter, self._root_ids)
        name, count, before = patch.name, patch.count, patch.before
        force_root = name in ROOTS

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = current.get()
            if parent is not None and parent[0] == name:
                return func(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            if force_root or parent is None:
                parent, root = None, next(roots)
            else:
                root = parent[4]
            record = [name, clock(), 0.0, parent, root, None]
            token = current.set(record)
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = clock()
                current.reset(token)
                spans.append(record)
            if count is not None:
                record[5] = count(args, kwargs, result, parent, state)
            return result

        return wrapper

    def _async_wrapper(self, func, patch):
        current, spans, clock, roots = (
            self._current, self.spans, time.perf_counter, self._root_ids)
        name = patch.name

        @functools.wraps(func)
        async def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, None, next(roots), None]
            token = current.set(record)
            try:
                result = await func(*args, **kwargs)
            finally:
                record[2] = clock()
                current.reset(token)
                spans.append(record)
            if isinstance(result, dict) and result.get("ok") is False:
                record[5] = {"refused": 1}
            return result

        return wrapper

    def _count_wrapper(self, func, key):
        counter = self.counts[key]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            next(counter)
            return func(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------- install
    def install(self):
        """Patch every target in :data:`PATCHES` and :data:`COUNTED`."""
        for patch in PATCHES:
            owner, attr, func = _resolve(patch.target)
            if inspect.iscoroutinefunction(func):
                wrapped = self._async_wrapper(func, patch)
            else:
                wrapped = self._sync_wrapper(func, patch)
            self._patch(owner, attr, wrapped)
        for target, key in COUNTED:
            owner, attr, func = _resolve(target)
            self._patch(owner, attr, self._count_wrapper(func, key))
        self._patch_serve_context()

    def _patch_serve_context(self):
        """Run the server's blocking calls in a copy of the calling
        context, so that a session call's span knows the request it
        serves: ``run_in_executor`` alone does not carry context
        variables into the thread."""
        import asyncio

        from repro.serve.server import QueryServer

        async def _blocking(server, func, *args, **kwargs):
            loop = asyncio.get_running_loop()
            context = contextvars.copy_context()
            return await loop.run_in_executor(
                server._pool,
                functools.partial(context.run, func, *args, **kwargs))

        self._patch(QueryServer, "_blocking", _blocking)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        """Undo :meth:`install`, newest patch first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- export
    def export(self):
        """Spans as JSON-ready rows ``[name, start, end, parent index,
        root, counts]``, plus the call counts of :data:`COUNTED`."""
        spans = list(self.spans)
        index = {id(record): i for i, record in enumerate(spans)}
        rows = [
            [name, start, end,
             None if parent is None else index[id(parent)], root, counts]
            for name, start, end, parent, root, counts in spans
        ]
        return {"spans": rows,
                "calls": {key: next(c) for key, c in self.counts.items()}}


def _resolve(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


def _union(intervals):
    total, end = 0.0, float("-inf")
    for start, stop in sorted(intervals):
        if stop > end:
            total += stop - max(start, end)
            end = stop
    return total


def summarize(exported):
    """Fold exported spans into ``{span name: {"count", "total_s",
    "self_s", <counts>}}`` plus the summed self time of the root spans.

    A span's self time is its duration minus the union of its children's
    intervals.  A span whose parent is in the same layer is nested work
    of that layer: it adds self time but no call and no counts, so
    ``count``, ``outer_s`` and the counts describe calls into the layer
    from outside it.
    """
    rows = exported["spans"]
    children = defaultdict(list)
    for name, start, end, parent, root, counts in rows:
        if parent is not None:
            children[parent].append((start, end))
    summary = defaultdict(lambda: defaultdict(float))
    root_self = 0.0
    for i, (name, start, end, parent, root, counts) in enumerate(rows):
        own = (end - start) - _union(children.get(i, ()))
        entry = summary[name]
        entry["spans"] += 1
        entry["self_s"] += own
        entry["total_s"] += end - start
        if parent is None or layer_of(rows[parent][0]) != layer_of(name):
            entry["count"] += 1
            entry["outer_s"] += end - start
            for key, value in (counts or {}).items():
                entry[key] += value
        if parent is None:
            root_self += own
    return summary, root_self


def layer_of(span_name):
    return span_name.rsplit(".", 1)[0]
