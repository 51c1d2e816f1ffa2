"""Thread-local evaluation traces: counters, gauges, timers, events.

The observability layer every entry point of the Proposition 6.1
pipeline reports through.  Design constraints:

* **zero dependencies** — standard library only;
* **near-zero cost when idle** — every helper starts with one
  thread-local read and returns immediately if no trace is active, so
  instrumented hot paths pay a dict lookup, not a feature;
* **nestable** — entry points call each other (``approximate_query_probability``
  → ``query_probability`` → the compile cache), so traces form a
  thread-local *stack* and every recording is applied to **all** active
  traces: an outer trace sees everything its callees did, while each
  callee still gets a self-contained trace for its own
  :class:`~repro.obs.report.EvalReport`.

Instrumented code never touches :class:`EvalTrace` objects directly; it
calls the module-level helpers (:func:`incr`, :func:`gauge`,
:func:`event`, :func:`note`, :func:`phase`), which are no-ops outside
any :func:`trace` scope.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional


class TraceEvent(NamedTuple):
    """One structured trace event: a name plus a small payload dict."""

    name: str
    payload: Dict[str, object]


class EvalTrace:
    """A mutable recording of one evaluation: counters, gauges, phase
    timings, events, and free-form metadata.

    >>> with trace() as t:
    ...     incr("cache.hit")
    ...     gauge("truncation.n", 7)
    >>> t.counters["cache.hit"], t.gauges["truncation.n"]
    (1, 7.0)
    """

    __slots__ = ("counters", "gauges", "timings", "events", "meta")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.timings: Dict[str, float] = {}
        self.events: List[TraceEvent] = []
        self.meta: Dict[str, object] = {}

    # ------------------------------------------------------------ recording
    def incr(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def add_time(self, name: str, seconds: float) -> None:
        self.timings[name] = self.timings.get(name, 0.0) + seconds

    def event(self, name: str, **payload: object) -> None:
        self.events.append(TraceEvent(name, payload))

    def note(self, **meta: object) -> None:
        self.meta.update(meta)

    def __repr__(self) -> str:
        return (
            f"EvalTrace(counters={self.counters!r}, gauges={self.gauges!r}, "
            f"timings={list(self.timings)!r}, events={len(self.events)})"
        )


_LOCAL = threading.local()


def _stack() -> List[EvalTrace]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def current_trace() -> Optional[EvalTrace]:
    """The innermost active trace of this thread, or None."""
    stack = getattr(_LOCAL, "stack", None)
    return stack[-1] if stack else None


def clear_trace_stack() -> None:
    """Deactivate every trace of this thread.

    A forked process starts as a copy of the thread that forked it,
    trace stack included; a pool worker calls this before it serves
    anything, so its recordings do not pile up in a dead copy of the
    parent's trace."""
    _LOCAL.stack = []


@contextmanager
def trace() -> Iterator[EvalTrace]:
    """Activate a fresh :class:`EvalTrace` for the dynamic extent.

    Nested scopes stack: recordings go to every active trace, so an
    outer scope's trace includes everything nested entry points record.
    """
    t = EvalTrace()
    stack = _stack()
    stack.append(t)
    try:
        yield t
    finally:
        stack.pop()


# ------------------------------------------------- module-level recorders
def incr(name: str, by: int = 1) -> None:
    """Add ``by`` to counter ``name`` on every active trace (no-op when
    no trace is active)."""
    stack = getattr(_LOCAL, "stack", None)
    if not stack:
        return
    for t in stack:
        t.incr(name, by)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` (last write wins) on every active trace."""
    stack = getattr(_LOCAL, "stack", None)
    if not stack:
        return
    for t in stack:
        t.gauge(name, value)


def gauge_max(name: str, value: float) -> None:
    """Set gauge ``name`` to the max of its current and ``value`` — for
    quantities like per-answer sampling error where the fan-out's report
    should carry the worst case."""
    stack = getattr(_LOCAL, "stack", None)
    if not stack:
        return
    value = float(value)
    for t in stack:
        previous = t.gauges.get(name)
        if previous is None or value > previous:
            t.gauges[name] = value


def event(name: str, **payload: object) -> None:
    """Append a structured event to every active trace."""
    stack = getattr(_LOCAL, "stack", None)
    if not stack:
        return
    for t in stack:
        t.event(name, **payload)


def note(**meta: object) -> None:
    """Merge free-form metadata (e.g. ``strategy="bdd"``) into every
    active trace."""
    stack = getattr(_LOCAL, "stack", None)
    if not stack:
        return
    for t in stack:
        t.note(**meta)


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Time a named phase; the wall-clock duration is accumulated into
    ``timings[name]`` of every active trace.  Free when idle."""
    stack = getattr(_LOCAL, "stack", None)
    if not stack:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        for t in stack:
            t.add_time(name, elapsed)
