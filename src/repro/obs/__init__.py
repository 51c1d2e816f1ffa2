"""Evaluation observability: structured metrics, traces, and reports.

The zero-dependency instrumentation layer of the Proposition 6.1
pipeline (see DESIGN.md §Observability).  Subsystems record through the
module-level helpers (:func:`incr`, :func:`gauge`, :func:`event`,
:func:`note`, :func:`phase`) — free when no trace is active — and every
public evaluation entry point opens a :func:`trace` scope and attaches
an :class:`EvalReport` to its result via :func:`attach_report`.
"""

from repro.obs.trace import (
    EvalTrace,
    TraceEvent,
    clear_trace_stack,
    current_trace,
    event,
    gauge,
    gauge_max,
    incr,
    note,
    phase,
    trace,
)
from repro.obs.report import (
    REPORT_SCHEMA,
    AnswerMarginals,
    EvalReport,
    TracedProbability,
    attach_report,
    validate_report_dict,
)

__all__ = [
    "EvalTrace",
    "TraceEvent",
    "current_trace",
    "clear_trace_stack",
    "trace",
    "incr",
    "gauge",
    "gauge_max",
    "event",
    "note",
    "phase",
    "EvalReport",
    "REPORT_SCHEMA",
    "AnswerMarginals",
    "TracedProbability",
    "attach_report",
    "validate_report_dict",
]
