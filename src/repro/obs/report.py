"""The :class:`EvalReport` attached to every evaluation result.

An :class:`EvalReport` is the structured summary of one evaluation run,
distilled from an :class:`~repro.obs.trace.EvalTrace`: which strategy
actually fired, truncation size, its certified tail δ and the rule
that stopped there, achieved α versus requested ε, the fold-error bound,
compile-cache hit/miss/extension counts and diagram node counts,
sampling batch counts and estimated standard error, and wall-clock per
phase.  It renders both human-readable (``render()``) and as JSON
(``to_json()``), and :data:`REPORT_SCHEMA` documents the JSON shape so
CI can validate ``--stats json`` output with
:func:`validate_report_dict`.

Results keep their existing types (floats, dicts, NamedTuples): the
report rides along as a ``.report`` attribute via :func:`attach_report`,
which substitutes a transparent subclass when the original type cannot
carry attributes.  Equality, hashing, arithmetic, and unpacking are all
unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Type

from repro.obs.trace import EvalTrace

#: Counter names the instrumented subsystems use (also the contract the
#: Hypothesis counter-consistency tests check against).
CACHE_HIT = "cache.hit"
CACHE_MISS = "cache.miss"
CACHE_EXTENSION = "cache.extension"
SAMPLING_BATCHES = "sampling.batches"
SAMPLING_SAMPLES = "sampling.samples"
STREAM_CHILD_SEEDS = "stream.child_seeds"
PREFIX_CACHE_HITS = "prefix.cache.hits"
PREFIX_CACHE_EXTENSIONS = "prefix.cache.extensions"
REFINE_REUSED_FACTS = "refine.reused_facts"

#: Gauge names.
GAUGE_TRUNCATION = "truncation.n"
GAUGE_ALPHA = "truncation.alpha"
GAUGE_TAIL = "truncation.tail"
GAUGE_FOLD_ERROR = "fold.error"
GAUGE_EPSILON = "truncation.epsilon"
GAUGE_HALF_WIDTH = "sampling.half_width"
GAUGE_STD_ERROR = "sampling.std_error"
GAUGE_BDD_NODES = "bdd.nodes"


@dataclass
class EvalReport:
    """Structured telemetry of one evaluation/approximation run."""

    #: The strategy that actually fired (``"auto"`` resolves to the
    #: concrete engine, e.g. ``"lifted"`` or ``"bdd"``).
    strategy: Optional[str] = None
    #: Requested additive guarantee ε (approximation entry points only).
    epsilon: Optional[float] = None
    #: Truncation size n actually used.
    truncation: Optional[int] = None
    #: δ, the certified ``tail(n)`` that stopped the truncation search —
    #: the width of the certified enclosure.
    tail: Optional[float] = None
    #: The rule that chose n (``repro.core.approx.STOPPING_RULE``).
    stopping_rule: Optional[str] = None
    #: Achieved ``α_n = (3/2)·tail(n)`` (claim (∗)'s quantity).
    alpha: Optional[float] = None
    #: Forward-error bound of the floating-point evaluation, added to
    #: both ends of the enclosure.
    fold_error: Optional[float] = None
    #: Monte-Carlo confidence-bound on the sampled conditional
    #: (0 when every evaluation was exact).
    sampling_error: float = 0.0
    #: Estimated standard error of the latest sampling estimate.
    sampling_std_error: Optional[float] = None
    #: Worlds drawn and batches issued across all sampling phases.
    samples: int = 0
    sample_batches: int = 0
    #: Compile-cache telemetry.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_extensions: int = 0
    #: Nodes of the most recently compiled diagram.
    bdd_nodes: Optional[int] = None
    #: Wall-clock seconds per named phase.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Raw counters (superset of the dedicated fields above).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Structured trace events, e.g. the fan-out pickle fallback.
    events: List[Dict[str, object]] = field(default_factory=list)

    # ----------------------------------------------------------- builders
    @classmethod
    def from_trace(cls, trace: EvalTrace, **overrides: object) -> "EvalReport":
        """Distill a finished trace into a report; ``overrides`` set
        fields the caller knows better (e.g. ``epsilon``)."""
        counters = dict(trace.counters)
        gauges = trace.gauges
        truncation = gauges.get(GAUGE_TRUNCATION)
        report = cls(
            strategy=trace.meta.get("strategy"),
            epsilon=gauges.get(GAUGE_EPSILON),
            truncation=None if truncation is None else int(truncation),
            tail=gauges.get(GAUGE_TAIL),
            stopping_rule=trace.meta.get("stopping_rule"),
            alpha=gauges.get(GAUGE_ALPHA),
            fold_error=gauges.get(GAUGE_FOLD_ERROR),
            sampling_error=gauges.get(GAUGE_HALF_WIDTH, 0.0),
            sampling_std_error=gauges.get(GAUGE_STD_ERROR),
            samples=counters.get(SAMPLING_SAMPLES, 0),
            sample_batches=counters.get(SAMPLING_BATCHES, 0),
            cache_hits=counters.get(CACHE_HIT, 0),
            cache_misses=counters.get(CACHE_MISS, 0),
            cache_extensions=counters.get(CACHE_EXTENSION, 0),
            bdd_nodes=(
                None if GAUGE_BDD_NODES not in gauges
                else int(gauges[GAUGE_BDD_NODES])
            ),
            timings=dict(trace.timings),
            counters=counters,
            events=[
                {"name": e.name, **e.payload} for e in trace.events
            ],
        )
        for name, value in overrides.items():
            setattr(report, name, value)
        return report

    # ---------------------------------------------------------- renderers
    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dict matching :data:`REPORT_SCHEMA`."""
        return {
            "strategy": self.strategy,
            "epsilon": self.epsilon,
            "truncation": self.truncation,
            "tail": self.tail,
            "stopping_rule": self.stopping_rule,
            "alpha": self.alpha,
            "fold_error": self.fold_error,
            "sampling_error": self.sampling_error,
            "sampling_std_error": self.sampling_std_error,
            "samples": self.samples,
            "sample_batches": self.sample_batches,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "extensions": self.cache_extensions,
            },
            "bdd_nodes": self.bdd_nodes,
            "timings_s": dict(self.timings),
            "counters": dict(self.counters),
            "events": list(self.events),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Human-readable multi-line summary for the CLI ``--stats``."""
        lines = ["eval report"]
        if self.strategy is not None:
            lines.append(f"  strategy        : {self.strategy}")
        if self.epsilon is not None:
            lines.append(f"  epsilon         : {self.epsilon:g}")
        if self.truncation is not None:
            notes = []
            if self.tail is not None:
                notes.append(f"tail {self.tail:.4g}")
            if self.alpha is not None:
                notes.append(f"alpha {self.alpha:.3g}")
            detail = f"  ({', '.join(notes)})" if notes else ""
            lines.append(f"  truncation n    : {self.truncation}{detail}")
        if self.stopping_rule is not None:
            lines.append(f"  stopping rule   : {self.stopping_rule}")
        if self.fold_error is not None:
            lines.append(f"  fold error      : <= {self.fold_error:.3g}")
        if self.samples:
            lines.append(
                f"  samples         : {self.samples} "
                f"in {self.sample_batches} batches"
            )
            if self.sampling_error:
                lines.append(
                    f"  sampling error  : ±{self.sampling_error:.4g}"
                    + (
                        f"  (std err {self.sampling_std_error:.4g})"
                        if self.sampling_std_error
                        else ""
                    )
                )
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"  compile cache   : {self.cache_hits} hits, "
                f"{self.cache_misses} misses, "
                f"{self.cache_extensions} extensions"
            )
        if self.bdd_nodes is not None:
            lines.append(f"  bdd nodes       : {self.bdd_nodes}")
        prefix_hits = self.counters.get(PREFIX_CACHE_HITS, 0)
        prefix_extensions = self.counters.get(PREFIX_CACHE_EXTENSIONS, 0)
        if prefix_hits or prefix_extensions:
            lines.append(
                f"  prefix cache    : {prefix_hits} hits, "
                f"{prefix_extensions} extensions"
            )
        if REFINE_REUSED_FACTS in self.counters:
            lines.append(
                "  refine reuse    : "
                f"{self.counters[REFINE_REUSED_FACTS]} facts"
            )
        for name in sorted(self.timings):
            lines.append(f"  t[{name:<12}] : {self.timings[name]:.6f}s")
        for entry in self.events:
            payload = {k: v for k, v in entry.items() if k != "name"}
            lines.append(f"  event           : {entry.get('name')} {payload}")
        return "\n".join(lines)


#: The documented shape of :meth:`EvalReport.to_dict` — the contract the
#: CI ``--stats json`` smoke job validates against (see DESIGN.md).
REPORT_SCHEMA: Dict[str, object] = {
    "strategy": (str, type(None)),
    "epsilon": (int, float, type(None)),
    "truncation": (int, type(None)),
    "tail": (int, float, type(None)),
    "stopping_rule": (str, type(None)),
    "alpha": (int, float, type(None)),
    "fold_error": (int, float, type(None)),
    "sampling_error": (int, float),
    "sampling_std_error": (int, float, type(None)),
    "samples": (int,),
    "sample_batches": (int,),
    "cache": dict,
    "bdd_nodes": (int, type(None)),
    "timings_s": dict,
    "counters": dict,
    "events": list,
}

_CACHE_SCHEMA = {"hits": (int,), "misses": (int,), "extensions": (int,)}


def validate_report_dict(payload: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``payload`` matches
    :data:`REPORT_SCHEMA` (key set and value types, booleans rejected
    where ints are expected)."""
    if not isinstance(payload, dict):
        raise ValueError(f"report must be a dict, got {type(payload).__name__}")
    missing = set(REPORT_SCHEMA) - set(payload)
    extra = set(payload) - set(REPORT_SCHEMA)
    if missing or extra:
        raise ValueError(
            f"report keys mismatch: missing {sorted(missing)}, "
            f"unexpected {sorted(extra)}"
        )
    for key, expected in REPORT_SCHEMA.items():
        value = payload[key]
        if expected is dict or expected is list:
            if not isinstance(value, expected):
                raise ValueError(f"{key!r} must be {expected.__name__}")
            continue
        if isinstance(value, bool) or not isinstance(value, expected):
            raise ValueError(
                f"{key!r} has type {type(value).__name__}, "
                f"expected one of {[t.__name__ for t in expected]}"
            )
    cache = payload["cache"]
    missing = set(_CACHE_SCHEMA) - set(cache)
    if missing:
        raise ValueError(f"cache block missing keys {sorted(missing)}")
    for key, expected in _CACHE_SCHEMA.items():
        value = cache[key]
        if isinstance(value, bool) or not isinstance(value, expected):
            raise ValueError(f"cache[{key!r}] must be an int")
    for name, seconds in payload["timings_s"].items():
        if not isinstance(name, str) or isinstance(seconds, bool) or \
                not isinstance(seconds, (int, float)):
            raise ValueError(f"timings_s[{name!r}] must map str -> seconds")


# -------------------------------------------------------- result carriers
class TracedProbability(float):
    """A probability (plain ``float`` semantics) carrying a ``.report``."""

    __slots__ = ("report",)


class AnswerMarginals(dict):
    """An answer-marginals dict (plain ``dict`` semantics) with a
    ``.report`` attribute."""

    __slots__ = ("report",)


_SHADOW_CLASSES: Dict[type, type] = {}


def _rebuild_shadow(base_cls: type, values: tuple, report):
    """Pickle reconstructor for shadow-class carriers: re-derive the
    shadow from its (module-level, picklable) base class."""
    instance = _shadow_class(base_cls)(*values)
    if report is not None:
        instance.report = report
    return instance


def _shadow_reduce(self):
    return (
        _rebuild_shadow,
        (type(self).__mro__[1], tuple(self), getattr(self, "report", None)),
    )


def _shadow_class(cls: type) -> Type:
    """A subclass of ``cls`` whose instances accept attribute assignment
    (NamedTuples declare ``__slots__ = ()``; the subclass does not, so it
    gains a ``__dict__``).  Tuple semantics — equality, unpacking, field
    access — are inherited unchanged.  The generated class is not
    importable by name, so it pickles via :func:`_rebuild_shadow` —
    session snapshots carry refinement histories made of these."""
    shadow = _SHADOW_CLASSES.get(cls)
    if shadow is None:
        shadow = type(
            f"Traced{cls.__name__}", (cls,), {"__reduce__": _shadow_reduce})
        _SHADOW_CLASSES[cls] = shadow
    return shadow


def attach_report(result, report: EvalReport):
    """Return ``result`` carrying ``report`` as a ``.report`` attribute,
    substituting a transparent subclass where needed.

    >>> p = attach_report(0.75, EvalReport(strategy="lifted"))
    >>> p == 0.75 and p.report.strategy == "lifted"
    True
    """
    try:
        result.report = report
        return result
    except (AttributeError, TypeError):
        pass
    if isinstance(result, float):
        traced = TracedProbability(result)
    elif isinstance(result, tuple):
        traced = _shadow_class(type(result))(*result)
    elif isinstance(result, dict):
        traced = AnswerMarginals(result)
    else:  # pragma: no cover - no current caller hits this
        return result
    traced.report = report
    return traced
