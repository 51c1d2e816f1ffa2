"""Long-lived refinement sessions behind the serve front-end.

The batch entry points (CLI ``query``, the one-shot functions in
:mod:`repro.core.approx`) pay the full cost of every request: load the
table, build the completion, enumerate the prefix, compile the lineage.
A *service* amortizes that work: a :class:`SessionManager` holds named
:class:`~repro.core.refine.RefinementSession` instances whose warm state
— the materialized prefix, the grown truncation table, the per-session
:class:`~repro.finite.compile_cache.CompileCache` with its extended BDD
managers and cached safe plans — persists across requests, so the
steady-state cost of a query is one incremental refinement (often just a
cache hit) instead of a cold rebuild.

ε-budget scheduling (:meth:`ManagedSession.submit`): each session has an
``epsilon_budget`` separating *interactive* from *background* work.
Requests at ε ≥ budget run inline.  A tighter ε is *queued* and the
current best result is returned immediately as a certified-but-partial
anytime answer; the server's drain loop then works the queue loosest
first, so the truncation only ever grows and every queued guarantee is
eventually met.  A request the current best already satisfies
(``best.epsilon ≤ ε``) is answered from memory without touching the
session at all.

Everything here is plain threads-and-locks Python — the asyncio
front-end (:mod:`repro.serve.server`) runs these blocking calls on a
thread pool.  Thread safety: :class:`ManagedSession` serializes its
bookkeeping under its own lock while actual refinement serializes on the
underlying session's lock; :class:`SessionManager` locks only the name
table, so requests against different sessions never contend.
"""

from __future__ import annotations

import io
import json
import threading
from typing import Dict, Iterable, List, Mapping, Optional

from repro import obs
from repro.core.approx import ApproximationResult
from repro.core.completion import complete
from repro.core.fact_distribution import (
    GeometricFactDistribution,
    ZetaFactDistribution,
)
from repro.core.refine import RefinementSession, normalize_epsilons
from repro.core.tuple_independent import CountableTIPDB
from repro.errors import ServeError
from repro.finite.compile_cache import CompileCache
from repro.finite.tuple_independent import TupleIndependentTable
from repro.io import load as load_table
from repro.logic.analysis import free_variables
from repro.logic.parser import parse_formula
from repro.logic.queries import BooleanQuery, Query
from repro.relational.schema import Schema
from repro.universe import FactSpace, Naturals

#: Trace counters of the serve layer (wrap calls in ``obs.trace()`` to
#: observe them; outside a trace they are no-ops, like all obs counters).
SESSIONS_COUNTER = "serve.sessions"
REQUESTS_COUNTER = "serve.requests"
QUEUED_COUNTER = "serve.queued"

#: Default ε separating inline from queued-background refinement.
DEFAULT_EPSILON_BUDGET = 0.05


def _family_distribution(spec: Mapping, space: FactSpace):
    """An open-world fact distribution from its JSON spec."""
    kind = spec.get("kind", "geometric")
    if kind == "geometric":
        return GeometricFactDistribution(
            space,
            first=float(spec.get("first", 0.5)),
            ratio=float(spec.get("ratio", 0.5)),
        )
    if kind == "zeta":
        return ZetaFactDistribution(
            space,
            exponent=float(spec.get("exponent", 2.0)),
            scale=float(spec.get("scale", 1.0)),
        )
    raise ServeError(
        f"unknown open-world family kind {kind!r} "
        "(expected 'geometric' or 'zeta')"
    )


def build_session(spec: Mapping) -> RefinementSession:
    """A fresh :class:`RefinementSession` from a JSON session spec.

    Two shapes are accepted (mirroring the CLI's two entry paths):

    ``{"schema": {"R": 1}, "family": {...}, "query": "..."}``
        A pure countable TI PDB over ``FactSpace(schema, Naturals())``
        with the given rank-based family — the open-world table with no
        observed facts.

    ``{"table": {...repro.io JSON...}, "open_world": {...}, "query": "..."}``
        A finite tuple-independent table completed (Theorem 5.5) with an
        open-world family over its fact space, exactly like the CLI's
        ``query --open-world`` path.

    Optional keys: ``strategy`` (default ``"auto"``), ``max_facts``.
    The session gets its own :class:`CompileCache`, so its warm diagrams
    are isolated from other sessions and travel with it in snapshots.
    """
    query_text = spec.get("query")
    if not query_text:
        raise ServeError("session spec needs a 'query'")
    strategy = spec.get("strategy", "auto")
    max_facts = int(spec.get("max_facts", 10**7))

    if "table" in spec:
        if "open_world" not in spec:
            raise ServeError(
                "a 'table' session needs 'open_world' (a finite table has "
                "nothing to refine); use query --strategy for closed-world"
            )
        table_spec = spec["table"]
        text = (
            table_spec if isinstance(table_spec, str)
            else json.dumps(table_spec)
        )
        table = load_table(io.StringIO(text))
        if not isinstance(table, TupleIndependentTable):
            raise ServeError(
                "open-world completion needs a tuple-independent table, "
                f"got {type(table).__name__}"
            )
        schema = table.schema
        ow = spec["open_world"]
        pdb = complete(
            table,
            GeometricFactDistribution(
                FactSpace(schema, Naturals()),
                first=float(ow.get("first", 0.5)),
                ratio=float(ow.get("ratio", 0.5)),
            ),
        )
    elif "schema" in spec:
        arities = {name: int(k) for name, k in spec["schema"].items()}
        schema = Schema.of(**arities)
        space = FactSpace(schema, Naturals())
        family = spec.get("family", {})
        pdb = CountableTIPDB(schema, _family_distribution(family, space))
    else:
        raise ServeError(
            "session spec needs either 'table' + 'open_world' or "
            "'schema' + 'family'"
        )

    formula = parse_formula(query_text, schema)
    if free_variables(formula):
        # A free-variable query makes an answer-marginal session: the
        # 'marginals' op answers every candidate tuple (one grouped pass
        # when the query is safe, the server's shared shard pool for
        # compiled fan-outs) instead of one Boolean probability.
        query: Query = Query(formula, schema)
    else:
        query = BooleanQuery(formula, schema)
    return RefinementSession(
        query, pdb, strategy=strategy, max_facts=max_facts,
        compile_cache=CompileCache(),
    )


def result_to_json(result: ApproximationResult) -> Dict:
    """The wire form of one anytime answer: ``tail`` is δ, the certified
    ``tail(n)``, and ``[low, high]`` the enclosure
    ``[p − δ·p, p + δ·(1 − p)]`` widened by ``fold_error`` and
    ``sampling_error`` (see :class:`ApproximationResult`)."""
    return {
        "value": result.value,
        "epsilon": result.epsilon,
        "truncation": result.truncation,
        "tail": result.tail,
        "alpha": result.alpha,
        "fold_error": result.fold_error,
        "sampling_error": result.sampling_error,
        "low": result.low,
        "high": result.high,
    }


class ManagedSession:
    """One named refinement session plus serve-side bookkeeping: the
    tightest answer so far, the queue of not-yet-met guarantees, and
    request counters."""

    def __init__(
        self,
        name: str,
        session: RefinementSession,
        epsilon_budget: float = DEFAULT_EPSILON_BUDGET,
        max_pending: int = 32,
    ):
        self.name = name
        self.session = session
        self.epsilon_budget = float(epsilon_budget)
        self.max_pending = int(max_pending)
        #: Tightest :class:`ApproximationResult` produced so far.
        self.best: Optional[ApproximationResult] = None
        #: Guarantees accepted but not yet met, drained loosest first.
        self.pending: List[float] = []
        self.requests = 0
        self.refinements = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------ refinement
    def refine(self, epsilon: float) -> ApproximationResult:
        """One inline refinement; tracks the tightest answer."""
        result = self.session.refine(epsilon)
        with self._lock:
            self.refinements += 1
            if self.best is None or result.epsilon < self.best.epsilon:
                self.best = result
        return result

    def submit(self, epsilon: float, wait: bool = False):
        """ε-budget admission: returns ``(result, partial)``.

        * ``best.epsilon ≤ ε`` → the remembered best already certifies
          the request; answered from memory, ``partial=False``.
        * ``wait=True``, ε ≥ the session budget, or no answer exists yet
          → refine inline, ``partial=False``.
        * otherwise → queue ε for background refinement (bounded by
          ``max_pending`` — admission control) and return the current
          best immediately, ``partial=True``: an anytime answer whose
          own ε still certifies *it*, just not yet the requested one.
        """
        epsilon = float(epsilon)
        if not epsilon > 0.0:
            raise ServeError(f"epsilon must be positive, got {epsilon}")
        with self._lock:
            self.requests += 1
            best = self.best
        obs.incr(REQUESTS_COUNTER)
        if best is not None and best.epsilon <= epsilon and not wait:
            return best, False
        if wait or best is None or epsilon >= self.epsilon_budget:
            return self.refine(epsilon), False
        with self._lock:
            if epsilon not in self.pending:
                if len(self.pending) >= self.max_pending:
                    raise ServeError(
                        f"session {self.name!r}: refinement queue full "
                        f"({self.max_pending} pending); retry with "
                        "wait=true or a looser epsilon"
                    )
                self.pending.append(epsilon)
                obs.incr(QUEUED_COUNTER)
            best = self.best  # may have tightened while we queued
        return best, True

    def marginals(
        self,
        epsilon: float,
        workers: Optional[int] = None,
        pool=None,
    ) -> Dict:
        """One answer-marginal refinement at guarantee ε (free-variable
        sessions; a Boolean session returns its single ``()`` answer).

        A safe query on a TI truncation is answered in-process by one
        grouped lifted pass over the candidate answers in its support (see
        :meth:`~repro.core.refine.RefinementSession.refine_marginals`),
        and ``workers``/``pool`` are ignored.  Compiled fan-outs use
        ``pool``, the server's shared
        :class:`~repro.parallel.pool.ShardPool` — every session fans
        out on the same warm workers, which cache each session's table
        (delta-shipped between calls) and compiled diagrams.
        """
        epsilon = float(epsilon)
        if not epsilon > 0.0:
            raise ServeError(f"epsilon must be positive, got {epsilon}")
        with self._lock:
            self.requests += 1
        obs.incr(REQUESTS_COUNTER)
        results = self.session.refine_marginals(
            epsilon, workers=workers, pool=pool)
        with self._lock:
            self.refinements += 1
        return results

    def sweep(self, epsilons: Iterable[float]) -> Dict[float, ApproximationResult]:
        """A full ε-sweep (loosest first, see
        :func:`~repro.core.refine.normalize_epsilons`), inline."""
        schedule = normalize_epsilons(epsilons)
        with self._lock:
            self.requests += len(schedule)
        obs.incr(REQUESTS_COUNTER, len(schedule))
        results = self.session.sweep(schedule)
        with self._lock:
            self.refinements += len(results)
            for result in results.values():
                if self.best is None or result.epsilon < self.best.epsilon:
                    self.best = result
        return results

    # ----------------------------------------------------------- drain loop
    def drain_one(self) -> Optional[ApproximationResult]:
        """Work one queued guarantee, loosest first; None when idle.

        A queued ε the best answer meanwhile covers is dequeued without
        refining (a tighter earlier drain already did the work).
        """
        with self._lock:
            if not self.pending:
                return None
            epsilon = max(self.pending)
            self.pending.remove(epsilon)
            best = self.best
        if best is not None and best.epsilon <= epsilon:
            return best
        return self.refine(epsilon)

    def drain(self) -> int:
        """Drain the whole queue; returns the number of entries worked."""
        worked = 0
        while self.drain_one() is not None:
            worked += 1
        return worked

    # ------------------------------------------------------------- summaries
    def summary(self) -> Dict:
        with self._lock:
            return {
                "name": self.name,
                "strategy": self.session.strategy,
                "truncation": self.session._n,
                "requests": self.requests,
                "refinements": self.refinements,
                "pending": len(self.pending),
                "epsilon_budget": self.epsilon_budget,
                "best": (
                    result_to_json(self.best)
                    if self.best is not None else None
                ),
            }

    # ------------------------------------------------------------- pickling
    def __getstate__(self):
        """Snapshots keep the warm session, the best answer and the
        still-pending guarantees (a restored server resumes the queue);
        only the lock is dropped."""
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def __repr__(self) -> str:
        return (
            f"ManagedSession({self.name!r}, requests={self.requests}, "
            f"pending={len(self.pending)})"
        )


class SessionManager:
    """The server's name → :class:`ManagedSession` table.

    Admission control: at most ``max_sessions`` concurrent sessions and
    ``max_pending`` queued guarantees per session; both raise
    :class:`~repro.errors.ServeError` when exceeded rather than letting
    a single client grow the server without bound.
    """

    def __init__(
        self,
        max_sessions: int = 16,
        max_pending: int = 32,
        default_epsilon_budget: float = DEFAULT_EPSILON_BUDGET,
    ):
        self.max_sessions = int(max_sessions)
        self.max_pending = int(max_pending)
        self.default_epsilon_budget = float(default_epsilon_budget)
        self._sessions: Dict[str, ManagedSession] = {}
        self._lock = threading.RLock()

    # -------------------------------------------------------------- lifecycle
    def create(self, name: str, spec: Mapping) -> ManagedSession:
        """Admit and build a named session from its JSON spec."""
        if not name or not isinstance(name, str):
            raise ServeError("session name must be a non-empty string")
        with self._lock:
            if name in self._sessions:
                raise ServeError(f"session {name!r} already exists")
            if len(self._sessions) >= self.max_sessions:
                raise ServeError(
                    f"session limit reached ({self.max_sessions}); "
                    "drop a session first"
                )
        # Build outside the lock (table loading / completion can be
        # slow); double-check the name on publication.
        budget = float(spec.get("epsilon_budget", self.default_epsilon_budget))
        if not budget > 0.0:
            raise ServeError(f"epsilon_budget must be positive, got {budget}")
        managed = ManagedSession(
            name, build_session(spec),
            epsilon_budget=budget, max_pending=self.max_pending,
        )
        with self._lock:
            if name in self._sessions:
                raise ServeError(f"session {name!r} already exists")
            self._sessions[name] = managed
        obs.incr(SESSIONS_COUNTER)
        return managed

    def get(self, name: str) -> ManagedSession:
        with self._lock:
            try:
                return self._sessions[name]
            except KeyError:
                raise ServeError(f"no session named {name!r}") from None

    def drop(self, name: str) -> None:
        with self._lock:
            if self._sessions.pop(name, None) is None:
                raise ServeError(f"no session named {name!r}")

    def adopt(self, managed: ManagedSession) -> None:
        """Install an already-built session (snapshot restore path)."""
        with self._lock:
            self._sessions[managed.name] = managed

    # ------------------------------------------------------------- inspection
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def summaries(self) -> List[Dict]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [managed.summary() for managed in sessions]

    def stats(self) -> Dict:
        with self._lock:
            sessions = list(self._sessions.values())
        return {
            "sessions": len(sessions),
            "max_sessions": self.max_sessions,
            "requests": sum(s.requests for s in sessions),
            "refinements": sum(s.refinements for s in sessions),
            "pending": sum(len(s.pending) for s in sessions),
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._sessions

    # ------------------------------------------------------------- pickling
    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def __repr__(self) -> str:
        return f"SessionManager(sessions={len(self)})"
