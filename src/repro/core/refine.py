"""Anytime refinement of Proposition 6.1 approximations.

The one-shot entry points in :mod:`repro.core.approx` redo every piece
of work per call: re-enumerate the support prefix, rebuild the truncated
table, recompile the lineage.  A :class:`RefinementSession` binds one
(query, PDB) pair and makes a *sequence* of ε-calls incremental:

* the truncation search runs over the PDB's shared
  :class:`~repro.core.prefix_cache.PrefixCache` — each tighter ε extends
  the already-materialized prefix instead of re-enumerating it;
* the truncated table grows *in place*
  (:meth:`~repro.core.tuple_independent.CountableTIPDB.extend_truncation`
  and its BID and completion analogues) — the facts shared with the
  previous truncation are reused, counted in the ``refine.reused_facts``
  trace counter;
* evaluation warm-starts: Boolean queries run through a
  :class:`~repro.finite.compile_cache.CompileCache` whose per-query
  plan and manager extend across truncations, over the table's own
  fact index, which grows with the table; safe answer
  fan-outs reuse one head-bound plan from the same cache, and compiled
  ones chain
  :meth:`~repro.finite.compile_cache.SharedGrounding.extended`
  groundings so hash-consed nodes and scoring memos carry over.

Every refinement returns exactly what the corresponding one-shot entry
point would: the same truncation size n (the logarithmic search is
bit-exact against the linear scan) and the same probability (the grown
table has identical facts and marginals, and compiled evaluation is
deterministic on the diagram structure).  The one-shot functions are
themselves thin single-``refine`` sessions.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.core.approx import (
    ApproximationResult,
    _finish_approximation,
    choose_block_truncation,
    choose_truncation,
    record_certificate,
)
from repro.core.bid import CountableBIDPDB
from repro.core.completion import CompletedPDB
from repro.core.tuple_independent import CountableTIPDB
from repro.errors import EvaluationError
from repro.finite.bid import BlockIndependentTable
from repro.finite.evaluation import (
    marginal_answer_probabilities,
    query_probability,
)
from repro.finite.pdb import FinitePDB
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic.analysis import constants_of
from repro.logic.queries import BooleanQuery, Query
from repro.relational.facts import Value

#: Trace counter: facts (TI), blocks (BID) or new facts (completions)
#: the current refinement reused from the previous truncation instead
#: of re-materializing.
REFINE_REUSED_FACTS = "refine.reused_facts"


def normalize_epsilons(epsilons: Iterable[float]) -> List[float]:
    """Validated sweep schedule: distinct ε values, loosest first.

    The single home for ε-sweep hygiene (the CLI ``--sweep`` parser,
    :meth:`RefinementSession.sweep`, and the serve layer's sweep op all
    route through it): every ε must be positive (a non-positive ε has no
    certified truncation), ``==``-colliding values (``1`` vs ``1.0``,
    repeated entries) are collapsed to one refinement, and the result is
    sorted descending — tightest last — so a session only ever grows its
    truncation.

    >>> normalize_epsilons([0.01, 0.1, 0.1, 0.05])
    [0.1, 0.05, 0.01]
    >>> normalize_epsilons([0.1, 0])
    Traceback (most recent call last):
        ...
    repro.errors.EvaluationError: sweep epsilons must be positive, got 0.0
    """
    distinct: List[float] = []
    seen = set()
    for epsilon in epsilons:
        value = float(epsilon)
        if not value > 0.0:
            raise EvaluationError(
                f"sweep epsilons must be positive, got {value}")
        if value in seen:
            continue
        seen.add(value)
        distinct.append(value)
    if not distinct:
        raise EvaluationError("sweep needs at least one epsilon")
    distinct.sort(reverse=True)
    return distinct


class RefinementSession:
    """Anytime ε-refinement of one query on one countable PDB.

    Supports countable tuple-independent PDBs
    (:class:`~repro.core.tuple_independent.CountableTIPDB`), countable
    BID PDBs (:class:`~repro.core.bid.CountableBIDPDB`, where the
    truncation unit is blocks), and Theorem 5.5 completions
    (:class:`~repro.core.completion.CompletedPDB`, where n counts new
    facts and the table is the original table plus those facts).

    ``compile_cache`` defaults to the process-wide
    :data:`~repro.finite.compile_cache.DEFAULT_COMPILE_CACHE`; pass a
    fresh :class:`~repro.finite.compile_cache.CompileCache` to keep the
    session's warm diagrams isolated.  ``max_facts`` bounds the
    truncation search (blocks for BID PDBs).

    >>> from repro.relational import Schema
    >>> from repro.universe import Naturals, FactSpace
    >>> from repro.core.fact_distribution import GeometricFactDistribution
    >>> from repro.logic import parse_formula
    >>> schema = Schema.of(R=1)
    >>> space = FactSpace(schema, Naturals())
    >>> pdb = CountableTIPDB(schema, GeometricFactDistribution(
    ...     space, first=0.25, ratio=0.5))
    >>> q = BooleanQuery(parse_formula("EXISTS x. R(x)", schema), schema)
    >>> session = RefinementSession(q, pdb)
    >>> coarse = session.refine(0.1)
    >>> fine = session.refine(0.01)
    >>> fine.truncation > coarse.truncation
    True
    >>> abs(fine.value - coarse.value) <= coarse.epsilon + fine.epsilon
    True
    """

    def __init__(
        self,
        query: Query,
        pdb,
        strategy: str = "auto",
        max_facts: int = 10**7,
        compile_cache=None,
        pool=None,
    ):
        if isinstance(pdb, CountableTIPDB):
            self._kind = "ti"
        elif isinstance(pdb, CountableBIDPDB):
            self._kind = "bid"
        elif isinstance(pdb, CompletedPDB):
            self._kind = "completed"
        else:
            raise EvaluationError(
                "refinement sessions need a countable TI, countable BID, "
                f"or completed PDB, got {type(pdb).__name__}"
            )
        self.query = query
        self.pdb = pdb
        self.strategy = strategy
        self.max_facts = max_facts
        self.compile_cache = compile_cache
        #: A :class:`~repro.parallel.pool.ShardPool` every compiled
        #: :meth:`refine_marginals` fan-out of this session runs on —
        #: one warm pool for the whole sweep, so workers keep their
        #: cached table (delta-shipped as the truncation grows) and
        #: extended diagrams from step to step.  Dropped from pickles
        #: (process handles don't snapshot); a restored session falls
        #: back to the process-wide shared pool when ``workers=`` is
        #: passed.
        self.pool = pool
        #: Every :class:`ApproximationResult` produced so far, in call
        #: order — the anytime trajectory.
        self.history: List[ApproximationResult] = []
        if isinstance(query, BooleanQuery):
            self._boolean: Optional[BooleanQuery] = query
        elif query.is_boolean:
            self._boolean = BooleanQuery(
                query.formula, query.schema, name=query.name)
        else:
            self._boolean = None
        self._table = None  # the session's monotonically growing table
        self._n = 0
        self._grounding = None  # warm SharedGrounding chain (fan-outs)
        #: Serializes refinements: the session's table/truncation/warm
        #: grounding form one consistent unit, so concurrent callers
        #: (the serve layer multiplexes many clients onto shared
        #: sessions) take turns rather than interleave half-grown state.
        self._lock = threading.RLock()

    # -------------------------------------------------------------- anytime API
    def refine(self, epsilon: float) -> ApproximationResult:
        """One Proposition 6.1 approximation at guarantee ε, reusing
        everything previous calls materialized.

        Equals a fresh one-shot call bit-for-bit: same truncation size,
        same probability, same δ and α.
        """
        if self._boolean is None:
            raise EvaluationError(
                "query has free variables; use refine_marginals")
        with self._lock, obs.trace() as t:
            with obs.phase("choose_truncation"):
                n = self._choose(epsilon)
            with obs.phase("truncate"):
                table, reused = self._materialize(n)
            obs.incr(REFINE_REUSED_FACTS, reused)
            value = query_probability(
                self._boolean, table, strategy=self.strategy,
                compile_cache=self.compile_cache)
            result = _finish_approximation(
                t, value, epsilon, n, self._tail(n), table)
            self.history.append(result)
        return result

    def refine_to(self, target_width: float) -> ApproximationResult:
        """Refine until the certified enclosure ``[low, high]`` is at
        most ``target_width`` wide.  The enclosure's width is
        ``δ ≤ ε`` plus the (tiny) fold-error allowance on each side, so
        ε = width/2 is ample; it also keeps the paper's ``value ± ε``
        within the target."""
        return self.refine(target_width / 2.0)

    def sweep(self, epsilons: Iterable[float]) -> Dict[float, ApproximationResult]:
        """Refine at every requested ε, loosest first, so the truncation
        only ever grows and each step extends the last.

        Ordering and dedup contract: the schedule is
        :func:`normalize_epsilons` of the input — every ε is validated
        positive, duplicates and ``==``-colliding values (``1`` vs
        ``1.0``) are *explicitly* collapsed to a single refinement
        rather than silently overwriting each other's dict entry, and
        the returned dict's insertion order is descending ε (loosest
        first, tightest last).  One entry per distinct float value; the
        tightest entry is the session's best answer.
        """
        with self._lock:
            return {
                epsilon: self.refine(epsilon)
                for epsilon in normalize_epsilons(epsilons)
            }

    def refine_marginals(
        self,
        epsilon: float,
        workers: Optional[int] = None,
        pool=None,
    ) -> Dict[Tuple[Value, ...], ApproximationResult]:
        """The non-Boolean extension (paper §6) as an anytime call.

        Ground answers over ``adom(Ω_n)`` and approximate each, through
        :func:`~repro.finite.evaluation.marginal_answer_probabilities`
        on the session's truncation.

        A safe query on a TI truncation (``strategy`` ``"auto"`` or
        ``"lifted"``) gets every answer's marginal from one grouped
        lifted pass, in-process: the head-bound plan lives in the
        session's ``compile_cache`` and the fact index in the session's
        table, so each step of a sweep reuses the plan, only indexes
        the new facts, and folds only the new rows of each bound
        segment it scores.  ``workers=``/``pool=`` are ignored there.

        Compiled fan-outs (``"bdd"``, unsafe queries, BID tables) chain
        one warm :class:`~repro.finite.compile_cache.SharedGrounding`,
        so the compiled per-answer lineages extend rather than
        recompile; ``workers=k > 1`` fans their answers out on the
        session's shard pool (``pool=`` here or at construction;
        otherwise the process-wide pool for ``k``): the same warm
        workers serve every step of the sweep, receiving only the
        truncation delta.
        """
        if self._boolean is not None:
            return {(): self.refine(epsilon)}
        query = self.query
        pool = pool if pool is not None else self.pool
        with self._lock, obs.trace() as t:
            with obs.phase("choose_truncation"):
                n = self._choose(epsilon)
            with obs.phase("truncate"):
                table, reused = self._materialize(n)
            obs.incr(REFINE_REUSED_FACTS, reused)
            values = marginal_answer_probabilities(
                query, table, strategy=self.strategy, workers=workers,
                grounding_factory=self._grounding_factory(table),
                pool=pool, compile_cache=self.compile_cache)
            # One certificate and one shared report, as in the one-shot
            # entry point: the union bound holds per answer sentence
            # with the same δ = tail(n), and the fan-out's telemetry
            # applies to every answer's result.
            tail = self._tail(n)
            alpha, sampling_error, fold_error = record_certificate(
                t, epsilon, n, tail, table)
            report = obs.EvalReport.from_trace(t)
        return {
            answer: obs.attach_report(
                ApproximationResult(
                    float(value), epsilon, n, alpha, sampling_error,
                    tail, fold_error),
                report)
            for answer, value in values.items()
        }

    # ------------------------------------------------------------ internals
    def _certifier(self):
        """What certifies n: the fact distribution (a completion's new
        facts) or, for a BID PDB, the block family."""
        if self._kind == "ti":
            return self.pdb.distribution
        if self._kind == "completed":
            return self.pdb.new_facts.distribution
        return self.pdb.family

    def _choose(self, epsilon: float) -> int:
        """Truncation size for ε, over the shared prefix cache."""
        if self._kind == "bid":
            return choose_block_truncation(
                self.pdb.family, epsilon, max_blocks=self.max_facts)
        return choose_truncation(
            self._certifier(), epsilon, max_facts=self.max_facts)

    def _tail(self, n: int) -> float:
        return self._certifier().tail(n)

    def _materialize(self, n: int):
        """The finite truncation of size exactly ``n`` plus the number
        of units (facts/blocks) reused from previous refinements.

        The session's own table only ever grows; a loosened ε (smaller
        n) is served by a fresh table built from the shared prefix cache
        so results stay bit-identical to a one-shot call at that ε.  A
        completion of explicit worlds truncates to a world product,
        which cannot grow, so it is rebuilt at every call.
        """
        if self._table is None:
            table = self.pdb.truncate(n)
            if not isinstance(table, FinitePDB):
                self._table = table
            reused, self._n = min(n, self._n), max(n, self._n)
            return table, reused
        if n > self._n:
            reused = self.pdb.extend_truncation(self._table, n)
            self._n = n
            return self._table, reused
        if n == self._n:
            return self._table, n
        return self.pdb.truncate(n), n

    def _grounding_factory(self, table) -> Optional[Callable[[], object]]:
        """A grounding builder that chains the session's warm
        :class:`~repro.finite.compile_cache.SharedGrounding` — sound
        because truncation growth never changes existing marginals (see
        :meth:`SharedGrounding.extended <repro.finite.compile_cache.SharedGrounding.extended>`)."""
        if not isinstance(
            table, (TupleIndependentTable, BlockIndependentTable)
        ):
            return None
        query = self.query

        def factory():
            from repro.finite.compile_cache import SharedGrounding

            base = table.index.values | constants_of(query.formula)
            if self._grounding is None:
                self._grounding = SharedGrounding(query.formula, table, base)
            else:
                self._grounding = self._grounding.extended(table, base)
            return self._grounding

        return factory

    # ------------------------------------------------------------- pickling
    def __getstate__(self):
        """Sessions snapshot whole (table, truncation, warm grounding
        chain, compile cache) minus the lock and the shard pool (live
        process handles) — the serve layer's snapshot/restore resumes a
        sweep exactly where it stopped."""
        state = dict(self.__dict__)
        state.pop("_lock", None)
        state["pool"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        # Pre-pool snapshots have no 'pool' entry; restored sessions
        # start without a pinned pool either way.
        self.__dict__.setdefault("pool", None)
        self._lock = threading.RLock()

    def __repr__(self) -> str:
        return (
            f"RefinementSession(kind={self._kind!r}, "
            f"truncation={self._n}, refinements={len(self.history)})"
        )
