"""Query evaluation on finite PDBs by possible-world enumeration, plus
the strategy dispatcher.

``query_probability`` is the evaluator Proposition 6.1's algorithm calls
on truncations: it picks the cheapest applicable exact strategy (lifted
safe plan → compiled ROBDD past a size threshold → lineage/Shannon →
world enumeration).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro import obs
from repro.errors import EvaluationError, UnsafeQueryError
from repro.finite.bid import BlockIndependentTable
from repro.finite.lineage_eval import query_probability_by_lineage
from repro.finite.lifted import (
    answer_marginals_on_support,
    query_probability_lifted,
)
from repro.finite.pdb import FinitePDB
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic.analysis import constants_of
from repro.logic.queries import BooleanQuery, Query
from repro.logic.normalform import substitute
from repro.logic.syntax import Formula
from repro.relational.facts import Value, domain_sort_key
from repro.utils.probability import record_fold_error, worlds_error_bound

PDBLike = Union[FinitePDB, TupleIndependentTable, BlockIndependentTable]

#: Defaults for the ``"sampled"`` strategy: enough worlds for a ~±0.01
#: normal-approximation half-width, seeded so repeated runs agree.
SAMPLED_STRATEGY_SAMPLES = 20_000
SAMPLED_STRATEGY_SEED = 0

#: Strategies under which a safe free-variable query on a TI table is
#: answered by one grouped lifted pass
#: (:func:`~repro.finite.lifted.answer_marginals_on_support`).
GROUPED_STRATEGIES = ("auto", "lifted")

#: ``"auto"`` prefers the compile-once ROBDD path over raw Shannon
#: expansion for unsafe queries on TI tables at least this many facts —
#: below it, compilation overhead rivals the expansion itself (see
#: ``benchmarks/bench_compiled_eval.py``).
BDD_AUTO_THRESHOLD = 12


def _as_finite_pdb(pdb: PDBLike) -> FinitePDB:
    if isinstance(pdb, FinitePDB):
        return pdb
    return pdb.expand()


def query_probability_by_worlds(query: BooleanQuery, pdb: PDBLike) -> float:
    """``P(Q) = Σ_{D ⊨ Q} P({D})`` — exhaustive ground truth.

    Exponential in the number of facts for TI/BID inputs (they are
    expanded to explicit worlds first).

    >>> from repro.relational import Schema, Instance
    >>> from repro.logic.parser import parse_formula
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> table = TupleIndependentTable(schema, {R(1): 0.5, R(2): 0.5})
    >>> q = BooleanQuery(parse_formula("EXISTS x. R(x)", schema), schema)
    >>> round(query_probability_by_worlds(q, table), 10)
    0.75
    """
    finite = _as_finite_pdb(pdb)
    record_fold_error(
        worlds_error_bound(len(finite.worlds), len(finite.facts())))
    return finite.probability(query.holds_in)


def query_probability(
    query: BooleanQuery,
    pdb: PDBLike,
    strategy: str = "auto",
    compile_cache=None,
) -> float:
    """Exact probability of a Boolean query on a finite PDB.

    ``strategy``:

    * ``"auto"`` — lifted safe-plan evaluation for TI and BID tables:
      safe (sub)queries run extensionally, and unsafe residue components
      of a *partial* plan are delegated per-component to the intensional
      engines (compiled ROBDD past :data:`BDD_AUTO_THRESHOLD` facts,
      lineage/Shannon below it) — each delegation counted in
      ``lifted.unsafe_fallbacks``.  A query with no safe component at
      all routes wholly intensionally; explicit PDBs enumerate worlds.
    * ``"worlds"`` / ``"lineage"`` / ``"lifted"`` — force one strategy
      (``"lifted"`` raises :class:`~repro.errors.UnsafeQueryError`,
      carrying the offending subquery, when no strict safe plan exists).
    * ``"bdd"`` — compile the lineage once into a cached ROBDD
      (:mod:`repro.finite.compile_cache`) and score it by one linear
      weighted-model-counting pass; repeated calls on the same query
      (ε-sweeps, growing truncations) reuse and extend the diagram.
    * ``"sampled"`` — seeded batched Monte Carlo on the
      :mod:`repro.sampling` kernels (:data:`SAMPLED_STRATEGY_SAMPLES`
      worlds): the only non-exact strategy, for queries whose exact
      evaluation is out of reach on large truncations.

    The exact strategies agree exactly; the E8 benchmark measures their
    costs.

    ``compile_cache`` overrides the process-wide
    :data:`~repro.finite.compile_cache.DEFAULT_COMPILE_CACHE` for the
    compiled (``"bdd"``) path — refinement sessions pass their own so
    warm diagrams stay bound to the session.

    The returned value is a plain ``float`` carrying an
    :class:`~repro.obs.EvalReport` as ``.report`` — the strategy that
    actually fired, compile-cache and sampling telemetry, and per-phase
    timings.
    """
    with obs.trace() as t:
        with obs.phase("evaluate"):
            value, resolved = _dispatch_query_probability(
                query, pdb, strategy, compile_cache)
        obs.note(strategy=resolved)
        report = obs.EvalReport.from_trace(t)
    return obs.attach_report(value, report)


def _dispatch_query_probability(
    query: BooleanQuery,
    pdb: PDBLike,
    strategy: str,
    compile_cache=None,
) -> Tuple[float, str]:
    """Evaluate and return ``(value, resolved strategy name)`` — the
    concrete engine ``"auto"`` settled on, for the report."""
    if strategy == "sampled":
        from repro.finite.montecarlo import query_probability_monte_carlo

        estimate = query_probability_monte_carlo(
            query, pdb, SAMPLED_STRATEGY_SAMPLES,
            seed=SAMPLED_STRATEGY_SEED, backend="auto",
        )
        return estimate.estimate, "sampled"
    if strategy == "worlds":
        return query_probability_by_worlds(query, pdb), "worlds"
    if strategy == "lineage":
        return query_probability_by_lineage(query, pdb), "lineage"
    if strategy == "bdd":
        if isinstance(pdb, FinitePDB):
            # Explicit worlds carry correlations lineage cannot factor.
            return query_probability_by_worlds(query, pdb), "worlds"
        from repro.finite.compile_cache import query_probability_by_bdd_cached

        return query_probability_by_bdd_cached(query, pdb, compile_cache), "bdd"
    if strategy == "lifted":
        if not isinstance(
            pdb, (TupleIndependentTable, BlockIndependentTable)
        ):
            raise EvaluationError("lifted evaluation needs a TI or BID table")
        return (
            query_probability_lifted(query, pdb, plan_cache=compile_cache),
            "lifted",
        )
    if strategy != "auto":
        raise EvaluationError(f"unknown strategy {strategy!r}")
    if isinstance(pdb, (TupleIndependentTable, BlockIndependentTable)):
        residue_strategy = (
            "bdd" if len(pdb.possible_facts()) >= BDD_AUTO_THRESHOLD
            else "lineage"
        )

        def unsafe_residue(formula: Formula) -> float:
            """Evaluate one unsafe residue component of a partial plan
            intensionally (counted, so hybrid evaluations are visible in
            the report)."""
            obs.incr("lifted.unsafe_fallbacks")
            obs.event(
                "lifted.unsafe_fallback",
                strategy=residue_strategy,
                formula=str(formula)[:160],
            )
            residue = BooleanQuery(
                formula, query.schema, name=f"{query.name}#residue")
            value, _ = _dispatch_query_probability(
                residue, pdb, residue_strategy, compile_cache)
            return value

        try:
            value = query_probability_lifted(
                query, pdb, plan_cache=compile_cache,
                partial=True, unsafe_fallback=unsafe_residue,
            )
            return value, "lifted"
        except UnsafeQueryError as exc:
            # No safe component at all (or the table's block structure
            # defeats the plan): route the whole query intensionally.
            obs.incr("lifted.unsafe_fallbacks")
            obs.event(
                "lifted.unsafe_fallback",
                strategy=residue_strategy,
                reason=str(exc)[:160],
            )
        return _dispatch_query_probability(
            query, pdb, residue_strategy, compile_cache)
    return query_probability_by_worlds(query, pdb), "worlds"


# --------------------------------------------------------------- fan-out
def _candidate_set(
    query: Query,
    pdb: PDBLike,
    domain: Optional[Iterable[Value]],
) -> Set[Value]:
    """Candidate answer values: the PDB's active domain plus the query's
    constants (Fact 2.1), or an explicit ``domain``.  A TI or BID
    table's active domain is its index's value set, kept as the table
    grows; with no constant to add, that set itself is returned, so
    callers only read the result."""
    if domain is not None:
        return set(domain)
    constants = constants_of(query.formula)
    if isinstance(pdb, FinitePDB):
        values = set(constants)
        for instance in pdb.instances():
            values |= instance.active_domain()
        return values
    values = pdb.index.values
    return values | constants if constants else values


def _candidate_values(
    query: Query,
    pdb: PDBLike,
    domain: Optional[Iterable[Value]],
) -> List[Value]:
    """:func:`_candidate_set`, sorted by ``domain_sort_key``: the order
    of every candidate answer stream."""
    return sorted(_candidate_set(query, pdb, domain), key=domain_sort_key)


def _grounding_is_safe(query: Query, candidates: List[Value]) -> bool:
    """Whether grounded instances of ``query`` admit a lifted safe plan.

    Grounding substitutes constants uniformly, so safety is the same for
    every answer tuple — probe once with a representative binding.  The
    representative values must be *pairwise distinct*: repeating one
    value collapses distinct answer variables into the same constant,
    which can merge atoms (``R(x,z) ∧ R(y,z)`` → one atom) and misjudge
    an unsafe query as safe.  When there are fewer distinct candidates
    than variables the pool is padded with synthetic probe values —
    safety only depends on the substitution's shape, not its values.
    """
    if not candidates:
        return False
    from repro.logic.hierarchy import safe_plan_ucq
    from repro.logic.normalform import extract_ucq

    pool: List[Value] = list(dict.fromkeys(candidates))
    while len(pool) < len(query.variables):
        pool.append(("__probe__", len(pool)))
    binding = {v: pool[i] for i, v in enumerate(query.variables)}
    grounded = substitute(query.formula, binding)
    ucq = extract_ucq(grounded)
    if ucq is None:
        return False
    try:
        safe_plan_ucq(ucq)
        return True
    except UnsafeQueryError:
        return False


def _shared_grounding(query: Query, pdb: PDBLike):
    """A :class:`~repro.finite.compile_cache.SharedGrounding` covering
    the whole fan-out.  The base quantifier domain is the active domain
    plus the formula's constants; each answer tuple contributes its own
    values on top — identical to what per-answer grounding would use."""
    from repro.finite.compile_cache import SharedGrounding

    base = pdb.index.values | constants_of(query.formula)
    return SharedGrounding(query.formula, pdb, base)


def _shares_grounding(
    query: Query,
    pdb: PDBLike,
    candidates: List[Value],
    strategy: str,
) -> bool:
    """Whether one compiled grounding serves every answer of the
    fan-out: always under ``"bdd"``; under ``"auto"`` on a BID table
    (one compile rather than a gamble on per-answer block disjointness)
    or on a TI table whose grounded instances have no safe plan.

    Strategy, table kind and grounded safety are all stable across
    truncation growth, so pool workers decide once per query family."""
    if not isinstance(pdb, (TupleIndependentTable, BlockIndependentTable)):
        return False
    if strategy == "bdd":
        return True
    return strategy == "auto" and (
        isinstance(pdb, BlockIndependentTable)
        or not _grounding_is_safe(query, candidates)
    )


def _score_answers(
    query: Query,
    pdb: PDBLike,
    answers: Iterable[Tuple[Value, ...]],
    strategy: str,
    shared=None,
    compile_cache=None,
) -> Dict[Tuple[Value, ...], float]:
    """``Pr(ā ∈ Q)`` for each answer tuple, in order, keeping the
    positive ones.

    With a ``shared`` grounding each answer is restricted from it;
    otherwise each answer grounds its own Boolean query and runs one
    :func:`query_probability` (``compile_cache`` passed through).  The
    serial fan-out and pool workers both score answers here."""
    results: Dict[Tuple[Value, ...], float] = {}
    for answer in answers:
        obs.incr("fanout.answers")
        if shared is not None:
            probability = shared.answer_probability(query.variables, answer)
        else:
            binding = dict(zip(query.variables, answer))
            grounded = substitute(query.formula, binding)
            boolean = BooleanQuery(
                grounded, query.schema, name=f"{query.name}{answer}")
            probability = query_probability(
                boolean, pdb, strategy=strategy, compile_cache=compile_cache)
        if probability > 0:
            results[answer] = float(probability)
    return results


def _evaluate_answers(
    query: Query,
    pdb: PDBLike,
    candidates: List[Value],
    strategy: str,
    grounding_factory=None,
    compile_cache=None,
) -> Dict[Tuple[Value, ...], float]:
    """Evaluate ``Pr(ā ∈ Q)`` over the candidate answer tuples.

    When :func:`_shares_grounding` says so, every answer shares one
    lineage/BDD context: one hash-consed node store and one scoring memo
    serve the whole fan-out instead of recompiling per answer.  On that
    path the candidate tuples come from the grounding engine's join
    results (:meth:`SharedGrounding.answer_support`) rather than the
    full ``candidates^arity`` product — pruning is counted in the
    ``grounding.pruned_answers`` trace counter, never silent, and falls
    back to the full product when the formula is outside the engine's
    fragment.  ``grounding_factory`` overrides how the shared context is
    built — a refinement session passes one that warm-starts from the
    previous truncation's grounding.  Answers scored one at a time plan
    and compile in ``compile_cache``.
    """
    shared = None
    answers: Optional[Iterable[Tuple[Value, ...]]] = None
    if _shares_grounding(query, pdb, candidates, strategy):
        shared = (
            grounding_factory() if grounding_factory is not None
            else _shared_grounding(query, pdb))
        answers = shared.answer_support(query.variables, candidates)
    if answers is None:
        answers = itertools.product(candidates, repeat=query.arity)
    return _score_answers(
        query, pdb, answers, strategy, shared, compile_cache)


def marginal_answer_probabilities(
    query: Query,
    pdb: PDBLike,
    domain: Optional[Iterable[Value]] = None,
    strategy: str = "auto",
    workers: Optional[int] = None,
    grounding_factory=None,
    pool=None,
    compile_cache=None,
) -> Dict[Tuple[Value, ...], float]:
    """Per-tuple marginals ``Pr(ā ∈ Q(D))`` for a non-Boolean query
    (paper §3.1 relaxed semantics; §6 extension of Prop. 6.1).

    Candidate tuples are built from the PDB's active domain plus the
    query's constants (Fact 2.1), or from an explicit ``domain``; the
    candidate tuple space is streamed, never materialized.  Tuples with
    probability 0 are omitted; the rest keep ``itertools.product``
    order over the sorted candidates.

    **Safe queries on TI tables** — ``strategy="auto"`` or
    ``"lifted"``, and the query has a head-bound safe plan — get one
    grouped lifted pass, in-process
    (:func:`~repro.finite.lifted.answer_marginals_on_support`): the plan
    is built once per query in ``compile_cache`` (default: the
    process-wide :data:`~repro.finite.compile_cache.DEFAULT_COMPILE_CACHE`)
    and every candidate answer in the plan's support is one row of a
    single group table, so a fan-out costs one plan evaluation instead
    of one per answer.  The support is a semi-join over the plan's
    signature tables: a tuple outside it has marginal 0, so scoring
    only it gives the full product's dict, and the tuples skipped count
    in ``grounding.pruned_answers``.  Across a sweep the pass resumes
    its bound segments' folds.  ``workers=``/``pool=`` do not apply
    there: nothing is shipped, and the report's strategy is
    ``"lifted"``.

    **Compiled fan-outs** (``"bdd"``; ``"auto"`` without a head-bound
    plan; BID tables) score answer tuples one by one, sharing one
    compiled lineage/BDD whenever the strategy compiles.  Pass
    ``workers=k > 1`` to fan those answers out over the persistent
    :mod:`repro.parallel` shard pool — sound because distinct answer
    tuples are scored independently.  The pool is process-wide and
    *warm*: workers survive across calls, cache the table (repeat calls
    on a grown truncation ship only the appended delta), and keep their
    own shared diagrams, which extend across sweep steps exactly like
    the parent's.  The answer space is streamed to idle workers in
    latency-adaptive contiguous chunks, which workers route and score
    with the serial path's own helpers, so the merged dict equals the
    serial one, entry order included.  Pass ``pool=`` (a
    :class:`~repro.parallel.pool.ShardPool`) to pin the call to a
    specific pool — refinement sessions and the serve layer share one
    across all their calls.

    A shard exception is re-raised here with the worker's original
    traceback attached (as a
    :class:`~repro.parallel.pool.ShardError` cause); payloads that
    cannot be pickled degrade to the serial path with a
    ``fanout.serial_fallback`` trace event instead of failing inside
    the pool.

    ``grounding_factory`` (serial compiled path only — pool workers
    hold their own warm groundings) overrides how the shared
    compilation context is built; refinement sessions pass one that
    carries the previous truncation's manager and scoring memo forward.

    The returned dict carries an :class:`~repro.obs.EvalReport` as
    ``.report``.
    """
    with obs.trace() as t:
        results = _marginal_answer_probabilities_traced(
            query, pdb, domain, strategy, workers, grounding_factory,
            pool, compile_cache)
        report = obs.EvalReport.from_trace(t)
    return obs.attach_report(results, report)


def _pooled_answer_marginals(
    query: Query,
    pdb: PDBLike,
    candidates: List[Value],
    strategy: str,
    workers: Optional[int],
    domain: Optional[Iterable[Value]],
    pool,
) -> Optional[Dict[Tuple[Value, ...], float]]:
    """Run the fan-out on the persistent shard pool; None means the
    pool cannot take this payload and the caller should run serially
    (the ``fanout.serial_fallback`` event is already emitted)."""
    from repro.parallel.pool import PoolUnavailableError, get_shared_pool
    from repro.parallel.shipping import ShipError, pooled_answer_marginals

    count = (
        workers if workers is not None
        else (pool.workers if pool is not None else 1)
    )
    try:
        if pool is None:
            pool = get_shared_pool(count)
        obs.note(strategy=strategy)
        with obs.phase("fanout"):
            return pooled_answer_marginals(
                pool, query, pdb, candidates, strategy, domain=domain)
    except (ShipError, PoolUnavailableError) as exc:
        # Infrastructure failures (unpicklable table, dead pool) degrade
        # gracefully; genuine evaluation errors propagate above.
        obs.event(
            "fanout.serial_fallback", workers=count, reason=str(exc))
        return None


def _marginal_answer_probabilities_traced(
    query: Query,
    pdb: PDBLike,
    domain: Optional[Iterable[Value]],
    strategy: str,
    workers: Optional[int],
    grounding_factory=None,
    pool=None,
    compile_cache=None,
) -> Dict[Tuple[Value, ...], float]:
    if query.is_boolean:
        boolean = BooleanQuery(query.formula, query.schema, name=query.name)
        return {(): float(query_probability(
            boolean, pdb, strategy=strategy, compile_cache=compile_cache))}
    candidates = _candidate_set(query, pdb, domain)
    if not candidates:
        return {}
    if strategy in GROUPED_STRATEGIES:
        with obs.phase("fanout"):
            grouped = answer_marginals_on_support(
                query, pdb, candidates, plan_cache=compile_cache)
        if grouped is not None:
            obs.note(strategy="lifted")
            return grouped
    candidates = sorted(candidates, key=domain_sort_key)
    if pool is not None or (workers is not None and workers > 1):
        results = _pooled_answer_marginals(
            query, pdb, candidates, strategy, workers, domain, pool)
        if results is not None:
            return results
    obs.note(strategy=strategy)
    with obs.phase("fanout"):
        return _evaluate_answers(
            query, pdb, candidates, strategy, grounding_factory,
            compile_cache)
