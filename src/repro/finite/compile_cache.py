"""Compiled-lineage evaluation: ROBDD compilation shared across calls.

Proposition 6.1's cost is dominated by the finite evaluations
``P(Q | Ω_n)`` it runs on truncations — and those evaluations repeat:
``truncation_profile`` sweeps ε over the same query, repeated calls at
shrinking ε grow the truncation monotonically, and answer-marginal
fan-outs ground one formula over many answer tuples.  Knowledge
compilation turns each of these into *compile once, score linearly*:

* :class:`CompileCache` memoizes compiled diagrams keyed by the query
  and the table's facts in the table's order.  Each query owns one
  :class:`~repro.finite.bdd.BDDManager` whose variable order is the
  table's order; a larger truncation Ω_m ⊇ Ω_n appends its suffix to
  that order and recompiles against the already hash-consed node store
  and apply cache instead of starting cold.  A table whose order does
  not extend the manager's gets a fresh manager, so a diagram never
  depends on which tables the family saw before.  Grounding reads the
  table's own :class:`~repro.relational.index.FactIndex`.
  Re-scoring a cached diagram under new marginals is a single linear
  weighted-model-counting pass.
* :class:`SharedGrounding` serves non-Boolean fan-outs: every answer
  tuple's grounded sentence compiles into the *same* manager, so
  sub-diagrams shared between answers exist once, and one shared
  probability memo scores them all (valid because the marginals are
  fixed within a fan-out).
* :func:`bid_bdd_probability` scores a compiled diagram under a BID
  table by branching over blocks with :meth:`BDDManager.restrict` —
  the diagram-space analogue of the block-aware Shannon expansion.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Tuple,
)

from repro import obs
from repro.errors import EvaluationError, UnsafeQueryError
from repro.finite.bdd import BDDManager, BDDRef, ONE, ZERO
from repro.finite.bid import BlockIndependentTable
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic.analysis import free_variables
from repro.logic.lineage import Lineage, lineage_of
from repro.logic.syntax import Formula, Variable
from repro.relational.facts import Fact, Value
from repro.relational.index import FactIndex
from repro.utils.probability import record_fold_error, wmc_error_bound


class CompiledQuery:
    """A compiled lineage: a root in a (possibly shared) manager.

    Probability under any independent marginals is one linear pass; the
    diagram itself depends only on the query and the possible-fact set,
    never on the marginals — which is exactly what makes it reusable
    across ε-calls and truncation sweeps.
    """

    __slots__ = ("manager", "root")

    def __init__(self, manager: BDDManager, root: BDDRef):
        self.manager = manager
        self.root = root

    def probability(
        self,
        marginal: Callable[[Fact], float],
        cache: Optional[Dict[int, float]] = None,
    ) -> float:
        if cache is None:
            # No shared memo requested: score over the manager's cached
            # linearization (bit-identical, vectorized past the node
            # threshold) — the hot rescore path of ε-sweeps.
            return self.manager.rescore(self.root, marginal)
        return self.manager.probability(self.root, marginal, cache)

    def restrict(self, fact: Fact, value: bool) -> "CompiledQuery":
        return CompiledQuery(
            self.manager, self.manager.restrict(self.root, fact, value))

    def size(self) -> int:
        """Nodes reachable from the root."""
        return self.manager.count_nodes(self.root)

    def __repr__(self) -> str:
        return f"CompiledQuery(size={self.size()})"


class LiftedExecState:
    """Per-family runtime state of the lifted executor.

    Everything here is keyed by plan-node ``id`` — sound because the
    family owns its plan objects (``_Family.lifted``) for as long as it
    owns this state, and both are dropped together on family eviction.

    * ``node_caches`` — per-plan-node warm state.  Root-level projects
      keep delta-extended binding tables
      (:class:`repro.finite.lifted._ProjectDeltaCache`): an ε-sweep's
      next truncation re-executes only the separator values its delta
      facts touch.  Bound single-leaf projects keep one fold state per
      bucket (:class:`repro.finite.lifted._SegmentFolds`): a touched
      segment folds only the rows it gained, in a Boolean run and in
      a grouped answer pass alike.  Only TI runs keep any: a BID
      run's block checks span every value of a project.
    * ``annotations`` — the grouped-execution side tables
      (:func:`repro.logic.hierarchy.grouped_plan_info`), one per cached
      plan root.
    * ``lock`` — held across a whole lifted run, on TI and BID tables
      alike.  When the state belongs to a compile-cache family this is
      the family's own stripe lock: every table the family runs on
      shares the node caches and annotations above, so two runs of one
      family must not interleave.  Each table's index is its own
      (:attr:`TupleIndependentTable.index
      <repro.finite.tuple_independent.TupleIndependentTable.index>`)
      and needs no guard here.

    Runtime-only: excluded from family pickles and rebuilt empty on
    restore (snapshots re-warm in one run).
    """

    __slots__ = ("lock", "node_caches", "annotations")

    def __init__(self, lock: Optional[threading.RLock] = None) -> None:
        self.lock = lock if lock is not None else threading.RLock()
        self.node_caches: Dict[int, object] = {}
        self.annotations: Dict[int, Dict[int, object]] = {}

    def annotations_for(self, plan) -> Dict[int, object]:
        """The grouped-execution side table of one cached plan root,
        computed once per (family, plan object)."""
        info = self.annotations.get(id(plan))
        if info is None:
            from repro.logic.hierarchy import grouped_plan_info

            info = grouped_plan_info(plan)
            self.annotations[id(plan)] = info
        return info


class _Family:
    """All diagrams compiled for one query: the current manager, one
    ``(manager, root)`` per compiled table (keyed by its facts in table
    order), the query's safe plans, and the lifted executor's state."""

    __slots__ = ("manager", "roots", "lifted", "exec_state", "lock")

    def __init__(self) -> None:
        self.manager = BDDManager([])
        #: Each root with the manager it lives in: a table whose order
        #: does not extend the current manager's starts a fresh one, and
        #: the roots of the old one stay valid for their own tables.
        self.roots: "OrderedDict[object, Tuple[BDDManager, BDDRef]]" = (
            OrderedDict())
        #: Safe-plan solver results, keyed ``"strict"`` / ``"partial"``:
        #: ``("plan", plan, ucq)`` or ``("error", exc, ucq)``.  Plans are
        #: data-independent, so one entry serves every truncation of the
        #: family.
        self.lifted: Dict[str, tuple] = {}
        #: Per-family stripe: serializes root lookup/compile/eviction
        #: and plan building for *this* query, so distinct queries still
        #: compile concurrently.
        self.lock = threading.RLock()
        #: Lifted-executor state for this family's plans (binding
        #: tables, fold states, annotations).  Shares the stripe lock
        #: so a lifted run holds the family for its whole run.
        self.exec_state = LiftedExecState(self.lock)

    # ------------------------------------------------------------- pickling
    def __getstate__(self):
        """Flatten roots to node ids (each manager pickles its node
        store iteratively) and drop the stripe lock."""
        return {
            "manager": self.manager,
            "roots": [
                (key, manager, BDDManager._id(root))
                for key, (manager, root) in self.roots.items()
            ],
            "lifted": self.lifted,
        }

    def __setstate__(self, state) -> None:
        self.manager = state["manager"]
        resolvers: Dict[int, Dict[int, BDDRef]] = {}
        self.roots = OrderedDict()
        for key, manager, root_id in state["roots"]:
            by_id = resolvers.get(id(manager))
            if by_id is None:
                by_id = resolvers[id(manager)] = manager.nodes_by_id()
            self.roots[key] = (manager, by_id[root_id])
        self.lifted = state["lifted"]
        self.lock = threading.RLock()
        self.exec_state = LiftedExecState(self.lock)


class CompileCache:
    """LRU cache of compiled query diagrams and safe plans, one family
    per query.

    A diagram is keyed by the formula and the table's facts in table
    order (TI insertion order, BID block order) — hashable by structure,
    so syntactically equal queries over equal tables hit the same
    diagram.  Within a query family, a grown truncation compiles into
    the same manager: its new facts are appended *below* the existing
    order, and the manager's unique table and apply cache carry over, so
    shared substructure is reused rather than rebuilt.  A table whose
    order does not extend the manager's starts a fresh one.  Grounding
    and lifted runs read the table's own fact index; a family keeps no
    index of its own.

    >>> from repro.relational import Schema
    >>> from repro.logic import parse_formula
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> cache = CompileCache()
    >>> formula = parse_formula("EXISTS x. R(x)", schema)
    >>> table = TupleIndependentTable(schema, {R(1): 0.5})
    >>> small = cache.compiled(formula, table)
    >>> table.extend({R(2): 0.5})
    >>> large = cache.compiled(formula, table)
    >>> small.manager is large.manager
    True
    >>> cache.stats.misses, cache.stats.hits
    (2, 0)
    >>> _ = cache.compiled(formula, table)
    >>> cache.stats.hits
    1
    """

    def __init__(self, max_queries: int = 64, max_roots_per_query: int = 64):
        self._families: "OrderedDict[Formula, _Family]" = OrderedDict()
        self.max_queries = max_queries
        self.max_roots_per_query = max_roots_per_query
        self.stats = CacheStats()
        #: Guards the family map (lookup, insertion, LRU eviction) and
        #: the shared stats counters.  Compilation itself runs under the
        #: per-family stripe lock, so sessions working on *different*
        #: queries never serialize behind each other's compiles.
        self._lock = threading.RLock()

    def compiled(self, formula: Formula, table) -> CompiledQuery:
        """The compiled diagram of ``formula`` over a TI or BID table.

        The diagram tests the table's facts in the table's order,
        whatever the family compiled before (:meth:`BDDManager.aligned_to
        <repro.finite.bdd.BDDManager.aligned_to>`), is grounded through
        the table's :attr:`~TupleIndependentTable.index`, and is cached
        under that order.
        """
        index = table.index
        key = tuple(index)
        family = self._family(formula)
        with family.lock:
            entry = family.roots.get(key)
            if entry is not None:
                family.roots.move_to_end(key)
                with self._lock:
                    self.stats.hits += 1
                obs.incr("cache.hit")
                return CompiledQuery(*entry)
            with self._lock:
                self.stats.misses += 1
                if family.roots:
                    self.stats.extensions += 1
            obs.incr("cache.miss")
            if family.roots:
                obs.incr("cache.extension")
            manager = family.manager = family.manager.aligned_to(key)
            with obs.phase("compile"):
                expr = lineage_of(formula, index, index=index)
                root = manager.build(expr)
            obs.gauge("bdd.nodes", manager.count_nodes(root))
            family.roots[key] = (manager, root)
            while len(family.roots) > self.max_roots_per_query:
                family.roots.popitem(last=False)
            return CompiledQuery(manager, root)

    def _family(self, formula: Formula) -> _Family:
        with self._lock:
            family = self._families.get(formula)
            if family is None:
                family = _Family()
                self._families[formula] = family
                while len(self._families) > self.max_queries:
                    # Evicting a family another thread still holds is
                    # safe: that thread keeps its own reference and the
                    # orphaned family simply stops being shared.
                    self._families.popitem(last=False)
            self._families.move_to_end(formula)
            return family

    def lifted(
        self, formula: Formula, pdb, partial: bool = False
    ) -> Tuple[object, FactIndex]:
        """The safe plan of ``formula`` plus ``pdb``'s own fact index
        (:attr:`~TupleIndependentTable.index`).

        The plan (strict, or a hybrid one containing
        :class:`~repro.logic.hierarchy.UnsafeLeaf` residue when
        ``partial=True``) is compiled once per query family and reused
        across truncations — a plan is data-independent, only the table
        grows.  A formula with free variables gets its head-bound plan
        (see :func:`~repro.logic.hierarchy.safe_plan_ucq`), cached under
        the free formula's own family.  Builds count in the
        ``lifted.plans`` obs counter, reuses in
        ``lifted.plan_cache_hits``.  Raises
        :class:`~repro.errors.UnsafeQueryError` (cached too) when the
        query has no plan of the requested kind.
        """
        from repro.logic.hierarchy import UnsafeLeaf, safe_plan_ucq
        from repro.logic.normalform import extract_ucq

        if not isinstance(
            pdb, (TupleIndependentTable, BlockIndependentTable)
        ):
            raise EvaluationError(
                "lifted evaluation needs a TI or BID table")
        family = self._family(formula)
        with family.lock:
            entry = family.lifted.get("strict")
            if entry is None:
                ucq = extract_ucq(formula)
                if ucq is None:
                    entry = (
                        "error",
                        UnsafeQueryError(
                            f"query is not a UCQ: {formula}; "
                            "use an intensional strategy"
                        ),
                        None,
                    )
                else:
                    try:
                        entry = ("plan", safe_plan_ucq(ucq), ucq)
                        obs.incr("lifted.plans")
                    except UnsafeQueryError as exc:
                        entry = ("error", exc, ucq)
                family.lifted["strict"] = entry
            else:
                obs.incr("lifted.plan_cache_hits")
            kind, payload, ucq = entry
            if kind == "plan":
                return payload, _grounded(pdb)
            if not partial:
                raise payload
            hybrid = family.lifted.get("partial")
            if hybrid is None:
                plan = (
                    safe_plan_ucq(ucq, partial=True)
                    if ucq is not None else None
                )
                if plan is None or isinstance(plan, UnsafeLeaf):
                    # No safe component at all: partial buys nothing.
                    hybrid = ("error", payload, ucq)
                else:
                    hybrid = ("plan", plan, ucq)
                    obs.incr("lifted.plans")
                family.lifted["partial"] = hybrid
            if hybrid[0] == "error":
                raise hybrid[1]
            return hybrid[1], _grounded(pdb)

    def lifted_state(self, formula: Formula) -> LiftedExecState:
        """The lifted-executor state of ``formula``'s family — binding
        tables and fold states delta-extended across a table's
        truncations, and plan annotations.  Same lifetime as the
        family's cached plans (evicted together)."""
        return self._family(formula).exec_state

    def clear(self) -> None:
        with self._lock:
            self._families.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return sum(
                len(family.roots) for family in self._families.values())

    # ------------------------------------------------------------- pickling
    def __getstate__(self):
        """Snapshot payload: families (flattened by their own
        ``__getstate__``), stats, and limits — locks dropped and
        recreated on restore."""
        return {
            "families": self._families,
            "max_queries": self.max_queries,
            "max_roots_per_query": self.max_roots_per_query,
            "stats": self.stats,
        }

    def __setstate__(self, state) -> None:
        self._families = state["families"]
        self.max_queries = state["max_queries"]
        self.max_roots_per_query = state["max_roots_per_query"]
        self.stats = state["stats"]
        self._lock = threading.RLock()


def _grounded(pdb) -> FactIndex:
    """``pdb``'s fact index, timed as the ``ground`` phase — so
    ``--stats`` splits a lifted evaluation into the table's first index
    build and plan execution."""
    with obs.phase("ground"):
        return pdb.index


class CacheStats:
    """Hit/miss/extension counters of one :class:`CompileCache`."""

    __slots__ = ("hits", "misses", "extensions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.extensions = 0

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"extensions={self.extensions})"
        )


#: The process-wide cache the ``strategy="bdd"`` dispatcher path uses.
DEFAULT_COMPILE_CACHE = CompileCache()


def bid_bdd_probability(
    manager: BDDManager,
    root: BDDRef,
    table: BlockIndependentTable,
    cache: Optional[Dict[int, float]] = None,
) -> float:
    """Probability of a compiled diagram under a BID table.

    Branches over the block of the diagram's top variable — each
    alternative plus ⊥ — restricting the whole block away per branch,
    exactly like the lineage-space block expansion but with linear-time
    ``restrict`` on the shared node store.  Memoized per node id: a node
    reached twice denotes the same Boolean function, whose probability
    under the remaining (untouched) blocks is well-defined.
    """
    if cache is None:
        cache = {}

    def recurse(node: BDDRef) -> float:
        if node == ZERO:
            return 0.0
        if node == ONE:
            return 1.0
        cached = cache.get(node.id)
        if cached is not None:
            return cached
        pivot = node.fact
        block = table.block_of(pivot)
        if block is None:
            # Fact impossible under the table: simply absent.
            value = recurse(manager.restrict(node, pivot, False))
        else:
            block_facts = block.facts()
            value = 0.0
            for chosen in block_facts + [None]:
                probability = block.probability(chosen)
                if probability == 0.0:
                    continue
                conditioned = node
                for fact in block_facts:
                    conditioned = manager.restrict(
                        conditioned, fact, fact == chosen)
                value += probability * recurse(conditioned)
        cache[node.id] = value
        return value

    return recurse(root)


def query_probability_by_bdd_cached(
    query,
    pdb,
    cache: Optional[CompileCache] = None,
) -> float:
    """Exact ``P(Q)`` via the compilation cache — the ``strategy="bdd"``
    entry point of :func:`repro.finite.evaluation.query_probability`.

    TI tables score by one weighted-model-counting pass; BID tables by
    block-aware branching over the same compiled diagram.  Variables are
    ordered by the table's insertion order, so a table grown in place
    along an ε-sweep gets the bits a cold compile of it gets.

    >>> from repro.relational import Schema
    >>> from repro.logic import BooleanQuery, parse_formula
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> table = TupleIndependentTable(schema, {R(1): 0.5, R(2): 0.5})
    >>> q = BooleanQuery(parse_formula("EXISTS x. R(x)", schema), schema)
    >>> query_probability_by_bdd_cached(q, table, CompileCache())
    0.75
    """
    if cache is None:
        cache = DEFAULT_COMPILE_CACHE
    if isinstance(pdb, (TupleIndependentTable, BlockIndependentTable)):
        compiled = cache.compiled(query.formula, pdb)
        record_fold_error(wmc_error_bound(len(pdb.index)))
        if isinstance(pdb, TupleIndependentTable):
            return compiled.probability(pdb.marginal)
        return bid_bdd_probability(compiled.manager, compiled.root, pdb)
    raise EvaluationError(
        "bdd evaluation needs a TI or BID table; explicit FinitePDBs "
        "carry correlations lineage cannot factor"
    )


class SharedGrounding:
    """Shared compilation context for a non-Boolean answer fan-out.

    One manager, one hash-consed node store, one weighted-model-counting
    memo (TI) or block-branching memo (BID) serve every answer tuple:
    grounding ``Q(ā)`` and ``Q(b̄)`` typically yields heavily overlapping
    lineages, and their shared sub-diagrams are compiled and scored once.
    Every answer grounds through the table's own fact index
    (:attr:`~TupleIndependentTable.index`).  The manager orders
    variables by the table's order, every table fact included, so
    :meth:`extended` only ever appends the truncation's new facts to it.
    """

    def __init__(
        self,
        formula: Formula,
        pdb,
        base_domain: Iterable[Value],
        manager: Optional[BDDManager] = None,
        score_cache: Optional[Dict[int, float]] = None,
    ):
        if not isinstance(
            pdb, (TupleIndependentTable, BlockIndependentTable)
        ):
            raise EvaluationError("shared grounding needs a TI or BID table")
        self.formula = formula
        self.pdb = pdb
        #: Quantifier domain shared by every answer: the active domain
        #: plus the formula's own constants.  Each answer adds its own
        #: values — matching what per-answer grounding would use.
        self.base_domain: FrozenSet[Value] = frozenset(base_domain)
        index = pdb.index
        if manager is None:
            manager, score_cache = BDDManager(list(index)), None
        self.manager = manager
        self._score_cache: Dict[int, float] = (
            {} if score_cache is None else score_cache)
        #: The table's size when this grounding was made: a manager
        #: whose order has exactly this many facts holds the table's
        #: first ``_rows`` index rows, in order.
        self._rows = len(index)

    @property
    def index(self) -> FactIndex:
        """The table's fact index, which every answer grounds through."""
        return self.pdb.index

    def extended(self, pdb, base_domain: Iterable[Value]) -> "SharedGrounding":
        """A grounding over a *grown truncation* of the same query,
        warm-started from this one: the manager (hash-consed node store,
        apply cache) and the probability memo carry over.  Sound because
        growing a truncation never changes the marginal of an existing
        fact, and a node's weighted-model-count depends only on the
        facts in its cone — new variables cannot alter it.

        When ``pdb`` is this grounding's own table, grown in place, the
        manager's order gains just the table's new index rows.  Any
        other table realigns the manager (:meth:`BDDManager.aligned_to
        <repro.finite.bdd.BDDManager.aligned_to>`); one whose order does
        not extend the manager's gets a fresh manager and memo."""
        index = pdb.index
        manager = self.manager
        if pdb is self.pdb and len(manager.order) == self._rows:
            manager.extend_order(
                [index.fact_at(row) for row in range(self._rows, len(index))])
        else:
            manager = manager.aligned_to(list(index))
        score_cache = self._score_cache if manager is self.manager else None
        return SharedGrounding(
            self.formula, pdb, base_domain,
            manager=manager, score_cache=score_cache)

    def answer_probability(
        self,
        variables: Tuple[Variable, ...],
        answer: Tuple[Value, ...],
    ) -> float:
        """``Pr(ā ∈ Q)`` for one answer tuple, via the shared manager."""
        index = self.pdb.index
        expr = lineage_of(
            self.formula,
            index,
            domain=self.base_domain.union(answer),
            assignment=dict(zip(variables, answer)),
            index=index,
        )
        root = self.manager.build(expr)
        record_fold_error(wmc_error_bound(len(index)))
        if isinstance(self.pdb, TupleIndependentTable):
            return self.manager.probability(
                root, self.pdb.marginal, self._score_cache)
        return bid_bdd_probability(
            self.manager, root, self.pdb, self._score_cache)

    def answer_support(
        self,
        variables: Tuple[Variable, ...],
        candidates: Iterable[Value],
    ) -> Optional[list]:
        """Candidate answer tuples with possibly-non-⊥ lineage, derived
        from the join results of one set-at-a-time grounding run —
        instead of enumerating the full ``candidates^arity`` product.

        Returns the tuples in the exact order the product enumeration
        would visit them, or None when the formula is outside the
        engine's fragment (callers then stream the full product).  The
        support is a *superset* of the true non-zero answers (the engine
        runs over the union of every per-answer quantifier domain, and
        positive-existential grounding is monotone in the domain), so
        pruning never drops an answer; answer variables the formula
        never constrains are padded with every candidate.
        """
        from repro.logic.ground import (
            GroundingEngine,
            supports_set_at_a_time,
        )

        candidates = list(candidates)
        if not variables or not candidates:
            return None
        if not supports_set_at_a_time(self.formula):
            return None
        if not free_variables(self.formula) <= set(variables):
            return None
        domain = self.base_domain.union(candidates)
        if not domain:
            return None
        engine = GroundingEngine(self.pdb.index, frozenset(domain))
        rows = engine.relation(self.formula)
        if engine.probes:
            obs.incr("grounding.probes", engine.probes)
        if engine.joins:
            obs.incr("grounding.joins", engine.joins)
        candidate_set = set(candidates)
        total = len(candidates) ** len(variables)
        bound = [row for row in rows.rows
                 if all(value in candidate_set for value in row)]
        missing = len(variables) - len(rows.vars)
        if len(bound) * len(candidates) ** missing >= total:
            return None  # nothing to prune; stream the product instead
        # Expand to full answer tuples: formula-bound positions from the
        # join rows, unconstrained answer variables over all candidates.
        position = {var: i for i, var in enumerate(rows.vars)}
        answers = []
        for row in bound:
            partial = [(var, row[position[var]])
                       for var in variables if var in position]
            combos = [dict(partial)]
            for var in variables:
                if var in position:
                    continue
                combos = [
                    dict(combo, **{var: value})
                    for combo in combos for value in candidates
                ]
            answers.extend(
                tuple(combo[var] for var in variables) for combo in combos)
        order = {value: i for i, value in enumerate(candidates)}
        answers = sorted(
            set(answers), key=lambda t: tuple(order[v] for v in t))
        obs.incr("grounding.pruned_answers", total - len(answers))
        return answers
