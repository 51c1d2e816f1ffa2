"""Lifted (extensional) query evaluation via safe plans.

Evaluates safe Boolean UCQs in polynomial time on finite
tuple-independent and block-independent tables — the efficient
"traditional closed-world evaluation algorithm" plugged into the
Proposition 6.1 truncation pipeline.  Plans come from the Dalvi–Suciu
solver in :mod:`repro.logic.hierarchy`; this module interprets them
against a table through a binding environment:

* ``FactLeaf`` grounds its atom with the current binding and reads the
  fact's marginal;
* ``IndependentProject`` discovers candidate values for its separator
  variable by probing the :class:`~repro.relational.index.FactIndex`
  hash indexes (bound-column signatures — no per-atom scans) and folds
  ``1 − Π_a (1 − P(child[x↦a]))``;
* ``IndependentJoin`` / ``IndependentUnion`` multiply / co-multiply;
* ``InclusionExclusion`` sums signed term probabilities;
* ``UnsafeLeaf`` (partial plans only) delegates its residue formula to a
  caller-supplied intensional fallback.

On BID tables the independence every multiplicative node assumes is
re-checked against the block partition at evaluation time: nodes whose
subtrees touch disjoint block sets evaluate as on TI tables, same-block
alternatives combine by the disjoint-union rule
``P = 1 − Π_blocks (1 − Σ_alternatives p)``, and anything else raises
:class:`UnsafeQueryError` so ``strategy="auto"`` falls back to an
intensional engine.
"""

from __future__ import annotations

import bisect
import itertools
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
    Union,
)

from repro import obs
from repro.errors import EvaluationError, UnsafeQueryError
from repro.finite.bid import BlockIndependentTable
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic.hierarchy import (
    FactLeaf,
    GroupedLeaf,
    GroupedProject,
    InclusionExclusion,
    IndependentJoin,
    IndependentProject,
    IndependentUnion,
    SafePlan,
    UnsafeLeaf,
    grouped_plan_info,
    safe_plan,
    safe_plan_ucq,
)
from repro.logic.normalform import (
    ConjunctiveQuery,
    UnionOfConjunctiveQueries,
)
from repro.logic.queries import BooleanQuery, Query
from repro.logic.syntax import Atom, Constant, Formula, Variable
from repro.relational.facts import Fact, Value, domain_sort_key
from repro.relational.index import FactIndex
from repro.utils.probability import (
    TINY_PROBABILITY,
    UNDERFLOW_FLOOR,
    UNIT_ROUNDOFF,
    ComplementAccumulator,
    record_fold_error,
    segmented_disjunction,
)
from repro.utils.rationals import round_up

__all__ = [
    "answer_marginals_lifted",
    "evaluate_plan",
    "query_probability_lifted",
    "safe_plan",
    "safe_plan_ucq",
]

LiftedTable = Union[TupleIndependentTable, BlockIndependentTable]

Binding = Dict[Variable, Value]

#: Obs counter: plan nodes evaluated as one grouped columnar pass.
LIFTED_VECTORIZED_NODES = "lifted.vectorized_nodes"
#: Obs counter: grouped evaluations that fell back to the scalar path
#: (per-group unsafe residue, or a whole-plan BID fallback).
LIFTED_SCALAR_FALLBACKS = "lifted.scalar_fallbacks"
#: Obs counter: index rows flowing through grouped probe/fold passes.
LIFTED_GROUP_ROWS = "lifted.group_rows"
#: Obs counter: separator groups served from a delta-extended
#: per-plan-node binding cache instead of re-executing the child.
LIFTED_CACHED_GROUPS = "lifted.cached_groups"
#: Obs counter: scalar-path candidate sets served from the memo.
LIFTED_CANDIDATE_MEMO_HITS = "lifted.candidate_memo_hits"
#: Obs counter: bound segments whose fold resumed from its kept state.
LIFTED_FOLDS_RESUMED = "lifted.folds_resumed"
#: Obs counter: bound segments folded in full while fold states are
#: kept — first folds, and folds that could not resume (a tiny marginal,
#: underflow, or a state that was not clean).
LIFTED_FOLDS_REFOLDED = "lifted.folds_refolded"

_EXECUTORS = ("auto", "scalar", "batched")

#: Placeholder for the separator value in a probe-key layout.
_SEPARATOR = object()


def _ground_fact(atom: Atom, binding: Binding) -> Fact:
    args: List[Value] = []
    for term in atom.terms:
        if isinstance(term, Constant):
            args.append(term.value)
        elif term in binding:
            args.append(binding[term])
        else:
            raise EvaluationError(
                f"unbound variable {term} at plan leaf {atom}"
            )
    return Fact(atom.relation, tuple(args))


def _probe_pattern(atom: Atom, binding: Binding) -> Dict[int, Value]:
    """The bound-column pattern an atom fixes under ``binding``:
    constants plus already-bound variables."""
    bound: Dict[int, Value] = {}
    for i, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            bound[i] = term.value
        elif term in binding:
            bound[i] = binding[term]
    return bound


def _atom_candidates(
    atom: Atom,
    variable: Variable,
    index: FactIndex,
    binding: Binding,
) -> Set[Value]:
    """Values the index supports for ``variable`` in one atom: probe the
    atom's bound columns, read the variable's positions off the matching
    facts (requiring repeated positions to agree)."""
    positions = [i for i, term in enumerate(atom.terms) if term == variable]
    bound = _probe_pattern(atom, binding)
    values: Set[Value] = set()
    for fact in index.probe(atom.relation, bound):
        position_values = {fact.args[i] for i in positions}
        if len(position_values) == 1:
            values.add(position_values.pop())
    return values


def _candidate_values(
    subquery: Union[ConjunctiveQuery, UnionOfConjunctiveQueries],
    variable: Variable,
    index: FactIndex,
    binding: Binding,
) -> List[Value]:
    """Values worth grounding ``variable`` with, in the shared
    :func:`~repro.relational.facts.domain_sort_key` order (consistent
    with the join grounder, so lifted grounding is reproducible across
    backends).  For a CQ the sets from each atom containing the variable
    intersect (the separator occurs in all of them); for a UCQ the
    per-disjunct candidates union.  Values outside give subquery
    probability 0 and contribute nothing to the independent project."""
    if isinstance(subquery, UnionOfConjunctiveQueries):
        union: Set[Value] = set()
        for cq in subquery.disjuncts:
            union |= _cq_candidates(cq, variable, index, binding)
        return sorted(union, key=domain_sort_key)
    return sorted(
        _cq_candidates(subquery, variable, index, binding),
        key=domain_sort_key,
    )


def _cq_candidates(
    cq: ConjunctiveQuery,
    variable: Variable,
    index: FactIndex,
    binding: Binding,
) -> Set[Value]:
    candidate_sets: List[Set[Value]] = []
    for atom in cq.atoms:
        if variable not in {t for t in atom.terms if isinstance(t, Variable)}:
            continue
        candidate_sets.append(
            _atom_candidates(atom, variable, index, binding))
    if not candidate_sets:
        return set()
    return set.intersection(*candidate_sets)


def _plan_atoms(plan: SafePlan) -> Iterator[Atom]:
    """All atoms a plan subtree can touch — leaves, plus project scopes
    (a project's child only narrows its scope, so the scope's atoms are
    a safe superset)."""
    if isinstance(plan, FactLeaf):
        yield plan.atom
    elif isinstance(plan, (IndependentJoin, IndependentUnion)):
        for child in plan.children:
            yield from _plan_atoms(child)
    elif isinstance(plan, IndependentProject):
        yield from _scope_atoms(plan.subquery)
    elif isinstance(plan, InclusionExclusion):
        for _, term in plan.terms:
            yield from _plan_atoms(term)
    elif isinstance(plan, UnsafeLeaf):
        yield from _scope_atoms(plan.subquery)
    else:  # pragma: no cover - defensive
        raise EvaluationError(f"unknown plan node {plan!r}")


def _scope_atoms(
    scope: Union[ConjunctiveQuery, UnionOfConjunctiveQueries]
) -> Iterator[Atom]:
    if isinstance(scope, UnionOfConjunctiveQueries):
        for cq in scope.disjuncts:
            yield from cq.atoms
    else:
        yield from scope.atoms


def _agreeing_rows(
    index: FactIndex, rows: Sequence[int], positions: Sequence[int]
) -> Sequence[int]:
    """The rows whose facts hold one value at every separator position
    (all of them when the separator occurs once), in order."""
    first, rest = positions[0], positions[1:]
    if not rest:
        return rows
    fact_at = index.fact_at
    kept = []
    for row in rows:
        args = fact_at(row).args
        value = args[first]
        if all(args[p] == value for p in rest):
            kept.append(row)
    return kept


def _sorted_by_value(
    index: FactIndex, rows: Sequence[int], position: int
) -> List[int]:
    """An unbound segment's rows in the ``domain_sort_key`` order of
    their value at ``position``.  Buckets are ascending, so the stable
    sort leaves any key tie (distinct values that print alike) in row
    order."""
    fact_at = index.fact_at
    return sorted(
        rows, key=lambda row: domain_sort_key(fact_at(row).args[position]))


def _resume_fold(product: float, values: Iterable[float]):
    """Continue a clean complement fold over ``values``, in order: the
    new ``(product, zero)`` state, or None where the fold would leave
    the clean regime (a tiny marginal, or a product under the underflow
    floor).  A clean fold of ``values`` appended to a segment gives the
    bits a fold of the whole segment gives, because both multiply the
    factors strictly left to right
    (:func:`repro.utils.probability.segmented_fold`)."""
    for p in values:
        if p >= 1.0:
            return product, True
        if p < TINY_PROBABILITY:
            if p > 0.0:
                return None
            continue
        product *= 1.0 - p
    if product < UNDERFLOW_FLOOR:
        return None
    return product, False


class _PlanEvaluator:
    """Interprets a safe plan against one table via a binding
    environment; all data access goes through the table's
    :class:`~repro.relational.index.FactIndex`."""

    __slots__ = (
        "table", "index", "is_bid", "unsafe_fallback", "candidate_memo")

    def __init__(
        self,
        table: LiftedTable,
        index: FactIndex,
        unsafe_fallback: Optional[Callable[[Formula], float]] = None,
        candidate_memo: Optional[Dict[object, tuple]] = None,
    ):
        self.table = table
        self.index = index
        self.is_bid = isinstance(table, BlockIndependentTable)
        self.unsafe_fallback = unsafe_fallback
        #: Separator-candidate memo, keyed by plan-node id — pass the
        #: compile-cache family's persistent dict to keep hits across
        #: runs of one ε-sweep; entries carry the (index, epoch) they
        #: were computed at, so truncation growth invalidates them.
        self.candidate_memo = candidate_memo if candidate_memo is not None else {}

    def run(self, plan: SafePlan) -> float:
        return self._eval(plan, {})

    def _candidates(
        self, plan: IndependentProject, binding: Binding
    ) -> List[Value]:
        """Separator candidates of one project node, memoized per
        (plan node, truncation epoch).

        The candidate set depends on the binding only through scope
        variables other than the separator; when none of those is bound
        (the root-level visit, and every re-visit of the same node at
        the same truncation) the set is a pure function of (node, index
        state) and the memo serves repeats without re-probing."""
        memo = self.candidate_memo
        key = id(plan)
        scope = memo.get(("scope", key))
        if scope is None:
            scope = frozenset(
                term
                for atom in _scope_atoms(plan.subquery)
                for term in atom.terms
                if isinstance(term, Variable) and term != plan.variable
            )
            memo[("scope", key)] = scope
        if binding and not scope.isdisjoint(binding):
            return _candidate_values(
                plan.subquery, plan.variable, self.index, binding)
        index = self.index
        entry = memo.get(key)
        if (
            entry is not None
            and entry[0] is index
            and entry[1] == index.epoch
        ):
            obs.incr(LIFTED_CANDIDATE_MEMO_HITS)
            return entry[2]
        values = _candidate_values(
            plan.subquery, plan.variable, index, binding)
        memo[key] = (index, index.epoch, values)
        return values

    # ------------------------------------------------------------- dispatch
    def _eval(self, plan: SafePlan, binding: Binding) -> float:
        if isinstance(plan, FactLeaf):
            return self.table.marginal(_ground_fact(plan.atom, binding))
        if isinstance(plan, IndependentJoin):
            return self._eval_join(plan, binding)
        if isinstance(plan, IndependentUnion):
            return self._eval_union(plan, binding)
        if isinstance(plan, IndependentProject):
            return self._eval_project(plan, binding)
        if isinstance(plan, InclusionExclusion):
            return sum(
                coefficient * self._eval(term, binding)
                for coefficient, term in plan.terms
            )
        if isinstance(plan, UnsafeLeaf):
            if self.unsafe_fallback is None:
                raise UnsafeQueryError(
                    f"plan contains an unsafe residue: {plan.subquery!r}",
                    subquery=plan.subquery,
                )
            return float(self.unsafe_fallback(plan.formula()))
        raise EvaluationError(f"unknown plan node {plan!r}")

    # ------------------------------------------------------------ operators
    def _eval_join(self, plan: IndependentJoin, binding: Binding) -> float:
        if self.is_bid:
            self._require_disjoint_blocks(
                plan.children, binding, "independent join"
            )
        probability = 1.0
        for child in plan.children:
            probability *= self._eval(child, binding)
            if probability == 0.0:
                return 0.0
        return probability

    def _eval_union(self, plan: IndependentUnion, binding: Binding) -> float:
        if self.is_bid and not self._blocks_disjoint(plan.children, binding):
            if all(isinstance(c, FactLeaf) for c in plan.children):
                facts = [
                    _ground_fact(c.atom, binding) for c in plan.children
                ]
                return self._disjoint_union(facts)
            raise UnsafeQueryError(
                "BID blocks overlap across union branches; the "
                "independent-union rule does not apply"
            )
        # Log-space complement accumulation (utils.probability): the
        # naive ``complement *= 1.0 - p`` loop silently drops children
        # below one ulp of 0 and underflows past ~1e-308.
        acc = ComplementAccumulator()
        for child in plan.children:
            acc.add(self._eval(child, binding))
            if acc.is_zero:
                return 1.0
        return acc.disjunction()

    def _eval_project(
        self, plan: IndependentProject, binding: Binding
    ) -> float:
        if not self.is_bid and isinstance(plan.child, FactLeaf):
            fast = self._project_leaf_fast(plan, binding)
            if fast is not None:
                return fast
        values = self._candidates(plan, binding)
        bindings = [
            {**binding, plan.variable: value} for value in values
        ]
        if self.is_bid and not self._bindings_disjoint(plan.child, bindings):
            if isinstance(plan.child, FactLeaf):
                facts = [
                    _ground_fact(plan.child.atom, b) for b in bindings
                ]
                return self._disjoint_union(facts)
            raise UnsafeQueryError(
                "BID blocks overlap across project values; the "
                "independent-project rule does not apply"
            )
        acc = ComplementAccumulator()
        for child_binding in bindings:
            acc.add(self._eval(plan.child, child_binding))
            if acc.is_zero:
                return 1.0
        return acc.disjunction()

    def _project_leaf_fast(
        self, plan: IndependentProject, binding: Binding
    ) -> Optional[float]:
        """Columnar independent project over a single-atom leaf (TI
        tables): one index probe returns the matching row ids, the
        marginal column serves the slice, and the fold runs without
        per-candidate binding dicts, fact grounding, or recursion.

        Folds in the batched executor's order, so results stay
        bit-identical to it: a *bound* segment (the binding fixes a
        variable of the atom) in row order, which is the table's order
        because the index interns in it; an unbound one in the
        ``domain_sort_key`` order of its separator values.  Returns None
        when the leaf's atom has free variables besides the project
        variable — the generic path handles those.
        """
        atom = plan.child.atom
        variable = plan.variable
        positions: List[int] = []
        bound = False
        for i, term in enumerate(atom.terms):
            if term == variable:
                positions.append(i)
            elif isinstance(term, Constant):
                continue
            elif term in binding:
                bound = True
            else:
                return None
        if not positions:
            return None
        rows = self.index.probe_rows(
            atom.relation, _probe_pattern(atom, binding))
        if not rows:
            return 0.0
        column = self.index.marginal_column(self.table)
        rows = _agreeing_rows(self.index, rows, positions)
        if not bound:
            rows = _sorted_by_value(self.index, rows, positions[0])
        acc = ComplementAccumulator()
        for row in rows:
            acc.add(column[row])
            if acc.is_zero:
                return 1.0
        return acc.disjunction()

    # ------------------------------------------------------- BID machinery
    def _touched_blocks(self, plan: SafePlan, binding: Binding) -> Set[str]:
        """Names of every block a subtree can read under ``binding`` —
        a superset, derived by probing each reachable atom's bound
        columns."""
        names: Set[str] = set()
        assert isinstance(self.table, BlockIndependentTable)
        for atom in _plan_atoms(plan):
            bound = _probe_pattern(atom, binding)
            for fact in self.index.probe(atom.relation, bound):
                block = self.table.block_of(fact)
                if block is not None:
                    names.add(block.name)
        return names

    def _blocks_disjoint(self, children, binding: Binding) -> bool:
        seen: Set[str] = set()
        for child in children:
            touched = self._touched_blocks(child, binding)
            if touched & seen:
                return False
            seen |= touched
        return True

    def _bindings_disjoint(self, child: SafePlan, bindings) -> bool:
        seen: Set[str] = set()
        for child_binding in bindings:
            touched = self._touched_blocks(child, child_binding)
            if touched & seen:
                return False
            seen |= touched
        return True

    def _require_disjoint_blocks(
        self, children, binding: Binding, rule: str
    ) -> None:
        if not self._blocks_disjoint(children, binding):
            raise UnsafeQueryError(
                f"BID blocks overlap across {rule} operands; the plan's "
                "independence assumption fails on this table"
            )

    def _disjoint_union(self, facts) -> float:
        """``P(∨ facts)`` when the facts may share blocks: within a
        block alternatives are mutually exclusive (masses add), across
        blocks independent."""
        assert isinstance(self.table, BlockIndependentTable)
        per_block: Dict[str, float] = {}
        seen: Set[Fact] = set()
        for fact in facts:
            if fact in seen:
                continue
            seen.add(fact)
            block = self.table.block_of(fact)
            if block is None:
                continue  # impossible fact: contributes 0
            mass = per_block.get(block.name, 0.0) + block.probability(fact)
            per_block[block.name] = mass
        acc = ComplementAccumulator()
        for mass in per_block.values():
            acc.add(min(1.0, mass))
            if acc.is_zero:
                return 1.0
        return acc.disjunction()


class _Groups:
    """A group table: ``size`` separator-binding rows, one value column
    per bound variable.  The batched evaluator threads one of these
    through the plan instead of a per-candidate binding dict — node
    evaluation returns one probability per group row."""

    __slots__ = ("size", "columns")

    def __init__(self, size: int, columns: Dict[Variable, List[Value]]):
        self.size = size
        self.columns = columns


class _ProjectDeltaCache:
    """Per-plan-node binding table of a root-level project: the
    separator values discovered so far with their child probabilities,
    stamped with the index state they were computed at.  An ε-sweep's
    next truncation re-executes only the values its delta facts touch —
    sound because the separator occurs in every scope atom, so a new
    fact can only perturb the candidate value it mentions (and existing
    facts' marginals never change under extension)."""

    __slots__ = (
        "index", "source", "epoch", "keys", "values", "probs", "slots",
        "result",
    )

    def __init__(self, index, source, epoch, values, probs):
        self.index = index
        #: The table the child probabilities were computed against —
        #: index and epoch alone don't pin them, because two tables
        #: with one fact set (same family index) may disagree on
        #: marginals.  Sweeps extend one table in place, so identity
        #: is the right key.
        self.source = source
        self.epoch = epoch
        #: ``values`` in canonical ``domain_sort_key`` order, each key
        #: kept beside its value so a new value is placed by bisection.
        self.keys: List[tuple] = [domain_sort_key(v) for v in values]
        self.values: List[Value] = values
        self.probs: List[float] = probs
        self.slots: Dict[Value, int] = {v: i for i, v in enumerate(values)}
        #: The folded disjunction over ``probs`` — a warm re-evaluation
        #: of an unchanged truncation (the serving hot path) returns it
        #: without re-folding.
        self.result: Optional[float] = None


class _SegmentFolds:
    """Fold states of one bound single-leaf project: per bucket key, the
    ``(epoch, product, zero)`` its segment's last fold ended in, kept
    only where that fold was clean (zero, or no log residual and a
    product at or above the underflow floor).  The fold covered the
    bucket's rows below ``epoch``.  Buckets only append, in table order,
    so the rows a later step adds are the bucket's rows from ``epoch``
    on, and folding them onto ``product`` gives a full re-fold's bits
    (:func:`_resume_fold`).  Stamped, like :class:`_ProjectDeltaCache`,
    with the index and table the states were computed against."""

    __slots__ = ("index", "source", "states")

    def __init__(self, index, source):
        self.index = index
        self.source = source
        self.states: Dict[tuple, Tuple[int, float, bool]] = {}


class _BatchedEvaluator:
    """Set-at-a-time plan interpreter over the columnar layer (TI
    tables).

    Where :class:`_PlanEvaluator` recurses once per separator candidate,
    this evaluator visits each plan node **once per node**: a project
    materializes all its separator bindings as a group table, the child
    subplan evaluates for every group in one pass, and the fold back to
    per-parent-group probabilities is a segmented hybrid log-space
    reduction (:func:`repro.utils.probability.segmented_disjunction`).
    Numerically it applies the exact per-element policy of
    :class:`~repro.utils.probability.ComplementAccumulator`, so dyadic
    marginals stay bit-exact against the scalar path and the other
    exact strategies.

    BID tables keep the scalar path: their disjoint-union rule needs
    per-binding block inspection (see ``_run_plan``).
    """

    __slots__ = (
        "table", "index", "unsafe_fallback", "info", "node_caches",
        "column", "np", "marginals",
    )

    def __init__(
        self,
        table: LiftedTable,
        index: FactIndex,
        unsafe_fallback: Optional[Callable[[Formula], float]] = None,
        info: Optional[Dict[int, object]] = None,
        node_caches: Optional[Dict[int, object]] = None,
    ):
        if isinstance(table, BlockIndependentTable):  # pragma: no cover
            raise EvaluationError(
                "the batched executor evaluates TI tables only")
        self.table = table
        self.index = index
        self.unsafe_fallback = unsafe_fallback
        self.info = info
        self.node_caches = node_caches
        self.column = index.marginal_column(table)
        if self.column.backend == "numpy":
            from repro.utils.probability import numpy_or_none

            self.np = numpy_or_none()
        else:
            self.np = None
        #: Zero-copy marginal values aligned to row ids (list or array).
        self.marginals = self.column.view()

    def run(self, plan: SafePlan) -> float:
        return float(self.run_groups(plan, _Groups(1, {}))[0])

    def run_groups(self, plan: SafePlan, groups: _Groups):
        """Evaluate ``plan`` over a caller-built group table: one
        probability per group row, with no fold across rows."""
        if self.info is None:
            self.info = grouped_plan_info(plan)
        return self._eval(plan, groups)

    # ------------------------------------------------------------- dispatch
    def _eval(self, plan: SafePlan, groups: _Groups):
        if isinstance(plan, FactLeaf):
            return self._eval_leaf(plan, groups)
        if isinstance(plan, IndependentJoin):
            return self._eval_join(plan, groups)
        if isinstance(plan, IndependentUnion):
            return self._eval_union(plan, groups)
        if isinstance(plan, IndependentProject):
            return self._eval_project(plan, groups)
        if isinstance(plan, InclusionExclusion):
            return self._eval_inclusion_exclusion(plan, groups)
        if isinstance(plan, UnsafeLeaf):
            return self._eval_unsafe(plan, groups)
        raise EvaluationError(f"unknown plan node {plan!r}")

    # ------------------------------------------------------------ operators
    def _eval_leaf(self, plan: FactLeaf, groups: _Groups):
        """Ground every group's binding of the leaf atom in one sweep of
        the full-arity signature table; absent facts contribute 0."""
        obs.incr(LIFTED_VECTORIZED_NODES)
        leaf: GroupedLeaf = self.info[id(plan)]
        columns = []
        for kind, payload in leaf.layout:
            if kind == "c":
                columns.append(itertools.repeat(payload, groups.size))
            else:
                column = groups.columns.get(payload)
                if column is None:
                    raise EvaluationError(
                        f"unbound variable {payload} at plan leaf {plan.atom}"
                    )
                columns.append(column)
        table = self.index.signature_table(
            leaf.relation, tuple(range(len(leaf.layout))))
        lookup = table.get
        if leaf.layout:
            keys = zip(*columns)
        else:
            keys = itertools.repeat((), groups.size)
        rows = []
        for key in keys:
            bucket = lookup(key)
            rows.append(bucket[0] if bucket else -1)
        obs.incr(LIFTED_GROUP_ROWS, groups.size)
        np = self.np
        if np is None:
            marginals = self.marginals
            return [marginals[row] if row >= 0 else 0.0 for row in rows]
        row_array = np.asarray(rows, dtype=np.intp)
        out = np.zeros(len(rows), dtype=np.float64)
        present = row_array >= 0
        if bool(present.any()):
            out[present] = self.column.array()[row_array[present]]
        return out

    def _eval_join(self, plan: IndependentJoin, groups: _Groups):
        obs.incr(LIFTED_VECTORIZED_NODES)
        np = self.np
        if np is None:
            totals = [1.0] * groups.size
            for child in plan.children:
                vector = self._eval(child, groups)
                for g, p in enumerate(vector):
                    totals[g] *= p
            return totals
        out = np.ones(groups.size, dtype=np.float64)
        for child in plan.children:
            out = out * np.asarray(self._eval(child, groups))
        return out

    def _eval_union(self, plan: IndependentUnion, groups: _Groups):
        obs.incr(LIFTED_VECTORIZED_NODES)
        vectors = [self._eval(child, groups) for child in plan.children]
        return self._fold_disjunction(vectors, groups.size)

    def _eval_inclusion_exclusion(
        self, plan: InclusionExclusion, groups: _Groups
    ):
        obs.incr(LIFTED_VECTORIZED_NODES)
        np = self.np
        if np is None:
            totals = [0.0] * groups.size
            for coefficient, term in plan.terms:
                vector = self._eval(term, groups)
                for g, p in enumerate(vector):
                    totals[g] += coefficient * p
            return totals
        out = np.zeros(groups.size, dtype=np.float64)
        for coefficient, term in plan.terms:
            out = out + coefficient * np.asarray(self._eval(term, groups))
        return out

    def _eval_unsafe(self, plan: UnsafeLeaf, groups: _Groups):
        if self.unsafe_fallback is None:
            raise UnsafeQueryError(
                f"plan contains an unsafe residue: {plan.subquery!r}",
                subquery=plan.subquery,
            )
        # Unsafe residue exists only at the root level (the solver never
        # wraps it under a project), so its formula is binding-free: one
        # intensional evaluation serves every group.
        obs.incr(LIFTED_SCALAR_FALLBACKS, groups.size)
        value = float(self.unsafe_fallback(plan.formula()))
        out = [value] * groups.size
        if self.np is not None:
            return self.np.asarray(out, dtype=self.np.float64)
        return out

    # -------------------------------------------------------------- project
    def _eval_project(self, plan: IndependentProject, groups: _Groups):
        obs.incr(LIFTED_VECTORIZED_NODES)
        info: GroupedProject = self.info[id(plan)]
        if (
            self.node_caches is not None
            and info.cacheable
            and groups.size == 1
            and not groups.columns
        ):
            return self._project_root_cached(plan, info)
        if isinstance(plan.child, FactLeaf):
            fast = self._project_leaf(plan, groups)
            if fast is not None:
                return fast
        values, offsets = self._candidate_groups(info, groups)
        child_groups = self._expand(groups, info.variable, values, offsets)
        vector = self._eval(plan.child, child_groups)
        return self._segmented_disjunction(vector, offsets)

    def _project_leaf(self, plan: IndependentProject, groups: _Groups):
        """Grouped form of the single-leaf project fast path: each
        group's candidate rows are one bucket of the leaf's signature
        table, and the marginal column folds them segment-at-a-time.
        Mirrors the scalar ``_project_leaf_fast`` exactly — candidates
        come from the child atom alone — and bails to the generic path
        (None) when the leaf has free variables besides the separator.

        A *bound* segment, whose bucket key holds a value an enclosing
        separator or a head variable binds, folds in bucket order: the
        table's order, in which the index interns, so a tightening step
        only appends to it.  With the family's node caches each bound
        segment then resumes from its last clean fold state
        (:class:`_SegmentFolds`) and folds only its new rows; the rest
        re-fold in full.  An unbound segment (only constants key it)
        folds in the ``domain_sort_key`` order of its separator values,
        like the root binding table.
        """
        leaf: GroupedLeaf = self.info[id(plan.child)]
        variable = plan.variable
        separator_positions: List[int] = []
        positions: List[int] = []
        sources = []
        bound = False
        for position, (kind, payload) in enumerate(leaf.layout):
            if kind == "v" and payload == variable:
                separator_positions.append(position)
                continue
            if kind == "v":
                payload = groups.columns.get(payload)
                if payload is None:
                    return None
                bound = True
            positions.append(position)
            sources.append((kind, payload))
        if not separator_positions:
            return None
        index = self.index
        table = index.signature_table(leaf.relation, tuple(positions))
        if bound:
            keys = [
                tuple(
                    payload if kind == "c" else payload[g]
                    for kind, payload in sources
                )
                for g in range(groups.size)
            ]
            results = self._fold_bound_segments(
                plan, table, dict.fromkeys(keys), separator_positions)
            out = [results[key] for key in keys]
        else:
            # Constants alone key the bucket: one segment serves every group.
            bucket = table.get(tuple(payload for _, payload in sources), ())
            rows = _sorted_by_value(
                index, _agreeing_rows(index, bucket, separator_positions),
                separator_positions[0])
            obs.incr(LIFTED_GROUP_ROWS, len(rows))
            value = self.column.segmented_disjunction(rows, [0, len(rows)])
            out = [float(value[0][0])] * groups.size
        if self.np is not None:
            return self.np.asarray(out, dtype=self.np.float64)
        return out

    def _fold_bound_segments(
        self, plan: IndependentProject, table, keys, positions
    ) -> Dict[tuple, float]:
        """The disjunction of every bound segment ``keys`` names, folded
        in bucket order.  A segment with a clean fold state folds only
        the rows past the state's epoch onto its product; the others,
        and those whose resumed fold leaves the clean regime, fold in
        full through the marginal column's segmented fold, which also
        yields the state to keep."""
        index = self.index
        folds = self._segment_folds(plan)
        states = folds.states if folds is not None else {}
        results: Dict[tuple, float] = {}
        touched = 0
        refold = []
        pending = []
        new_rows: List[int] = []
        for key in keys:
            bucket = table.get(key)
            if not bucket:
                results[key] = 0.0
                continue
            touched += 1
            state = states.get(key)
            if state is None:
                refold.append(key)
            elif state[2]:
                results[key] = 1.0  # a factor of 0 absorbs every later row
            else:
                pending.append((key, state[1], len(new_rows)))
                new_rows.extend(_agreeing_rows(
                    index, bucket[bisect.bisect_left(bucket, state[0]):],
                    positions))
        epoch = index.epoch
        if pending:
            values = self.column.gather(new_rows)
            if self.np is not None:
                values = values.tolist()
            ends = [start for _, _, start in pending[1:]] + [len(new_rows)]
            for (key, product, start), end in zip(pending, ends):
                state = _resume_fold(product, values[start:end])
                if state is None:
                    del states[key]
                    refold.append(key)
                    continue
                product, zero = state
                states[key] = (epoch, product, zero)
                results[key] = 1.0 if zero else 1.0 - product
        rows_folded = len(new_rows)
        if refold:
            flat: List[int] = []
            offsets = [0]
            for key in refold:
                flat.extend(_agreeing_rows(index, table[key], positions))
                offsets.append(len(flat))
            rows_folded += len(flat)
            folded = self.column.segmented_disjunction(flat, offsets)
            if self.np is not None:
                folded = [column.tolist() for column in folded]
            for key, value, product, residual, zero in zip(refold, *folded):
                results[key] = value
                if zero or (residual == 0.0 and product >= UNDERFLOW_FLOOR):
                    states[key] = (epoch, product, zero)
        obs.incr(LIFTED_GROUP_ROWS, rows_folded)
        if folds is not None:
            if touched > len(refold):
                obs.incr(LIFTED_FOLDS_RESUMED, touched - len(refold))
            if refold:
                obs.incr(LIFTED_FOLDS_REFOLDED, len(refold))
        return results

    def _segment_folds(self, plan: IndependentProject):
        """The family's fold states of one bound single-leaf project, or
        None without node caches (a one-shot run keeps none)."""
        caches = self.node_caches
        if caches is None:
            return None
        folds = caches.get(id(plan))
        if (
            folds is None
            or folds.index is not self.index
            or folds.source is not self.table
        ):
            folds = caches[id(plan)] = _SegmentFolds(self.index, self.table)
        return folds

    def _project_root_cached(
        self, plan: IndependentProject, info: GroupedProject
    ):
        """Root-level project with a delta-extended binding table: the
        first run materializes every (value, child probability) pair;
        later runs re-execute only values the index delta touches."""
        caches = self.node_caches
        cache = caches.get(id(plan))
        index = self.index
        if (
            cache is None
            or cache.index is not index
            or cache.source is not self.table
            or cache.epoch > index.epoch
        ):
            root = _Groups(1, {})
            values, offsets = self._candidate_groups(info, root)
            child_groups = _Groups(
                len(values), {info.variable: list(values)})
            vector = self._eval(plan.child, child_groups)
            cache = _ProjectDeltaCache(
                index, self.table, index.epoch, list(values),
                [float(p) for p in vector])
            caches[id(plan)] = cache
        elif cache.epoch < index.epoch:
            fresh = self._fresh_candidates(info, cache)
            reused = len(cache.values) - sum(
                1 for value in fresh if value in cache.slots)
            if reused:
                obs.incr(LIFTED_CACHED_GROUPS, reused)
            if fresh:
                child_groups = _Groups(
                    len(fresh), {info.variable: list(fresh)})
                vector = self._eval(plan.child, child_groups)
                added = []
                for value, probability in zip(fresh, vector):
                    slot = cache.slots.get(value)
                    if slot is None:
                        added.append((value, float(probability)))
                    else:
                        cache.probs[slot] = float(probability)
                if added:
                    # Keep the canonical fold order, which makes a
                    # delta-extended sweep bit-identical to a fresh full
                    # evaluation: each new value goes after every equal
                    # key, in ``fresh`` order, where a stable sort of the
                    # appended values would put it.
                    keys, values, probs = cache.keys, cache.values, cache.probs
                    for value, probability in added:
                        key = domain_sort_key(value)
                        at = bisect.bisect_right(keys, key)
                        keys.insert(at, key)
                        values.insert(at, value)
                        probs.insert(at, probability)
                    cache.slots = {value: i for i, value in enumerate(values)}
            cache.epoch = index.epoch
        else:
            obs.incr(LIFTED_CACHED_GROUPS, len(cache.values))
            if cache.result is not None:
                # Warm truncation, warm fold: nothing changed.
                return [cache.result]
        probs = cache.probs
        folded = self._segmented_disjunction(probs, [0, len(probs)])
        cache.result = float(folded[0])
        return folded

    def _fresh_candidates(
        self, info: GroupedProject, cache: _ProjectDeltaCache
    ) -> List[Value]:
        """Separator values the delta facts touch and that are (now)
        candidates — the only values whose child probability can differ
        from the cached one.  Candidacy is monotone under append-only
        extension, so cached values never need revoking.

        Each scope atom reads only its relation's rows past the cached
        epoch: a relation's row list is ascending, so a bisection finds
        where the delta starts."""
        index = self.index
        fact_at = index.fact_at
        touched: Dict[Value, None] = {}
        for atoms in info.per_disjunct:
            for grouped in atoms:
                if not grouped.separator_positions:
                    continue
                rows = index.probe_rows(grouped.relation, {})
                first, *rest = grouped.separator_positions
                for row in rows[bisect.bisect_left(rows, cache.epoch):]:
                    args = fact_at(row).args
                    if any(
                        args[p] != value for p, value in grouped.constants
                    ):
                        continue
                    value = args[first]
                    if all(args[p] == value for p in rest):
                        touched.setdefault(value, None)
        return self._candidates_among(info, touched)

    def _candidates_among(
        self, info: GroupedProject, values: Iterable[Value]
    ) -> List[Value]:
        """The root-level candidates among ``values``: those for which
        some disjunct has, for *every* atom containing the separator, a
        fact matching its constants with the value at all separator
        positions.  Each atom's probe signature and key layout are built
        once per call, not once per value."""
        probes = []
        for atoms in info.per_disjunct:
            candidate_atoms = [a for a in atoms if a.separator_positions]
            if not candidate_atoms:
                continue
            disjunct = []
            for grouped in candidate_atoms:
                entries = sorted(
                    list(grouped.constants)
                    + [(p, _SEPARATOR) for p in grouped.separator_positions])
                table = self.index.signature_table(
                    grouped.relation, tuple(p for p, _ in entries))
                disjunct.append((table, tuple(v for _, v in entries)))
            probes.append(disjunct)
        candidates = []
        for value in values:
            for disjunct in probes:
                if all(
                    tuple(value if v is _SEPARATOR else v for v in layout)
                    in table
                    for table, layout in disjunct
                ):
                    candidates.append(value)
                    break
        return candidates

    # ----------------------------------------------------------- candidates
    def _candidate_groups(self, info: GroupedProject, groups: _Groups):
        """Separator candidates of every group in one pass: per group,
        the ordered union over disjuncts of (base-atom bucket values
        filtered by membership in the disjunct's other atoms) — the
        grouped form of the scalar per-atom-set intersection.  Returns
        ``(values, offsets)`` in the segment layout."""
        index = self.index
        prepared = []
        for atoms in info.per_disjunct:
            candidate_atoms = [a for a in atoms if a.separator_positions]
            if not candidate_atoms:
                prepared.append(None)
                continue
            entries = []
            for grouped in candidate_atoms:
                context = [(p, ("c", v)) for p, v in grouped.constants]
                for p, var in grouped.variables:
                    column = groups.columns.get(var)
                    if column is not None:
                        context.append((p, ("v", column)))
                context.sort()
                context_positions = tuple(p for p, _ in context)
                context_sources = tuple(s for _, s in context)
                full = context + [
                    (p, ("s", None)) for p in grouped.separator_positions
                ]
                full.sort()
                full_positions = tuple(p for p, _ in full)
                full_sources = tuple(s for _, s in full)
                entries.append((
                    grouped,
                    index.signature_table(
                        grouped.relation, context_positions),
                    context_sources,
                    index.signature_table(grouped.relation, full_positions),
                    full_sources,
                ))
            prepared.append(entries)
        fact_at = index.fact_at
        flat: List[Value] = []
        offsets = [0]
        scanned = 0
        for g in range(groups.size):
            seen: Dict[Value, None] = {}
            for entries in prepared:
                if entries is None:
                    continue
                base, base_table, base_sources, _, _ = entries[0]
                base_key = tuple(
                    payload if kind == "c" else payload[g]
                    for kind, payload in base_sources
                )
                bucket = base_table.get(base_key)
                if not bucket:
                    continue
                scanned += len(bucket)
                first = base.separator_positions[0]
                rest = base.separator_positions[1:]
                local: Set[Value] = set()
                for row in bucket:
                    args = fact_at(row).args
                    value = args[first]
                    if value in local:
                        continue
                    if any(args[p] != value for p in rest):
                        continue
                    local.add(value)
                    for _, _, _, full_table, full_sources in entries[1:]:
                        full_key = tuple(
                            payload if kind == "c"
                            else (payload[g] if kind == "v" else value)
                            for kind, payload in full_sources
                        )
                        if full_key not in full_table:
                            break
                    else:
                        seen.setdefault(value, None)
            # Canonical per-group candidate order, the scalar path's
            # ``domain_sort_key``: a generic project folds its child's
            # values in it.
            flat.extend(sorted(seen, key=domain_sort_key))
            offsets.append(len(flat))
        return flat, offsets

    def _expand(
        self,
        groups: _Groups,
        variable: Variable,
        values: List[Value],
        offsets: List[int],
    ) -> _Groups:
        """The child group table of a project: each parent group row is
        repeated once per candidate value, and the separator becomes a
        new bound column."""
        columns: Dict[Variable, List[Value]] = {}
        for var, column in groups.columns.items():
            expanded: List[Value] = []
            for g in range(groups.size):
                expanded.extend(
                    itertools.repeat(
                        column[g], offsets[g + 1] - offsets[g]))
            columns[var] = expanded
        columns[variable] = list(values)
        return _Groups(len(values), columns)

    # ---------------------------------------------------------------- folds
    def _segmented_disjunction(self, vector, offsets):
        """Fold a per-candidate probability vector back to one
        disjunction per parent group."""
        return segmented_disjunction(self.np, vector, offsets)

    def _fold_disjunction(self, vectors, size: int):
        """Elementwise hybrid disjunction across child vectors — the
        vector form of the union fold's ``ComplementAccumulator``, same
        per-element operation order."""
        np = self.np
        if np is None:
            accumulators = [ComplementAccumulator() for _ in range(size)]
            for vector in vectors:
                for accumulator, p in zip(accumulators, vector):
                    accumulator.add(p)
            return [accumulator.disjunction() for accumulator in accumulators]
        product = np.ones(size, dtype=np.float64)
        residual = np.zeros(size, dtype=np.float64)
        zero = np.zeros(size, dtype=bool)
        for vector in vectors:
            vector = np.asarray(vector, dtype=np.float64)
            ones = vector >= 1.0
            tiny = (vector > 0.0) & (vector < TINY_PROBABILITY)
            zero |= ones
            residual = residual - np.where(tiny, vector, 0.0)
            product = product * np.where(ones | tiny, 1.0, 1.0 - vector)
            low = (product < UNDERFLOW_FLOOR) & ~zero
            if bool(low.any()):
                residual[low] += np.log(product[low])
                product[low] = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            rescued = -np.expm1(np.log(product) + residual)
        out = np.where(residual == 0.0, 1.0 - product, rescued)
        out[zero] = 1.0
        return out


def _plan_error_weight(plan: SafePlan) -> Tuple[int, int]:
    """``(c, leaves)`` of the forward-error bound
    :func:`plan_error_bound`: a value of ``plan`` read from F facts
    errs by at most ``u·c·(F + 1)``.  Per node, from the children's
    ``c_i`` (k children; DESIGN.md, "Sound in floating point"):

    * leaf: 1; unsafe residue (a weighted model count): 8;
    * independent join (a product of k values in [0, 1]):
      ``Σ c_i + k``;
    * independent union (one hybrid fold of k complements):
      ``Σ c_i + 2k + 8``;
    * independent project (a fold over separator values, each read
      from at least one fact of its own): ``2·c + 10``;
    * inclusion–exclusion (a signed sum): ``Σ |coef_i|·(c_i + k + 1)``.
    """
    if isinstance(plan, FactLeaf):
        return 1, 1
    if isinstance(plan, UnsafeLeaf):
        return 8, 1
    if isinstance(plan, IndependentProject):
        weight, leaves = _plan_error_weight(plan.child)
        return 2 * weight + 10, leaves
    if isinstance(plan, InclusionExclusion):
        k = len(plan.terms)
        weight = leaves = 0
        for coefficient, term in plan.terms:
            term_weight, term_leaves = _plan_error_weight(term)
            weight += abs(coefficient) * (term_weight + k + 1)
            leaves += term_leaves
        return weight, leaves
    k = len(plan.children)
    weight = 2 * k + 8 if isinstance(plan, IndependentUnion) else k
    leaves = 0
    for child in plan.children:
        child_weight, child_leaves = _plan_error_weight(child)
        weight += child_weight
        leaves += child_leaves
    return weight, leaves


def plan_error_bound(plan: SafePlan, facts: int) -> float:
    """Forward-error bound of one value of ``plan`` evaluated over a
    table of ``facts`` facts: every leaf reads at most ``facts`` facts,
    so the value reads ``F ≤ leaves·facts`` and errs by at most
    ``u·c·(F + 1)`` (:func:`_plan_error_weight`).  Independent of the
    executor and of which groups a sweep's caches reused."""
    weight, leaves = _plan_error_weight(plan)
    return round_up(UNIT_ROUNDOFF * weight * (leaves * facts + 1))


def _run_plan(
    plan: SafePlan,
    table: LiftedTable,
    index: FactIndex,
    unsafe_fallback: Optional[Callable[[Formula], float]],
    executor: str,
    state=None,
) -> float:
    """Dispatch one plan run to the batched or scalar executor.

    ``executor="auto"`` routes TI tables to the batched set-at-a-time
    executor and BID tables to the scalar one (the disjoint-union rule
    needs per-binding block inspection); ``"scalar"`` forces the legacy
    candidate-at-a-time interpreter; ``"batched"`` forces the grouped
    pipeline where it applies, counting a ``lifted.scalar_fallbacks``
    when a BID table sends it back to the scalar path anyway.

    ``state`` is a compile-cache family's
    :class:`~repro.finite.compile_cache.LiftedExecState`: it carries the
    persistent per-plan-node binding tables (delta-extended across
    ε-sweep truncations), the plan-annotation side tables, and the
    scalar path's candidate memo.
    """
    if executor not in _EXECUTORS:
        raise EvaluationError(
            f"unknown lifted executor {executor!r}; "
            f"expected one of {_EXECUTORS}"
        )
    record_fold_error(plan_error_bound(plan, len(table.possible_facts())))
    is_bid = isinstance(table, BlockIndependentTable)
    if executor != "scalar" and not is_bid:
        if state is not None:
            with state.lock:
                evaluator = _BatchedEvaluator(
                    table, index, unsafe_fallback,
                    state.annotations_for(plan), state.node_caches)
                return evaluator.run(plan)
        return _BatchedEvaluator(table, index, unsafe_fallback).run(plan)
    if executor == "batched" and is_bid:
        obs.incr(LIFTED_SCALAR_FALLBACKS)
    memo = state.candidate_memo if state is not None else None
    return _PlanEvaluator(
        table, index, unsafe_fallback, candidate_memo=memo).run(plan)


#: Answer rows per grouped pass.  A row's value depends only on its own
#: binding, so blocking bounds the group table's memory on large
#: ``candidates^arity`` products without changing a bit.
GROUPED_ANSWER_BLOCK = 1 << 14


def answer_marginals_lifted(
    query: Query,
    table: LiftedTable,
    answers: Iterable[Tuple[Value, ...]],
    plan_cache=None,
) -> Optional[Dict[Tuple[Value, ...], float]]:
    """``Pr(ā ∈ Q)`` for every answer tuple in one grouped lifted pass,
    or None when the table is not TI or ``query`` has no head-bound
    safe plan (:func:`~repro.logic.hierarchy.safe_plan_ucq`).

    The plan is built once per query family in ``plan_cache`` (default:
    the process-wide compile cache), under the free formula's own
    family, next to that family's delta-extended fact index.  It runs
    in the batched executor over a root group table holding one row per
    answer tuple — the head variables are bound group columns, just as
    an enclosing separator binds its variable — and stops before any
    root fold, so the plan root yields every answer's marginal at once.

    Positive answers are kept, in ``answers`` order.  A row's value
    depends on its own binding only: leaves read one fact each, a
    project over a bound leaf folds its own segment in the table's
    order (the index interns in it), and every other project in
    canonical :func:`~repro.relational.facts.domain_sort_key` order.
    So an answer's bits do not depend on which answers share its pass
    (pool workers evaluating contiguous chunks agree with one serial
    pass), nor on how the index grew.  The pass keeps no fold state,
    so every segment folds in full.  As in
    :func:`query_probability_lifted`, the family's stripe lock is held
    from grounding through execution.  Each evaluated row counts in
    ``fanout.answers``.
    """
    if not isinstance(table, TupleIndependentTable):
        return None
    from repro.finite.compile_cache import DEFAULT_COMPILE_CACHE

    cache = plan_cache if plan_cache is not None else DEFAULT_COMPILE_CACHE
    state = cache.lifted_state(query.formula)
    with state.lock:
        try:
            plan, index = cache.lifted(query.formula, table)
        except UnsafeQueryError:
            return None
        record_fold_error(plan_error_bound(plan, len(table)))
        evaluator = _BatchedEvaluator(
            table, index, info=state.annotations_for(plan))
        results: Dict[Tuple[Value, ...], float] = {}
        pending = iter(answers)
        while True:
            block = list(itertools.islice(pending, GROUPED_ANSWER_BLOCK))
            if not block:
                return results
            obs.incr("fanout.answers", len(block))
            columns = {
                variable: [answer[i] for answer in block]
                for i, variable in enumerate(query.variables)
            }
            values = evaluator.run_groups(plan, _Groups(len(block), columns))
            for answer, probability in zip(block, values):
                if probability > 0:
                    results[answer] = float(probability)


def evaluate_plan(
    plan: SafePlan, table: LiftedTable, executor: str = "auto"
) -> float:
    """Evaluate a compiled :class:`SafePlan` on a TI (or BID) table.

    Builds a fresh :class:`~repro.relational.index.FactIndex` over the
    table's possible facts, in the table's order (which a bound
    segment folds in); callers evaluating one query family across
    growing truncations should go through
    :func:`query_probability_lifted`, which reuses a delta-extended
    index, caches plans, and keeps warm per-node binding tables.

    ``executor`` picks the interpreter: ``"auto"`` (batched
    set-at-a-time on TI tables, scalar on BID), ``"scalar"``, or
    ``"batched"``.

    >>> from repro.relational import Schema
    >>> from repro.logic.syntax import Atom, Variable
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> table = TupleIndependentTable(schema, {R(1): 0.5, R(2): 0.5})
    >>> plan = safe_plan(ConjunctiveQuery([Atom(R, (Variable("x"),))]))
    >>> round(evaluate_plan(plan, table), 10)
    0.75
    """
    if not isinstance(
        table, (TupleIndependentTable, BlockIndependentTable)
    ):
        raise EvaluationError("lifted evaluation needs a TI or BID table")
    index = FactIndex(table.possible_facts())
    return _run_plan(plan, table, index, None, executor)


def query_probability_lifted(
    query: BooleanQuery,
    table: LiftedTable,
    plan_cache=None,
    partial: bool = False,
    unsafe_fallback: Optional[Callable[[Formula], float]] = None,
    executor: str = "auto",
) -> float:
    """Exact ``P(Q)`` via safe plans, or :class:`UnsafeQueryError`.

    The query must be (equivalent to) a Boolean UCQ with a safe plan
    under the Dalvi–Suciu rules of :mod:`repro.logic.hierarchy` — the
    error of an unsafe query carries the minimal offending subquery as
    ``exc.subquery``.

    ``plan_cache`` is a :class:`~repro.finite.compile_cache.CompileCache`
    (defaulting to the process-wide one): plans are compiled once per
    query family, the family's fact index is delta-extended across
    growing truncations, and cache traffic shows up in the
    ``lifted.plans`` / ``lifted.plan_cache_hits`` counters.

    With ``partial=True`` an unsafe query still evaluates if some
    top-level components are safe: the unsafe residue components are
    delegated to ``unsafe_fallback(formula)`` (required in that case by
    evaluation time); a wholly unsafe query raises even in partial mode.

    ``executor`` picks the plan interpreter — ``"auto"`` runs the
    batched set-at-a-time executor on TI tables (scalar on BID),
    ``"scalar"`` forces the candidate-at-a-time path, ``"batched"``
    forces the grouped pipeline (BID still falls back, counted).  The
    batched executor keeps per-plan-node binding tables in the cache
    family and delta-extends them across a sweep's truncations, so only
    new separator groups re-execute (``lifted.cached_groups``), and a
    bound segment they read folds only its new rows onto its kept fold
    state (``lifted.folds_resumed``).

    >>> from repro.relational import Schema
    >>> from repro.logic.parser import parse_formula
    >>> schema = Schema.of(R=2)
    >>> R = schema["R"]
    >>> table = TupleIndependentTable(schema, {R(1, 1): 0.5, R(2, 1): 0.4})
    >>> q = BooleanQuery(parse_formula("EXISTS x, y. R(x, y)", schema), schema)
    >>> round(query_probability_lifted(q, table), 10)
    0.7
    """
    if not isinstance(
        table, (TupleIndependentTable, BlockIndependentTable)
    ):
        raise EvaluationError("lifted evaluation needs a TI or BID table")
    from repro.finite.compile_cache import DEFAULT_COMPILE_CACHE

    cache = plan_cache if plan_cache is not None else DEFAULT_COMPILE_CACHE
    state_of = getattr(cache, "lifted_state", None)
    state = state_of(query.formula) if state_of is not None else None
    if (
        state is not None
        and executor != "scalar"
        and not isinstance(table, BlockIndependentTable)
    ):
        # Batched execution over a shared family: hold the family
        # stripe lock (== ``state.lock``, reentrant) from grounding
        # through execution, so the shared index holds *exactly* this
        # table's facts for the whole run.  Another session of the same
        # family grounding a different truncation in between would
        # extend the index with facts this table does not have yet —
        # their marginals would sync as 0.0 and the binding-table
        # epochs would cover facts never actually folded in, silently
        # corrupting later delta reuse once this table catches up.
        with state.lock:
            plan, index = cache.lifted(query.formula, table, partial=partial)
            return _run_plan(
                plan, table, index, unsafe_fallback, executor, state)
    plan, index = cache.lifted(query.formula, table, partial=partial)
    return _run_plan(plan, table, index, unsafe_fallback, executor, state)
