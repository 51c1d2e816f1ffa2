"""Lifted (extensional) query evaluation via safe plans.

Evaluates safe Boolean UCQs in polynomial time on finite
tuple-independent and block-independent tables — the efficient
"traditional closed-world evaluation algorithm" plugged into the
Proposition 6.1 truncation pipeline.  Plans come from the Dalvi–Suciu
solver in :mod:`repro.logic.hierarchy`; one set-at-a-time executor runs
them against the table's :class:`~repro.relational.index.FactIndex`,
visiting each plan node once over a group table of bindings:

* ``FactLeaf`` grounds its atom for every group row in one sweep of a
  signature table and reads the marginal column;
* ``IndependentProject`` gathers every row's candidate values for its
  separator variable from the index's hash buckets (bound-column
  signatures — no per-atom scans), evaluates its child once over all of
  them, and folds ``1 − Π_a (1 − P(child[x↦a]))`` per row;
* ``IndependentJoin`` / ``IndependentUnion`` multiply / co-multiply;
* ``InclusionExclusion`` sums signed term probabilities;
* ``UnsafeLeaf`` (partial plans only) delegates its residue formula to a
  caller-supplied intensional fallback.

On BID tables the independence every multiplicative node assumes is
re-checked per group row against the block partition: operands whose
subtrees touch disjoint block sets evaluate as on TI tables, same-block
alternatives combine by the disjoint-union rule
``P = 1 − Π_blocks (1 − Σ_alternatives p)``, and anything else raises
:class:`UnsafeQueryError` so ``strategy="auto"`` falls back to an
intensional engine.
"""

from __future__ import annotations

import bisect
import itertools
import math
from operator import attrgetter, eq, itemgetter
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
    Union,
)

from repro import obs
from repro.errors import EvaluationError, UnsafeQueryError
from repro.finite.bid import Block, BlockIndependentTable
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
from repro.relational.facts import Value, domain_sort_key
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
    "answer_marginals_on_support",
    "evaluate_plan",
    "query_probability_lifted",
    "safe_plan",
    "safe_plan_ucq",
]

LiftedTable = Union[TupleIndependentTable, BlockIndependentTable]

#: Obs counter: plan nodes evaluated as one grouped columnar pass.
LIFTED_VECTORIZED_NODES = "lifted.vectorized_nodes"
#: Obs counter: group rows an unsafe residue's intensional fallback
#: answers (partial plans only).
LIFTED_SCALAR_FALLBACKS = "lifted.scalar_fallbacks"
#: Obs counter: index rows flowing through grouped probe/fold passes.
LIFTED_GROUP_ROWS = "lifted.group_rows"
#: Obs counter: separator groups served from a delta-extended
#: per-plan-node binding cache instead of re-executing the child.
LIFTED_CACHED_GROUPS = "lifted.cached_groups"
#: Obs counter: bound segments whose fold resumed from its kept state.
LIFTED_FOLDS_RESUMED = "lifted.folds_resumed"
#: Obs counter: bound segments folded in full while fold states are
#: kept — first folds, and folds that could not resume (a tiny marginal,
#: underflow, or a state that was not clean).
LIFTED_FOLDS_REFOLDED = "lifted.folds_refolded"

#: Placeholder for the separator value in a probe-key layout.
_SEPARATOR = object()
_ARGS = attrgetter("args")


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


def _blocks_disjoint(operands: Iterable[Set[Block]]) -> bool:
    """Whether no block is read by two of the operands."""
    seen: Set[Block] = set()
    for blocks in operands:
        if not seen.isdisjoint(blocks):
            return False
        seen |= blocks
    return True


def _reaches_nan(values: Iterable[float]) -> bool:
    """Whether a disjunction folding ``values`` in order meets a NaN (a
    row whose block check failed) before a value of 1.0 settles it."""
    for p in values:
        if p >= 1.0:
            return False
        if p != p:
            return True
    return False


class _Groups:
    """A group table: ``size`` separator-binding rows, one value column
    per bound variable.  The evaluator threads one of these through the
    plan, and node evaluation returns one probability per group row."""

    __slots__ = ("size", "columns")

    def __init__(self, size: int, columns: Dict[Variable, List[Value]]):
        self.size = size
        self.columns = columns


class _ProjectDeltaCache:
    """Per-plan-node binding table of a root-level project: the
    separator values discovered so far with their child probabilities,
    stamped with the table's index and the epoch they were computed at.
    An ε-sweep's next truncation re-executes only the values its delta
    facts touch — sound because the separator occurs in every scope
    atom, so a new fact can only perturb the candidate value it mentions
    (and existing facts' marginals never change under extension)."""

    __slots__ = (
        "index", "epoch", "keys", "values", "probs", "slots", "result",
    )

    def __init__(self, index, epoch, values, probs):
        #: The index of the table the child probabilities were computed
        #: against: each table owns its own, so identity pins the table.
        self.index = index
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
    with the index of the table the states were computed against."""

    __slots__ = ("index", "states")

    def __init__(self, index):
        self.index = index
        self.states: Dict[tuple, Tuple[int, float, bool]] = {}


class _BatchedEvaluator:
    """Set-at-a-time plan interpreter over the columnar layer.

    Each plan node is visited **once per run**: a project materializes
    all its separator bindings as a group table, the child subplan
    evaluates for every group in one pass, and the fold back to
    per-parent-group probabilities is a segmented hybrid log-space
    reduction (:func:`repro.utils.probability.segmented_disjunction`).
    Every vector is a list of floats, and every fold runs
    :class:`~repro.utils.probability.ComplementAccumulator` per element,
    so dyadic marginals stay bit-exact against the other exact
    strategies.

    On a BID table (``blocks`` holds each index row's block) a join, a
    union and a project check per group row that their operands read
    disjoint blocks (:meth:`_touched`).  Leaf operands of a union or
    project that share one take the disjoint-union rule; any other
    shared block makes the row NaN.  Operands are read in order: a join
    stops at a zero product and a fold at a value of 1.0, so a NaN past
    either never counts, and any other NaN reaches the root, which
    raises :class:`UnsafeQueryError`.  BID runs keep no node caches.
    """

    __slots__ = (
        "table", "index", "unsafe_fallback", "info", "node_caches",
        "column", "marginals", "blocks",
    )

    def __init__(
        self,
        table: LiftedTable,
        index: FactIndex,
        unsafe_fallback: Optional[Callable[[Formula], float]] = None,
        info: Optional[Dict[int, object]] = None,
        node_caches: Optional[Dict[int, object]] = None,
    ):
        self.table = table
        self.index = index
        self.unsafe_fallback = unsafe_fallback
        self.info = info
        self.node_caches = node_caches
        self.column = index.marginal_column(table)
        #: Zero-copy marginal values aligned to row ids.
        self.marginals = self.column.view()
        #: Each index row's block on a BID table; None on a TI table.
        self.blocks: Optional[List[Block]] = None
        if isinstance(table, BlockIndependentTable):
            self.blocks = [
                table.block_of(index.fact_at(row))
                for row in range(index.epoch)
            ]

    def run(self, plan: SafePlan) -> float:
        value = self.run_groups(plan, _Groups(1, {}))[0]
        if math.isnan(value):
            raise UnsafeQueryError(
                "BID blocks overlap across the operands of a join, union "
                "or project; the plan's independence assumption fails on "
                "this table"
            )
        return value

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
    def _leaf_rows(self, plan: FactLeaf, groups: _Groups) -> List[int]:
        """Ground every group's binding of the leaf atom in one sweep of
        the full-arity signature table: one index row per group, -1
        where the fact is absent."""
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
        return rows

    def _eval_leaf(self, plan: FactLeaf, groups: _Groups):
        """Each group's marginal of the leaf fact; absent facts
        contribute 0."""
        obs.incr(LIFTED_VECTORIZED_NODES)
        rows = self._leaf_rows(plan, groups)
        obs.incr(LIFTED_GROUP_ROWS, groups.size)
        marginals = self.marginals
        return [marginals[row] if row >= 0 else 0.0 for row in rows]

    def _eval_join(self, plan: IndependentJoin, groups: _Groups):
        """Elementwise product; a zero product ends a row, so a NaN
        operand after it never counts."""
        obs.incr(LIFTED_VECTORIZED_NODES)
        totals = [1.0] * groups.size
        for child in plan.children:
            vector = self._eval(child, groups)
            for g, p in enumerate(vector):
                if totals[g] != 0.0:
                    totals[g] *= p
        if self.blocks is not None:
            operands = zip(*(self._touched(c, groups) for c in plan.children))
            for g, touched in enumerate(operands):
                if not _blocks_disjoint(touched):
                    totals[g] = math.nan
        return totals

    def _eval_union(self, plan: IndependentUnion, groups: _Groups):
        obs.incr(LIFTED_VECTORIZED_NODES)
        vectors = [self._eval(child, groups) for child in plan.children]
        out = self._fold_disjunction(vectors, groups.size)
        if self.blocks is not None:
            leaves = all(isinstance(c, FactLeaf) for c in plan.children)
            self._apply_block_rules(
                out,
                zip(*(self._touched(c, groups) for c in plan.children)),
                zip(*vectors),
                zip(*(self._leaf_rows(c, groups) for c in plan.children))
                if leaves else None,
            )
        return out

    def _eval_inclusion_exclusion(
        self, plan: InclusionExclusion, groups: _Groups
    ):
        obs.incr(LIFTED_VECTORIZED_NODES)
        totals = [0.0] * groups.size
        for coefficient, term in plan.terms:
            vector = self._eval(term, groups)
            for g, p in enumerate(vector):
                totals[g] += coefficient * p
        return totals

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
        return [value] * groups.size

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
        if self.blocks is None and isinstance(plan.child, FactLeaf):
            fast = self._project_leaf(plan, groups)
            if fast is not None:
                return fast
        values, offsets = self._candidate_groups(info, groups)
        child_groups = self._expand(groups, info.variable, values, offsets)
        vector = self._eval(plan.child, child_groups)
        out = segmented_disjunction(None, vector, offsets)
        if self.blocks is not None:
            segments = [slice(*ends) for ends in zip(offsets, offsets[1:])]
            touched = self._touched(plan.child, child_groups)
            rows = (
                self._leaf_rows(plan.child, child_groups)
                if isinstance(plan.child, FactLeaf) else None
            )
            self._apply_block_rules(
                out,
                (touched[segment] for segment in segments),
                (vector[segment] for segment in segments),
                None if rows is None else (rows[s] for s in segments),
            )
        return out

    # ------------------------------------------------------------ BID rules
    def _touched(self, plan: SafePlan, groups: _Groups) -> List[Set[Block]]:
        """Per group row, every block ``plan`` can read under the row's
        binding — a superset, from probing each atom the subtree can
        reach (:func:`_plan_atoms`) on its constants and bound columns."""
        blocks = self.blocks
        touched: List[Set[Block]] = [set() for _ in range(groups.size)]
        for atom in _plan_atoms(plan):
            positions: List[int] = []
            columns = []
            for position, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    columns.append(itertools.repeat(term.value, groups.size))
                elif term in groups.columns:
                    columns.append(groups.columns[term])
                else:
                    continue
                positions.append(position)
            table = self.index.signature_table(atom.relation, tuple(positions))
            keys = (
                zip(*columns) if columns
                else itertools.repeat((), groups.size)
            )
            for seen, key in zip(touched, keys):
                seen.update(blocks[row] for row in table.get(key, ()))
        return touched

    def _apply_block_rules(self, out, touched, values, leaf_rows) -> None:
        """Apply the BID rules to a disjunction's results in place.  Per
        result, ``touched``, ``values`` and ``leaf_rows`` give its
        operands' block sets, values and leaf rows in fold order
        (``leaf_rows`` is None unless every operand is a leaf).  Operands
        that share a block take the disjoint-union rule when they are
        leaves and make the result NaN otherwise; a NaN operand the fold
        reaches makes it NaN too."""
        leaf_rows = itertools.repeat(None) if leaf_rows is None else leaf_rows
        for i, (blocks, operands, rows) in enumerate(
                zip(touched, values, leaf_rows)):
            if not _blocks_disjoint(blocks):
                out[i] = math.nan if rows is None else self._disjoint_union(rows)
            elif _reaches_nan(operands):
                out[i] = math.nan

    def _disjoint_union(self, rows: Iterable[int]) -> float:
        """``P(∨ facts)`` over leaf rows (-1: absent fact) whose facts
        may share blocks: within a block alternatives are mutually
        exclusive (masses add), across blocks independent."""
        masses: Dict[Block, float] = {}
        for row in dict.fromkeys(rows):
            if row >= 0:
                block = self.blocks[row]
                masses[block] = masses.get(block, 0.0) + self.marginals[row]
        acc = ComplementAccumulator()
        for mass in masses.values():
            acc.add(min(1.0, mass))
        return acc.disjunction()

    def _project_leaf(self, plan: IndependentProject, groups: _Groups):
        """Single-leaf project fast path (TI tables): each group's
        candidate rows are one bucket of the leaf's signature table, and
        the marginal column folds them segment-at-a-time.  Candidates
        come from the child atom alone; bails to the generic path (None)
        when the leaf has free variables besides the separator.

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
            out = [value[0][0]] * groups.size
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
        if folds is None or folds.index is not self.index:
            folds = caches[id(plan)] = _SegmentFolds(self.index)
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
        if cache is None or cache.index is not index:
            root = _Groups(1, {})
            values, offsets = self._candidate_groups(info, root)
            child_groups = _Groups(
                len(values), {info.variable: list(values)})
            vector = self._eval(plan.child, child_groups)
            cache = _ProjectDeltaCache(
                index, index.epoch, list(values), vector)
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
                        added.append((value, probability))
                    else:
                        cache.probs[slot] = probability
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
        folded = segmented_disjunction(None, probs, [0, len(probs)])
        cache.result = folded[0]
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
        touched = []
        for atoms in info.per_disjunct:
            for grouped in atoms:
                if not grouped.separator_positions:
                    continue
                rows = index.probe_rows(grouped.relation, {})
                delta = index.relation_facts(grouped.relation)[
                    bisect.bisect_left(rows, cache.epoch):]
                args = list(map(_ARGS, delta))
                first, *rest = grouped.separator_positions
                for p, value in grouped.constants:
                    args = list(itertools.compress(args, map(
                        eq, map(itemgetter(p), args),
                        itertools.repeat(value))))
                for p in rest:
                    args = list(itertools.compress(args, map(
                        eq, map(itemgetter(p), args),
                        map(itemgetter(first), args))))
                touched.append(map(itemgetter(first), args))
        return self._candidates_among(
            info, dict.fromkeys(itertools.chain.from_iterable(touched)))

    def _candidates_among(
        self, info: GroupedProject, values: Iterable[Value]
    ) -> List[Value]:
        """The root-level candidates among ``values``: those for which
        some disjunct has, for *every* atom containing the separator, a
        fact matching its constants with the value at all separator
        positions.  Each atom's probe signature and key layout are built
        once per call, not once per value."""
        values = list(values)
        supported = []
        for atoms in info.per_disjunct:
            candidate_atoms = [a for a in atoms if a.separator_positions]
            if not candidate_atoms:
                continue
            found = []
            for grouped in candidate_atoms:
                entries = sorted(
                    list(grouped.constants)
                    + [(p, _SEPARATOR) for p in grouped.separator_positions])
                table = self.index.signature_table(
                    grouped.relation, tuple(p for p, _ in entries))
                # Every value's probe key: the value at each separator
                # position, the constant at every other.
                keys = zip(*(
                    values if v is _SEPARATOR else itertools.repeat(v)
                    for _, v in entries))
                found.append(map(table.__contains__, keys))
            supported.append(map(all, zip(*found)))
        return list(itertools.compress(values, map(any, zip(*supported))))

    # ----------------------------------------------------------- candidates
    def _candidate_groups(self, info: GroupedProject, groups: _Groups):
        """Separator candidates of every group in one pass: per group,
        the ordered union over disjuncts of (base-atom bucket values
        filtered by membership in the disjunct's other atoms), i.e. the
        values that every separator atom of some disjunct supports.
        Returns ``(values, offsets)`` in the segment layout."""
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
            # Canonical per-group candidate order, ``domain_sort_key``:
            # a generic project folds its child's values in it.
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
    def _fold_disjunction(self, vectors, size: int) -> List[float]:
        """Elementwise disjunction across child vectors: one union
        fold's ``ComplementAccumulator`` per group row."""
        accumulators = [ComplementAccumulator() for _ in range(size)]
        for vector in vectors:
            for accumulator, p in zip(accumulators, vector):
                accumulator.add(p)
        return [accumulator.disjunction() for accumulator in accumulators]


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
    state=None,
) -> float:
    """Run one plan in the batched executor.

    ``state`` is a compile-cache family's
    :class:`~repro.finite.compile_cache.LiftedExecState`: it carries the
    plan-annotation side tables and, for TI tables, the persistent
    per-plan-node binding tables and fold states (delta-extended across
    ε-sweep truncations).  BID runs keep no node caches: a project's
    block check spans every one of its values, not only the values a
    delta touches.
    """
    record_fold_error(plan_error_bound(plan, len(table.possible_facts())))
    if state is None:
        return _BatchedEvaluator(table, index, unsafe_fallback).run(plan)
    caches = (
        None if isinstance(table, BlockIndependentTable)
        else state.node_caches
    )
    with state.lock:
        return _BatchedEvaluator(
            table, index, unsafe_fallback, state.annotations_for(plan),
            caches).run(plan)


#: Answer rows per grouped pass.  A row's value depends only on its own
#: binding, so blocking bounds the group table's memory on large
#: ``candidates^arity`` products without changing a bit.
GROUPED_ANSWER_BLOCK = 1 << 14


def _leaf_supports(
    index: FactIndex, leaf: GroupedLeaf, head: Set[Variable]
) -> Dict[Variable, Set[Value]]:
    """Per head variable of one leaf atom, the values it holds in the
    facts the leaf can read: the keys of the signature table at the
    atom's constant and head positions, kept where they match the
    constants and agree at a repeated head variable.  Other variables
    are bound by enclosing projects and match anything."""
    layout = [
        (position, kind, payload)
        for position, (kind, payload) in enumerate(leaf.layout)
        if kind == "c" or payload in head
    ]
    if all(kind == "c" for _, kind, _ in layout):
        return {}
    keys = index.signature_table(
        leaf.relation, tuple(position for position, _, _ in layout))
    if len(layout) == 1:  # one-value keys: the values themselves
        return {layout[0][2]: set(itertools.chain.from_iterable(keys))}
    first: Dict[Variable, int] = {}
    constants = []
    repeats = []
    for i, (_, kind, payload) in enumerate(layout):
        if kind == "c":
            constants.append((i, payload))
        elif payload in first:
            repeats.append((i, first[payload]))
        else:
            first[payload] = i
    supports: Dict[Variable, Set[Value]] = {v: set() for v in first}
    for key in keys:
        if all(key[i] == value for i, value in constants) and all(
                key[i] == key[j] for i, j in repeats):
            for variable, i in first.items():
                supports[variable].add(key[i])
    return supports


def _head_supports(
    plan: SafePlan,
    info: Dict[int, object],
    index: FactIndex,
    head: Set[Variable],
) -> Dict[Variable, Set[Value]]:
    """A semi-join over a head-bound plan: per head variable the plan
    restricts, a superset of the values it takes in any answer whose
    value at ``plan`` is not 0.  A head variable absent from the result
    is unrestricted.

    Leaves read signature-table keys (:func:`_leaf_supports`); a join
    intersects its operands' sets, a union and an inclusion–exclusion
    node unite their operands' sets (a variable one operand leaves
    unrestricted is unrestricted), and a project passes its child's
    sets on.  Outside these sets every operand that restricts the
    variable is exactly 0.0, so the node is too."""
    if isinstance(plan, FactLeaf):
        return _leaf_supports(index, info[id(plan)], head)
    if isinstance(plan, IndependentProject):
        return _head_supports(plan.child, info, index, head)
    if isinstance(plan, IndependentJoin):
        supports: Dict[Variable, Set[Value]] = {}
        for child in plan.children:
            for variable, values in _head_supports(
                    child, info, index, head).items():
                known = supports.get(variable)
                supports[variable] = values if known is None else known & values
        return supports
    if isinstance(plan, IndependentUnion):
        operands = plan.children
    elif isinstance(plan, InclusionExclusion):
        operands = [term for _, term in plan.terms]
    else:
        return {}
    united: Optional[Dict[Variable, Set[Value]]] = None
    for child in operands:
        supports = _head_supports(child, info, index, head)
        united = supports if united is None else {
            variable: values | supports[variable]
            for variable, values in united.items() if variable in supports
        }
    return united or {}


def _support_rows(
    query: Query,
    plan: SafePlan,
    info: Dict[int, object],
    index: FactIndex,
    candidates: Set[Value],
) -> Iterator[Tuple[Value, ...]]:
    """The answer rows worth scoring: the product of the sorted
    per-head-variable supports (:func:`_head_supports`) within
    ``candidates``, which contains every positive answer and keeps
    ``itertools.product`` order over the sorted candidates.  Only an
    unrestricted head variable sorts the whole candidate set.  The
    product's tuples left out count in ``grounding.pruned_answers``."""
    supports = _head_supports(plan, info, index, set(query.variables))
    everything: Optional[List[Value]] = None
    columns = []
    for variable in query.variables:
        values = supports.get(variable)
        if values is None:
            if everything is None:
                everything = sorted(candidates, key=domain_sort_key)
            columns.append(everything)
        else:
            columns.append(sorted(values & candidates, key=domain_sort_key))
    pruned = len(candidates) ** len(columns) - math.prod(map(len, columns))
    if pruned:
        obs.incr("grounding.pruned_answers", pruned)
    return itertools.product(*columns)


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
    family, and runs over the table's own fact index.  It runs in the
    batched executor over a root group table holding one row per
    answer tuple — the head variables are bound group columns, just as
    an enclosing separator binds its variable — and stops before any
    root fold, so the plan root yields every answer's marginal at once.

    Positive answers are kept, in ``answers`` order.  A row's value
    depends on its own binding only: leaves read one fact each, a
    project over a bound leaf folds its own segment in the table's
    order (the index interns in it), and every other project in
    canonical :func:`~repro.relational.facts.domain_sort_key` order.
    So an answer's bits do not depend on which answers share its pass,
    nor on how the index grew.  The pass runs with the family's node
    caches, so across a sweep's truncations each bound segment resumes
    its kept clean fold and folds only its new rows
    (``lifted.folds_resumed``), with a full fold's bits.  As in
    :func:`query_probability_lifted`, the family's stripe lock is held
    for the whole pass.  Each evaluated row counts in
    ``fanout.answers``.
    """
    return _grouped_answer_pass(
        query, table, plan_cache, lambda plan, info, index: answers)


def answer_marginals_on_support(
    query: Query,
    table: LiftedTable,
    candidates: Set[Value],
    plan_cache=None,
) -> Optional[Dict[Tuple[Value, ...], float]]:
    """:func:`answer_marginals_lifted` over the candidate answers
    ``candidates^arity``, scoring only their support rows
    (:func:`_support_rows`): the same dict, entry order included (up to
    ``domain_sort_key`` ties), without a row for a tuple whose marginal
    is 0 by the semi-join.  ``candidates`` is only read."""
    return _grouped_answer_pass(
        query, table, plan_cache,
        lambda plan, info, index: _support_rows(
            query, plan, info, index, candidates))


def _grouped_answer_pass(
    query: Query,
    table: LiftedTable,
    plan_cache,
    rows: Callable[[SafePlan, Dict[int, object], FactIndex],
                   Iterable[Tuple[Value, ...]]],
) -> Optional[Dict[Tuple[Value, ...], float]]:
    """The grouped pass of :func:`answer_marginals_lifted` over the
    answers ``rows(plan, annotations, index)`` gives, under the family
    lock."""
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
        info = state.annotations_for(plan)
        evaluator = _BatchedEvaluator(
            table, index, info=info, node_caches=state.node_caches)
        results: Dict[Tuple[Value, ...], float] = {}
        pending = iter(rows(plan, info, index))
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
                    results[answer] = probability


def evaluate_plan(plan: SafePlan, table: LiftedTable) -> float:
    """Evaluate a compiled :class:`SafePlan` on a TI (or BID) table.

    Runs over the table's own fact index, in the table's order (which
    a bound segment folds in); callers evaluating one query family
    across growing truncations should go through
    :func:`query_probability_lifted`, which also caches plans and keeps
    warm per-node binding tables.

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
    return _run_plan(plan, table, table.index, None)


def query_probability_lifted(
    query: BooleanQuery,
    table: LiftedTable,
    plan_cache=None,
    partial: bool = False,
    unsafe_fallback: Optional[Callable[[Formula], float]] = None,
) -> float:
    """Exact ``P(Q)`` via safe plans, or :class:`UnsafeQueryError`.

    The query must be (equivalent to) a Boolean UCQ with a safe plan
    under the Dalvi–Suciu rules of :mod:`repro.logic.hierarchy` — the
    error of an unsafe query carries the minimal offending subquery as
    ``exc.subquery``.  On a BID table it also raises where the plan's
    operands share a block the disjoint-union rule does not cover.

    ``plan_cache`` is a :class:`~repro.finite.compile_cache.CompileCache`
    (defaulting to the process-wide one): plans are compiled once per
    query family and run over the table's own fact index (which grows
    with the table), and cache traffic shows up in the
    ``lifted.plans`` / ``lifted.plan_cache_hits`` counters.

    With ``partial=True`` an unsafe query still evaluates if some
    top-level components are safe: the unsafe residue components are
    delegated to ``unsafe_fallback(formula)`` (required in that case by
    evaluation time); a wholly unsafe query raises even in partial mode.

    The plan runs in the batched set-at-a-time executor.  On TI tables
    it keeps per-plan-node binding tables in the cache family and
    delta-extends them across a sweep's truncations, so only new
    separator groups re-execute (``lifted.cached_groups``), and a bound
    segment they read folds only its new rows onto its kept fold state
    (``lifted.folds_resumed``).

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
    state = cache.lifted_state(query.formula)
    # Hold the family stripe lock (== ``state.lock``, reentrant) for the
    # whole run: the node caches it reads and writes belong to the
    # family, and every table the family runs on shares them.
    with state.lock:
        plan, index = cache.lifted(query.formula, table, partial=partial)
        return _run_plan(plan, table, index, unsafe_fallback, state)
