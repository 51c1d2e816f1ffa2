"""Exact query evaluation via lineage and Shannon expansion.

The lineage of a Boolean query over a finite TI table is a Boolean
function of independent fact variables; its probability is computed by
recursive Shannon expansion

    P(λ) = p_f · P(λ[f ↦ 1]) + (1 − p_f) · P(λ[f ↦ 0])

with memoization on (syntactically normalized) sub-lineages — a
formula-driven BDD.  Worst case exponential (#P-hardness is real:
non-hierarchical queries like H₀ trigger it), but far cheaper than world
enumeration on typical inputs, and exact.

For BID tables the expansion branches over *blocks* (each alternative
plus ⊥), which accounts for the within-block disjointness.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Union

from repro.errors import EvaluationError
from repro.finite.bid import BlockIndependentTable
from repro.finite.pdb import FinitePDB
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic.lineage import Lineage, lineage_of
from repro.logic.queries import BooleanQuery
from repro.relational.facts import Fact
from repro.utils.probability import (
    record_fold_error,
    wmc_error_bound,
    worlds_error_bound,
)


def lineage_probability(
    lineage: Lineage,
    marginal: Callable[[Fact], float],
) -> float:
    """Probability of a lineage under independent fact marginals.

    >>> from repro.relational import RelationSymbol
    >>> R = RelationSymbol("R", 1)
    >>> expr = Lineage.disj([Lineage.var(R(1)), Lineage.var(R(2))])
    >>> round(lineage_probability(expr, lambda f: 0.5), 10)
    0.75
    """
    cache: Dict[tuple, float] = {}
    pivot = _make_pivot(lineage)

    def recurse(expr: Lineage) -> float:
        constant = expr.is_constant()
        if constant is not None:
            return 1.0 if constant else 0.0
        key = expr.node
        cached = cache.get(key)
        if cached is not None:
            return cached
        fact = pivot(expr)
        p = marginal(fact)
        high = recurse(expr.condition(fact, True))
        low = recurse(expr.condition(fact, False))
        value = p * high + (1.0 - p) * low
        cache[key] = value
        return value

    return recurse(lineage)


def _make_pivot(root: Lineage) -> Callable[[Lineage], Fact]:
    """Build the pivot chooser for one expansion.

    The old per-call ``_pivot`` re-walked the whole lineage tree at every
    recursion step (O(size) per node, O(size²) per expansion).  Instead,
    occurrence counts are taken *once* on the root, and the facts present
    in each sub-lineage are maintained in a memo keyed by (shared,
    hash-consed) node tuples, so conditioned expressions reuse the fact
    sets of every untouched subtree.
    """
    counts: Dict[Fact, int] = {}
    stack = [root.node]
    while stack:
        node = stack.pop()
        tag = node[0]
        if tag == "var":
            counts[node[1]] = counts.get(node[1], 0) + 1
        elif tag == "not":
            stack.append(node[1])
        elif tag in ("and", "or"):
            stack.extend(node[1])
    facts_memo: Dict[tuple, FrozenSet[Fact]] = {}

    def pivot(expr: Lineage) -> Fact:
        present = _facts_of(expr.node, facts_memo)
        if not present:
            raise EvaluationError("no variables in non-constant lineage")
        return max(present, key=lambda f: (counts.get(f, 0), f.sort_key()))

    return pivot


_NO_FACTS: FrozenSet[Fact] = frozenset()


def _facts_of(
    node: tuple, memo: Dict[tuple, FrozenSet[Fact]]
) -> FrozenSet[Fact]:
    """Facts mentioned in a lineage node, memoized across shared subtrees."""
    known = memo.get(node)
    if known is not None:
        return known
    stack = [node]
    while stack:
        current = stack[-1]
        if current in memo:
            stack.pop()
            continue
        tag = current[0]
        if tag == "var":
            memo[current] = frozenset((current[1],))
            stack.pop()
        elif tag in ("true", "false"):
            memo[current] = _NO_FACTS
            stack.pop()
        elif tag == "not":
            child = memo.get(current[1])
            if child is not None:
                memo[current] = child
                stack.pop()
            else:
                stack.append(current[1])
        else:  # and / or
            pending = [c for c in current[1] if c not in memo]
            if pending:
                stack.extend(pending)
            else:
                memo[current] = frozenset().union(
                    *(memo[c] for c in current[1]))
                stack.pop()
    return memo[node]


def _bid_lineage_probability(
    lineage: Lineage,
    table: BlockIndependentTable,
) -> float:
    """Shannon expansion over blocks: branch on each alternative of the
    block of the pivot fact (all alternatives plus ⊥), conditioning the
    lineage on the chosen fact being present and its block-mates absent.
    """
    cache: Dict[tuple, float] = {}
    pivot = _make_pivot(lineage)

    def recurse(expr: Lineage) -> float:
        constant = expr.is_constant()
        if constant is not None:
            return 1.0 if constant else 0.0
        key = expr.node
        cached = cache.get(key)
        if cached is not None:
            return cached
        pivot_fact = pivot(expr)
        block = table.block_of(pivot_fact)
        if block is None:
            # Fact impossible: it is simply absent.
            value = recurse(expr.condition(pivot_fact, False))
            cache[key] = value
            return value
        block_facts = block.facts()
        total = 0.0
        # Branch: exactly `chosen` from the block is present (or none).
        for chosen in block_facts + [None]:
            probability = block.probability(chosen)
            if probability == 0.0:
                continue
            conditioned = expr.condition_many(
                {fact: fact == chosen for fact in block_facts})
            total += probability * recurse(conditioned)
        cache[key] = total
        return total

    return recurse(lineage)


def query_probability_by_lineage(
    query: BooleanQuery,
    pdb: Union[TupleIndependentTable, BlockIndependentTable, FinitePDB],
) -> float:
    """Exact ``P(Q)`` via lineage construction + Shannon expansion.

    Grounding goes through :func:`repro.logic.lineage.lineage_of`, so
    positive-existential queries use the set-at-a-time join engine
    (:mod:`repro.logic.ground`) instead of assignment enumeration.

    Falls back to world enumeration for explicit :class:`FinitePDB`
    inputs (they carry arbitrary correlations lineage cannot factor).

    >>> from repro.relational import Schema
    >>> from repro.logic.parser import parse_formula
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> table = TupleIndependentTable(schema, {R(1): 0.5, R(2): 0.5})
    >>> q = BooleanQuery(parse_formula("EXISTS x. R(x)", schema), schema)
    >>> round(query_probability_by_lineage(q, table), 10)
    0.75
    """
    if isinstance(pdb, FinitePDB):
        record_fold_error(worlds_error_bound(len(pdb.worlds), len(pdb.facts())))
        return pdb.probability(query.holds_in)
    possible = set(pdb.possible_facts())
    expr = lineage_of(query.formula, possible)
    record_fold_error(wmc_error_bound(len(possible)))
    if isinstance(pdb, TupleIndependentTable):
        return lineage_probability(expr, pdb.marginal)
    return _bid_lineage_probability(expr, pdb)
