"""Reduced ordered binary decision diagrams (ROBDDs) over fact variables.

The Shannon-expansion evaluator (:mod:`repro.finite.lineage_eval`)
re-normalizes the lineage tree at every conditioning step; compiling the
lineage *once* into an ROBDD makes subsequent operations linear in the
diagram size:

* exact probability under independent fact marginals (one bottom-up
  pass — weighted model counting);
* conditioning on facts (restrict);
* model counting and enumeration.

Nodes are hash-consed: structurally equal subdiagrams are shared, and
the reduction rules (no redundant tests, no duplicate nodes) hold by
construction, so ROBDD equality is pointer equality per manager.
Variable order follows the canonical fact order by default, or a
caller-supplied order (the classic lever benchmarked in A-3).

The evaluation paths order variables by the *table's* insertion order
(:meth:`BDDManager.aligned_to`): a truncation lists its facts in
enumeration order and a tightening step only appends, so a diagram
grown along an ε-sweep and one compiled cold for the same table see the
same order — an ROBDD is canonical for its function and order, and the
weighted model count is a fixed function of the diagram, so both give
the same bits.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import EvaluationError
from repro.logic.lineage import Lineage
from repro.relational.facts import Fact
from repro.utils.probability import record_fold_error, wmc_error_bound

#: Linearizations kept per manager (LRU by root id).
_LINEAR_CACHE_SIZE = 16


class BDDNode:
    """An internal node: test ``fact``, branch to ``low`` / ``high``.

    Terminals are the integers 0 and 1 (shared across managers).
    """

    __slots__ = ("fact", "low", "high", "id")

    def __init__(self, fact: Fact, low, high, node_id: int):
        self.fact = fact
        self.low = low
        self.high = high
        self.id = node_id

    def __repr__(self) -> str:
        return f"BDDNode({self.fact}, id={self.id})"


#: Terminal nodes.
ZERO = 0
ONE = 1

BDDRef = object  # BDDNode | int


class BDDManager:
    """Hash-consing manager for ROBDDs over a fixed variable order.

    >>> from repro.relational import RelationSymbol
    >>> R = RelationSymbol("R", 1)
    >>> manager = BDDManager([R(1), R(2)])
    >>> node = manager.disjoin(manager.variable(R(1)),
    ...                        manager.variable(R(2)))
    >>> manager.probability(node, lambda f: 0.5)
    0.75
    """

    def __init__(self, order: Sequence[Fact]):
        order = list(order)
        if len(set(order)) != len(order):
            raise EvaluationError("variable order contains duplicates")
        self._level: Dict[Fact, int] = {f: i for i, f in enumerate(order)}
        self.order: List[Fact] = order
        self._unique: Dict[Tuple[int, int, int], BDDNode] = {}
        self._apply_cache: Dict[Tuple[str, int, int], BDDRef] = {}
        self._next_id = 2  # 0 and 1 are terminals
        #: LRU of linearized cones for :meth:`rescore`, keyed by root
        #: id — sound forever because nodes (and their cones) are
        #: immutable once hash-consed.
        self._linear_cache: "OrderedDict[int, tuple]" = OrderedDict()
        #: Serializes structural mutation (node creation, order
        #: extension) and the linearization LRU.  Re-entrant so public
        #: entry points may nest (``build`` → ``conjoin`` → ``make``).
        #: Reads of already-built diagrams never need it: nodes are
        #: immutable once hash-consed.
        self._lock = threading.RLock()

    # ----------------------------------------------------------------- basics
    def level(self, node: BDDRef) -> int:
        if isinstance(node, int):
            return len(self.order)  # terminals below all variables
        return self._level[node.fact]

    @staticmethod
    def _id(node: BDDRef) -> int:
        return node if isinstance(node, int) else node.id

    def make(self, fact: Fact, low: BDDRef, high: BDDRef) -> BDDRef:
        """Create (or reuse) a node, applying the reduction rules."""
        if self._id(low) == self._id(high):
            return low  # redundant test
        key = (self._level[fact], self._id(low), self._id(high))
        with self._lock:
            node = self._unique.get(key)
            if node is None:
                node = BDDNode(fact, low, high, self._next_id)
                self._next_id += 1
                self._unique[key] = node
        return node

    def variable(self, fact: Fact) -> BDDRef:
        if fact not in self._level:
            raise EvaluationError(f"{fact} not in the variable order")
        return self.make(fact, ZERO, ONE)

    def size(self) -> int:
        """Number of live internal nodes."""
        return len(self._unique)

    def extend_order(self, facts: Iterable[Fact]) -> int:
        """Append new facts *below* the existing variable order.

        Existing nodes keep their levels, so every previously compiled
        diagram (and the apply/unique caches backing it) stays valid —
        this is what lets a compilation cache *extend* a manager when a
        growing truncation Ω_n introduces fresh facts, instead of
        recompiling from scratch.  Returns the number of facts added.
        """
        added = 0
        with self._lock:
            for fact in facts:
                if fact not in self._level:
                    self._level[fact] = len(self.order)
                    self.order.append(fact)
                    added += 1
        return added

    def aligned_to(self, order: Sequence[Fact]) -> "BDDManager":
        """A manager whose variable order agrees with ``order`` (a
        table's facts in insertion order).

        If the current order is a prefix of ``order``, the rest is
        appended (:meth:`extend_order`); if ``order`` is a prefix of the
        current order, nothing changes.  Either way every diagram built
        here for facts of ``order`` is the one a fresh
        ``BDDManager(order)`` would build, and this manager is returned.
        Otherwise it is left untouched and a fresh ``BDDManager(order)``
        is returned, counted in ``bdd.order_resets``.
        """
        with self._lock:
            current = self.order
            known = len(current)
            if len(order) < known:
                if list(order) == current[: len(order)]:
                    return self
            elif not known or list(order[:known]) == current:
                self.extend_order(order[known:])
                return self
        obs.incr("bdd.order_resets")
        return BDDManager(order)

    def build(self, expr: Lineage) -> BDDRef:
        """Compile a lineage expression into this manager.

        Facts not yet in the variable order are appended first, sorted
        canonically (see :meth:`extend_order`) — a manager aligned to
        its table (:meth:`aligned_to`) already holds every fact.
        Structurally shared sub-expressions land on the same hash-consed
        nodes, and repeated builds reuse the manager's apply cache.
        """
        with self._lock:
            self.extend_order(sorted(
                fact for fact in expr.facts() if fact not in self._level))
            return _build(self, expr.node)

    # ------------------------------------------------------------------ apply
    def _apply(self, op: str, combine, left: BDDRef, right: BDDRef) -> BDDRef:
        terminal = combine(left, right)
        if terminal is not None:
            return terminal
        key = (op, self._id(left), self._id(right))
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        left_level, right_level = self.level(left), self.level(right)
        top = min(left_level, right_level)
        fact = self.order[top]
        left_low, left_high = (
            (left.low, left.high) if left_level == top else (left, left)
        )
        right_low, right_high = (
            (right.low, right.high) if right_level == top else (right, right)
        )
        result = self.make(
            fact,
            self._apply(op, combine, left_low, right_low),
            self._apply(op, combine, left_high, right_high),
        )
        self._apply_cache[key] = result
        return result

    def conjoin(self, left: BDDRef, right: BDDRef) -> BDDRef:
        def combine(a, b):
            if a == ZERO or b == ZERO:
                return ZERO
            if a == ONE:
                return b
            if b == ONE:
                return a
            if self._id(a) == self._id(b):
                return a
            return None

        with self._lock:
            return self._apply("and", combine, left, right)

    def disjoin(self, left: BDDRef, right: BDDRef) -> BDDRef:
        def combine(a, b):
            if a == ONE or b == ONE:
                return ONE
            if a == ZERO:
                return b
            if b == ZERO:
                return a
            if self._id(a) == self._id(b):
                return a
            return None

        with self._lock:
            return self._apply("or", combine, left, right)

    def negate(self, node: BDDRef) -> BDDRef:
        if node == ZERO:
            return ONE
        if node == ONE:
            return ZERO
        key = ("not", self._id(node), -1)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        with self._lock:
            result = self.make(
                node.fact, self.negate(node.low), self.negate(node.high))
            self._apply_cache[key] = result
        return result

    # --------------------------------------------------------------- queries
    def probability(
        self,
        node: BDDRef,
        marginal: Callable[[Fact], float],
        cache: Optional[Dict[int, float]] = None,
    ) -> float:
        """Weighted model count: one pass, memoized per node.

        Pass an external ``cache`` dict to share the memo across many
        roots in the same manager (e.g. the per-answer restrictions of a
        marginal fan-out) — valid as long as the marginals are fixed.
        """
        if cache is None:
            cache = {}

        def recurse(n: BDDRef) -> float:
            if n == ZERO:
                return 0.0
            if n == ONE:
                return 1.0
            cached = cache.get(n.id)
            if cached is not None:
                return cached
            p = marginal(n.fact)
            value = p * recurse(n.high) + (1.0 - p) * recurse(n.low)
            cache[n.id] = value
            return value

        return recurse(node)

    # ---------------------------------------------------- linearized rescore
    def _linearized(self, root: BDDNode) -> tuple:
        """The root's cone as parallel columns, topologically ordered.

        Node ids ascend children-first by construction (:meth:`make`
        allocates a parent only after both children exist), so sorting
        the reachable internal nodes by id *is* a topological order.
        Returns ``(facts, low_pos, high_pos)``, where positions index the
        dense value vector (terminals at 0 and 1, node k of the order at
        k+2).
        """
        # Copy-on-read: the LRU dict is only ever touched under the
        # manager lock, and the payload handed out is an immutable tuple
        # of freshly built columns — concurrent rescores may each build
        # the cone once (last writer wins) but never observe a
        # half-mutated cache entry.
        with self._lock:
            payload = self._linear_cache.get(root.id)
            if payload is not None:
                self._linear_cache.move_to_end(root.id)
                return payload
        seen = set()
        stack = [root]
        nodes: List[BDDNode] = []
        while stack:
            n = stack.pop()
            if isinstance(n, int) or n.id in seen:
                continue
            seen.add(n.id)
            nodes.append(n)
            stack.append(n.low)
            stack.append(n.high)
        nodes.sort(key=lambda n: n.id)
        position = {ZERO: 0, ONE: 1}
        for k, n in enumerate(nodes):
            position[n.id] = k + 2
        facts = [n.fact for n in nodes]
        low_pos = [position[self._id(n.low)] for n in nodes]
        high_pos = [position[self._id(n.high)] for n in nodes]
        payload = (facts, low_pos, high_pos)
        with self._lock:
            self._linear_cache[root.id] = payload
            while len(self._linear_cache) > _LINEAR_CACHE_SIZE:
                self._linear_cache.popitem(last=False)
        return payload

    def rescore(
        self, node: BDDRef, marginal: Callable[[Fact], float]
    ) -> float:
        """Weighted model count over a cached linearization — the warm
        path of ε-sweeps, where one diagram is re-scored under growing
        truncations again and again.

        Bit-identical to :meth:`probability`: each node computes the
        same ``p·v_high + (1 − p)·v_low`` exactly once, in one linear
        pass over the topological order instead of the recursion.
        """
        if isinstance(node, int):
            return 1.0 if node == ONE else 0.0
        facts, low_pos, high_pos = self._linearized(node)
        values = [0.0] * (len(facts) + 2)
        values[1] = 1.0
        for k, p in enumerate(map(marginal, facts)):
            values[k + 2] = (
                p * values[high_pos[k]] + (1.0 - p) * values[low_pos[k]]
            )
        return values[-1]

    def restrict(self, node: BDDRef, fact: Fact, value: bool) -> BDDRef:
        """Condition on ``fact = value``."""
        if fact not in self._level:
            return node
        target = self._level[fact]
        cache: Dict[int, BDDRef] = {}

        def recurse(n: BDDRef) -> BDDRef:
            if isinstance(n, int) or self.level(n) > target:
                return n
            cached = cache.get(n.id)
            if cached is not None:
                return cached
            if self.level(n) == target:
                result = n.high if value else n.low
            else:
                result = self.make(n.fact, recurse(n.low), recurse(n.high))
            cache[n.id] = result
            return result

        with self._lock:
            return recurse(node)

    def evaluate(self, node: BDDRef, world) -> bool:
        """Truth value in a world (set of present facts)."""
        while not isinstance(node, int):
            node = node.high if node.fact in world else node.low
        return node == ONE

    def count_nodes(self, node: BDDRef) -> int:
        """Nodes reachable from ``node`` (diagram size)."""
        seen = set()
        stack = [node]
        while stack:
            n = stack.pop()
            if isinstance(n, int) or n.id in seen:
                continue
            seen.add(n.id)
            stack.extend((n.low, n.high))
        return len(seen)

    def nodes_by_id(self) -> Dict[int, BDDRef]:
        """id → node map over every live node (terminals included) —
        the resolver snapshot/restore uses to re-attach saved root ids
        to this manager's hash-consed store."""
        mapping: Dict[int, BDDRef] = {ZERO: ZERO, ONE: ONE}
        for node in self._unique.values():
            mapping[node.id] = node
        return mapping

    # ------------------------------------------------------------- pickling
    def __getstate__(self):
        """Flatten the node store into id-sorted columns.

        Recursive pickling of ``BDDNode`` chains overflows the stack on
        deep diagrams; the flat form is linear and also drops the apply
        and linearization caches (pure derived state — rebuilt on
        demand), mirroring the columnar ``__getstate__`` discipline of
        the tables and :class:`~repro.relational.index.FactIndex`.
        """
        nodes = sorted(self._unique.values(), key=lambda n: n.id)
        return {
            "order": self.order,
            "nodes": [
                (n.id, n.fact, self._id(n.low), self._id(n.high))
                for n in nodes
            ],
            "next_id": self._next_id,
        }

    def __setstate__(self, state) -> None:
        self.order = state["order"]
        self._level = {fact: i for i, fact in enumerate(self.order)}
        self._unique = {}
        self._apply_cache = {}
        self._linear_cache = OrderedDict()
        self._lock = threading.RLock()
        self._next_id = state["next_id"]
        by_id: Dict[int, BDDRef] = {ZERO: ZERO, ONE: ONE}
        # Ids ascend children-first (``make`` allocates parents after
        # both children), so one pass in id order resolves every branch.
        for node_id, fact, low_id, high_id in state["nodes"]:
            node = BDDNode(fact, by_id[low_id], by_id[high_id], node_id)
            by_id[node_id] = node
            self._unique[(self._level[fact], low_id, high_id)] = node

    def satisfying_worlds(
        self, node: BDDRef, limit: int = 1000
    ) -> Iterator[frozenset]:
        """Enumerate satisfying worlds (facts NOT on the path are free;
        each yielded world is the minimal 'present' set of one full
        assignment — free variables are emitted in both states)."""
        order = self.order

        def recurse(n: BDDRef, index: int, present: frozenset):
            if n == ZERO:
                return
            if index == len(order):
                if n == ONE:
                    yield present
                return
            fact = order[index]
            if isinstance(n, int) or self.level(n) > index:
                yield from recurse(n, index + 1, present)
                yield from recurse(n, index + 1, present | {fact})
            else:
                yield from recurse(n.low, index + 1, present)
                yield from recurse(n.high, index + 1, present | {fact})

        for count, world in enumerate(recurse(node, 0, frozenset())):
            if count >= limit:
                return
            yield world


def compile_lineage(
    expr: Lineage,
    order: Optional[Sequence[Fact]] = None,
) -> Tuple[BDDManager, BDDRef]:
    """Compile a lineage expression into an ROBDD.

    Default order: canonical fact order over the expression's facts.

    >>> from repro.relational import RelationSymbol
    >>> R = RelationSymbol("R", 1)
    >>> expr = Lineage.conj([Lineage.var(R(1)),
    ...                      Lineage.negation(Lineage.var(R(2)))])
    >>> manager, root = compile_lineage(expr)
    >>> manager.probability(root, lambda f: 0.5)
    0.25
    """
    if order is None:
        order = sorted(expr.facts())
    manager = BDDManager(order)
    root = manager.build(expr)
    return manager, root


def _build(manager: BDDManager, node: tuple) -> BDDRef:
    tag = node[0]
    if tag == "true":
        return ONE
    if tag == "false":
        return ZERO
    if tag == "var":
        return manager.variable(node[1])
    if tag == "not":
        return manager.negate(_build(manager, node[1]))
    if tag == "and":
        result: BDDRef = ONE
        for child in node[1]:
            result = manager.conjoin(result, _build(manager, child))
            if result == ZERO:
                return ZERO
        return result
    if tag == "or":
        result = ZERO
        for child in node[1]:
            result = manager.disjoin(result, _build(manager, child))
            if result == ONE:
                return ONE
        return result
    raise EvaluationError(f"unknown lineage node {node!r}")


def query_probability_by_bdd(query, table) -> float:
    """Exact ``P(Q)`` by lineage → ROBDD → weighted model count, with
    variables in the table's insertion order.

    The lineage step uses the set-at-a-time grounding engine for
    positive-existential queries (see :func:`repro.logic.lineage.lineage_of`).

    >>> from repro.relational import Schema
    >>> from repro.finite.tuple_independent import TupleIndependentTable
    >>> from repro.logic import BooleanQuery, parse_formula
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> table = TupleIndependentTable(schema, {R(1): 0.5, R(2): 0.5})
    >>> q = BooleanQuery(parse_formula("EXISTS x. R(x)", schema), schema)
    >>> round(query_probability_by_bdd(q, table), 10)
    0.75
    """
    from repro.logic.lineage import lineage_of

    order = list(table.marginals)
    expr = lineage_of(query.formula, set(order))
    manager, root = compile_lineage(expr, order=order)
    record_fold_error(wmc_error_bound(len(order)))
    return manager.probability(root, table.marginal)
