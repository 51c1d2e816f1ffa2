"""Safe plans for UCQs (Dalvi–Suciu lifted inference).

Proposition 6.1 of the paper reduces approximate evaluation on infinite
tuple-independent PDBs to "a traditional closed-world query evaluation
algorithm for finite tuple-independent PDBs".  The classical result for
that finite problem is the Dalvi–Suciu dichotomy: a UCQ is either *safe*
— its probability is computed in polynomial time by an extensional plan
of independence-exploiting operators — or #P-hard.  This module is the
plan compiler.  It applies, in order:

* **minimization** — every (sub)query is reduced to its core first
  (:func:`~repro.logic.normalform.minimize_cq` /
  :func:`~repro.logic.normalform.minimize_ucq`), so redundant self-joins
  like ``R(x) ∧ R(1)`` and subsumed disjuncts disappear before safety is
  judged;
* **shattering** — atoms of one relation with pairwise-incompatible
  constant patterns partition the relation's facts and are treated as
  distinct symbols; compatible-but-different patterns are rejected
  (raising :class:`UnsafeQueryError`) rather than silently mishandled;
* **independent join** — connected components (via shared unbound
  variables) over disjoint fact slices multiply;
* **independent project** — a *separator* variable occurring in every
  atom (at consistent positions within each shattered symbol) is
  grounded: ``P(∃x φ) = 1 − Π_a (1 − P(φ[x↦a]))``.  The rule is applied
  at CQ level and, by unifying one variable per disjunct, at UCQ level;
* **independent union** — disjuncts over disjoint fact slices combine as
  ``1 − Π (1 − P)``;
* **inclusion–exclusion** — overlapping disjuncts expand into signed
  conjunction terms; terms are minimized, grouped up to equivalence and
  cancelled (the Möbius-style step that makes e.g. ``(R∧V) ∨ (R∧T)``
  safe) before each surviving term is planned strictly.

A query on which every rule fails raises :class:`UnsafeQueryError` with
the minimal offending subquery attached (``exc.subquery``).  With
``partial=True`` the compiler instead wraps unsafe top-level components
in :class:`UnsafeLeaf` nodes, producing a hybrid plan whose safe parts
evaluate extensionally while the residue is delegated to an intensional
engine by ``repro.finite.lifted``.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro import obs
from repro.errors import UnsafeQueryError
from repro.logic.normalform import (
    ConjunctiveQuery,
    UnionOfConjunctiveQueries,
    cq_equivalent,
    minimize_cq,
    minimize_ucq,
    rename_cq_apart,
)
from repro.logic.syntax import Atom, Constant, Variable

#: Inclusion–exclusion expands ``2^k − 1`` subset terms for ``k``
#: overlapping disjuncts; past this budget the solver reports the UCQ
#: unsafe instead of building an exponential plan.
MAX_INCLUSION_EXCLUSION = 7

#: A shatter key: ``(relation, ((position, constant), …))`` — the
#: constant pattern that slices a relation's facts.
ShatterKey = Tuple[object, Tuple[Tuple[int, object], ...]]


def _atom_variables(atom: Atom) -> FrozenSet[Variable]:
    return frozenset(t for t in atom.terms if isinstance(t, Variable))


def is_self_join_free(cq: ConjunctiveQuery) -> bool:
    """True iff no relation symbol occurs in two different atoms.

    >>> from repro.relational import RelationSymbol
    >>> R = RelationSymbol("R", 1)
    >>> x = Variable("x")
    >>> is_self_join_free(ConjunctiveQuery([Atom(R, (x,))]))
    True
    >>> is_self_join_free(ConjunctiveQuery(
    ...     [Atom(R, (x,)), Atom(R, (Constant(1),))]))
    False
    """
    symbols = [atom.relation for atom in cq.atoms]
    return len(symbols) == len(set(symbols))


def is_hierarchical(cq: ConjunctiveQuery) -> bool:
    """The hierarchy test on existential variables.

    For all existential x, y: ``at(x) ⊆ at(y)``, ``at(y) ⊆ at(x)`` or
    ``at(x) ∩ at(y) = ∅``, where ``at(x)`` is the set of atoms containing
    x.  Head variables are ignored (they are constants at evaluation
    time).

    >>> from repro.relational import RelationSymbol
    >>> R, S, T = (RelationSymbol(n, a) for n, a in
    ...            [("R", 1), ("S", 2), ("T", 1)])
    >>> x, y = Variable("x"), Variable("y")
    >>> is_hierarchical(ConjunctiveQuery(
    ...     [Atom(R, (x,)), Atom(S, (x, y))]))
    True
    >>> is_hierarchical(ConjunctiveQuery(            # the classic H0
    ...     [Atom(R, (x,)), Atom(S, (x, y)), Atom(T, (y,))]))
    False
    """
    existential = cq.existential_variables
    at: Dict[Variable, Set[int]] = {v: set() for v in existential}
    for index, atom in enumerate(cq.atoms):
        for variable in _atom_variables(atom):
            if variable in at:
                at[variable].add(index)
    variables = list(existential)
    for i, x in enumerate(variables):
        for y in variables[i + 1:]:
            ax, ay = at[x], at[y]
            if not (ax <= ay or ay <= ax or not (ax & ay)):
                return False
    return True


# ------------------------------------------------------------------ plan AST
class SafePlan:
    """Base class of safe-plan nodes."""

    __slots__ = ()


class FactLeaf(SafePlan):
    """A single atom; its variables are bound by enclosing projects at
    evaluation time, and the grounded fact's marginal is the value."""

    __slots__ = ("atom",)

    def __init__(self, atom: Atom):
        self.atom = atom

    def __repr__(self) -> str:
        return f"FactLeaf({self.atom})"


class IndependentJoin(SafePlan):
    """Conjunction of independent subplans: probabilities multiply."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[SafePlan]):
        self.children: Tuple[SafePlan, ...] = tuple(children)

    def __repr__(self) -> str:
        return f"IndependentJoin({list(self.children)})"


class IndependentUnion(SafePlan):
    """Disjunction of independent subplans:
    ``P = 1 − Π (1 − P(child))``."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[SafePlan]):
        self.children: Tuple[SafePlan, ...] = tuple(children)

    def __repr__(self) -> str:
        return f"IndependentUnion({list(self.children)})"


class IndependentProject(SafePlan):
    """Existential quantification over a separator variable.

    ``subquery`` (a CQ, or a UCQ for the union-level rule) keeps the
    variable free and drives candidate-value discovery; ``child`` is the
    plan of the subquery with the variable bound, evaluated once per
    candidate value: ``P = 1 − Π_a (1 − P(child[x↦a]))``.
    """

    __slots__ = ("variable", "subquery", "child")

    def __init__(
        self,
        variable: Variable,
        subquery: Union[ConjunctiveQuery, UnionOfConjunctiveQueries],
        child: SafePlan,
    ):
        self.variable = variable
        self.subquery = subquery
        self.child = child

    def __repr__(self) -> str:
        return f"IndependentProject({self.variable}, {self.subquery!r})"


class InclusionExclusion(SafePlan):
    """Signed sum over overlapping-disjunct conjunction terms:
    ``P = Σ coefficient · P(term)`` — coefficients already carry the
    Möbius-style cancellation of equivalent terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[Tuple[int, SafePlan]]):
        self.terms: Tuple[Tuple[int, SafePlan], ...] = tuple(
            (int(c), p) for c, p in terms)

    def __repr__(self) -> str:
        inner = ", ".join(f"{c:+d}*{p!r}" for c, p in self.terms)
        return f"InclusionExclusion({inner})"


class UnsafeLeaf(SafePlan):
    """A top-level component with no safe plan, kept in a *partial* plan
    so the rest of the query still evaluates extensionally.  Evaluation
    either raises :class:`UnsafeQueryError` or delegates the component's
    formula to a caller-supplied fallback engine."""

    __slots__ = ("subquery",)

    def __init__(
        self, subquery: Union[ConjunctiveQuery, UnionOfConjunctiveQueries]
    ):
        self.subquery = subquery

    def formula(self):
        return self.subquery.to_formula()

    def __repr__(self) -> str:
        return f"UnsafeLeaf({self.subquery!r})"


# --------------------------------------------------------------- shattering
def shatter_key(atom: Atom) -> ShatterKey:
    """The constant pattern of an atom: which positions it pins to which
    constants.  Two atoms of one relation with *incompatible* patterns
    (some position pinned to different constants) can never ground to
    the same fact, so they act as distinct — shattered — symbols.

    >>> from repro.relational import RelationSymbol
    >>> S = RelationSymbol("S", 2)
    >>> x = Variable("x")
    >>> shatter_key(Atom(S, (x, Constant(3))))[1]
    ((1, 3),)
    """
    return (
        atom.relation,
        tuple(
            (i, t.value)
            for i, t in enumerate(atom.terms)
            if isinstance(t, Constant)
        ),
    )


def keys_compatible(left: ShatterKey, right: ShatterKey) -> bool:
    """Whether two shatter keys of one relation can share a fact: no
    position pinned to different constants by the two patterns."""
    if left[0] != right[0]:
        return False
    pattern = dict(left[1])
    for position, value in right[1]:
        if position in pattern and pattern[position] != value:
            return False
    return True


def _check_shatterable(cq: ConjunctiveQuery) -> None:
    """Reject CQs whose repeated relation symbols cannot be shattered:
    two atoms of one relation with compatible but different constant
    patterns overlap on some facts without coinciding, which the
    extensional operators cannot factor."""
    keys_by_relation: Dict[object, List[ShatterKey]] = {}
    for atom in cq.atoms:
        key = shatter_key(atom)
        bucket = keys_by_relation.setdefault(atom.relation, [])
        if key not in bucket:
            bucket.append(key)
    shattered = False
    for relation, keys in keys_by_relation.items():
        if len(keys) < 2:
            continue
        for i, left in enumerate(keys):
            for right in keys[i + 1:]:
                if keys_compatible(left, right):
                    raise UnsafeQueryError(
                        f"atoms of {relation} have overlapping constant "
                        f"patterns; the self-join cannot be shattered",
                        subquery=cq,
                    )
        shattered = True
    if shattered:
        obs.incr("lifted.shatters")


# ----------------------------------------------------------------- utilities
def _atom_sort_key(atom: Atom):
    return (
        atom.relation.name,
        atom.relation.arity,
        tuple(
            ("c", repr(t.value)) if isinstance(t, Constant) else ("v", t.name)
            for t in atom.terms
        ),
    )


def _canonical_atoms(atoms: Sequence[Atom]) -> Tuple[Atom, ...]:
    """Deduplicate and sort atoms into a stable order, so plan
    construction is deterministic across runs."""
    return tuple(sorted(dict.fromkeys(atoms), key=_atom_sort_key))


def _components(
    atoms: Sequence[Atom], link_variables: FrozenSet[Variable]
) -> List[Tuple[Atom, ...]]:
    """Partition atoms into components connected via shared
    ``link_variables`` (the unbound existential variables)."""
    n = len(atoms)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_variable: Dict[Variable, List[int]] = {}
    for index, atom in enumerate(atoms):
        for variable in _atom_variables(atom) & link_variables:
            by_variable.setdefault(variable, []).append(index)
    for indices in by_variable.values():
        root = find(indices[0])
        for other in indices[1:]:
            parent[find(other)] = root
    groups: Dict[int, List[Atom]] = {}
    for index, atom in enumerate(atoms):
        groups.setdefault(find(index), []).append(atom)
    return [tuple(group) for group in groups.values()]


def _connected_components(cq: ConjunctiveQuery) -> List[Tuple[Atom, ...]]:
    """Components of a CQ connected via shared existential variables
    (compatibility wrapper around :func:`_components`)."""
    return _components(cq.atoms, cq.existential_variables)


def _root_variables(cq: ConjunctiveQuery) -> FrozenSet[Variable]:
    """Existential variables occurring in every atom of the CQ."""
    existential = cq.existential_variables
    if not existential:
        return frozenset()
    common = set(existential)
    for atom in cq.atoms:
        common &= _atom_variables(atom)
    return frozenset(common)


def _variable_positions(atom: Atom, variable: Variable) -> Tuple[int, ...]:
    return tuple(i for i, t in enumerate(atom.terms) if t == variable)


def _cq_separators(
    atoms: Sequence[Atom], candidates: FrozenSet[Variable]
) -> List[Variable]:
    """Separator variables of a connected component: variables occurring
    in *every* atom, at identical positions within each shattered symbol
    — so grounding the variable with distinct values touches disjoint
    fact slices."""
    separators: List[Variable] = []
    for variable in sorted(candidates, key=lambda v: v.name):
        positions_by_key: Dict[ShatterKey, Tuple[int, ...]] = {}
        ok = True
        for atom in atoms:
            positions = _variable_positions(atom, variable)
            if not positions:
                ok = False
                break
            key = shatter_key(atom)
            previous = positions_by_key.setdefault(key, positions)
            if previous != positions:
                ok = False
                break
        if ok:
            separators.append(variable)
    return separators


def _check_component_independence(
    components: Sequence[Tuple[Atom, ...]], cq: ConjunctiveQuery
) -> None:
    """Components joined multiplicatively must touch disjoint fact
    slices: no two components may contain the same shattered symbol
    (identical shatter key)."""
    key_sets = [
        {shatter_key(atom) for atom in component} for component in components
    ]
    for i, left in enumerate(key_sets):
        for right in key_sets[i + 1:]:
            if left & right:
                raise UnsafeQueryError(
                    "connected components share a relation slice and are "
                    f"not independent: {cq!r}",
                    subquery=cq,
                )


def _check_leaf_aliasing(
    atoms: Sequence[Atom], cq: ConjunctiveQuery
) -> None:
    """Distinct fully-bound atoms with the same shatter key may ground to
    the same fact under some binding, which a product of leaves would
    double-count — refuse the plan (the intensional fallback handles the
    correlation)."""
    seen: Dict[ShatterKey, Atom] = {}
    for atom in atoms:
        key = shatter_key(atom)
        if key in seen and seen[key] != atom:
            raise UnsafeQueryError(
                f"bound atoms {seen[key]} and {atom} may alias the same "
                "fact; the join is not independent",
                subquery=cq,
            )
        seen[key] = atom


def _rename_variable_in_cq(
    cq: ConjunctiveQuery, old: Variable, new: Variable
) -> ConjunctiveQuery:
    atoms = [
        Atom(
            atom.relation,
            tuple(new if t == old else t for t in atom.terms),
        )
        for atom in cq.atoms
    ]
    return ConjunctiveQuery(atoms, cq.head_variables)


# ------------------------------------------------------------- CQ planning
def safe_plan(cq: ConjunctiveQuery, partial: bool = False) -> SafePlan:
    """Compile a Boolean CQ to a safe plan, or raise
    :class:`UnsafeQueryError` (carrying the offending subquery) when the
    dichotomy places it on the hard side — e.g. the classic
    ``H₀ = ∃x∃y. R(x) ∧ S(x, y) ∧ T(y)``.

    The CQ is minimized first, so redundant self-joins are no obstacle:

    >>> from repro.relational import RelationSymbol
    >>> R, S = RelationSymbol("R", 1), RelationSymbol("S", 2)
    >>> x, y = Variable("x"), Variable("y")
    >>> plan = safe_plan(ConjunctiveQuery([Atom(R, (x,)), Atom(S, (x, y))]))
    >>> isinstance(plan, IndependentProject)
    True
    >>> safe_plan(ConjunctiveQuery([Atom(R, (x,)), Atom(R, (Constant(1),))]))
    FactLeaf(R(1))

    With ``partial=True`` unsafe top-level components become
    :class:`UnsafeLeaf` nodes instead of raising.
    """
    if cq.head_variables:
        raise UnsafeQueryError(
            "safe_plan expects a Boolean CQ; ground the head variables first",
            subquery=cq,
        )
    return _plan_cq(cq, frozenset(), partial)


def _plan_cq(
    cq: ConjunctiveQuery, bound: FrozenSet[Variable], partial: bool
) -> SafePlan:
    cq = minimize_cq(cq, fixed=bound)
    atoms = _canonical_atoms(cq.atoms)
    cq = ConjunctiveQuery(atoms)
    _check_shatterable(cq)
    unbound = cq.existential_variables - bound
    components = _components(atoms, unbound)
    if len(components) > 1:
        _check_component_independence(components, cq)
    plans: List[SafePlan] = []
    for component in components:
        component_cq = (
            ConjunctiveQuery(component) if len(components) > 1 else cq
        )
        try:
            plans.append(_plan_component(component_cq, bound))
        except UnsafeQueryError:
            if partial and not bound:
                plans.append(UnsafeLeaf(component_cq))
            else:
                raise
    if len(plans) == 1:
        return plans[0]
    return IndependentJoin(plans)


def _plan_component(
    cq: ConjunctiveQuery, bound: FrozenSet[Variable]
) -> SafePlan:
    atoms = cq.atoms
    unbound = cq.existential_variables - bound
    if not unbound:
        _check_leaf_aliasing(atoms, cq)
        leaves: List[SafePlan] = [FactLeaf(atom) for atom in atoms]
        if len(leaves) == 1:
            return leaves[0]
        return IndependentJoin(leaves)
    separators = _cq_separators(atoms, unbound)
    if not separators:
        raise UnsafeQueryError(
            f"no separator variable in connected component {cq!r}; "
            "the component is unsafe",
            subquery=cq,
        )
    variable = separators[0]
    child = _plan_cq(cq, bound | {variable}, partial=False)
    return IndependentProject(variable, cq, child)


# ------------------------------------------------------------ UCQ planning
def safe_plan_ucq(
    ucq: UnionOfConjunctiveQueries, partial: bool = False
) -> SafePlan:
    """Compile a UCQ to a safe plan.

    Disjuncts over pairwise-incompatible relation slices combine by
    independent union; overlapping disjuncts go through the UCQ-level
    separator rule and, failing that, inclusion–exclusion with
    cancellation.  Unsafe queries raise :class:`UnsafeQueryError` with
    the minimal offending subquery attached — unless ``partial=True``,
    which wraps unsafe top-level pieces of a Boolean UCQ in
    :class:`UnsafeLeaf` nodes.

    Head (answer) variables are planned as *bound*, exactly like the
    variables an enclosing separator binds: the result is one
    **head-bound plan** whose leaves read the head variables from the
    caller's binding, valid for every answer tuple (the grouped
    answer-marginal pass of :mod:`repro.finite.lifted` evaluates it
    over all candidate answers at once).  Validity for colliding
    answers — a head value equal to a query constant, or two head
    variables sharing a value — comes from the same rules that let a
    separator range over constants: :func:`shatter_key` treats
    variables as wildcards, so atoms whose bound variables *could*
    ground to a common fact are compatible and get no independence
    rule (``R(x) ∧ R(y)`` and ``R(x) ∧ R(1)`` are refused).  Head-bound
    plans are strict (``partial`` never wraps under bound variables).

    >>> from repro.relational import RelationSymbol
    >>> R, T = RelationSymbol("R", 1), RelationSymbol("T", 1)
    >>> x, y = Variable("x"), Variable("y")
    >>> plan = safe_plan_ucq(UnionOfConjunctiveQueries([
    ...     ConjunctiveQuery([Atom(R, (x,))]),
    ...     ConjunctiveQuery([Atom(T, (y,))]),
    ... ]))
    >>> isinstance(plan, IndependentUnion)
    True
    >>> safe_plan_ucq(UnionOfConjunctiveQueries([
    ...     ConjunctiveQuery([Atom(R, (x,))], head_variables=(x,))]))
    FactLeaf(R(x))
    """
    head = frozenset(v for cq in ucq.disjuncts for v in cq.head_variables)
    return _plan_ucq(ucq, head, partial)


def _plan_ucq(
    ucq: UnionOfConjunctiveQueries,
    bound: FrozenSet[Variable],
    partial: bool,
) -> SafePlan:
    ucq = minimize_ucq(ucq, fixed=bound)
    disjuncts = ucq.disjuncts
    if len(disjuncts) == 1:
        return _plan_cq(disjuncts[0], bound, partial)
    groups = _symbol_groups(disjuncts)
    if len(groups) > 1:
        children: List[SafePlan] = []
        for group in groups:
            sub = (
                UnionOfConjunctiveQueries(group) if len(group) > 1 else None
            )
            try:
                if sub is None:
                    children.append(_plan_cq(group[0], bound, partial))
                else:
                    children.append(_plan_ucq(sub, bound, partial))
            except UnsafeQueryError:
                if partial and not bound:
                    children.append(
                        UnsafeLeaf(sub if sub is not None else group[0]))
                else:
                    raise
        return IndependentUnion(children)
    separator = _ucq_separator(disjuncts, bound)
    if separator is not None:
        try:
            return _plan_ucq_project(disjuncts, separator, bound)
        except UnsafeQueryError:
            pass  # fall through to inclusion–exclusion
    try:
        return _inclusion_exclusion(disjuncts, bound)
    except UnsafeQueryError:
        if partial and not bound:
            return UnsafeLeaf(ucq)
        raise


def _symbol_groups(
    disjuncts: Sequence[ConjunctiveQuery],
) -> List[List[ConjunctiveQuery]]:
    """Group disjuncts whose relation slices can overlap (same relation
    with compatible shatter keys); distinct groups never share a fact
    and combine by independent union."""
    n = len(disjuncts)
    keys = [
        [shatter_key(atom) for atom in cq.atoms] for cq in disjuncts
    ]
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if any(
                keys_compatible(left, right)
                for left in keys[i]
                for right in keys[j]
            ):
                parent[find(j)] = find(i)
    groups: Dict[int, List[ConjunctiveQuery]] = {}
    for i, cq in enumerate(disjuncts):
        groups.setdefault(find(i), []).append(cq)
    return list(groups.values())


def _ucq_separator(
    disjuncts: Sequence[ConjunctiveQuery], bound: FrozenSet[Variable]
) -> Optional[List[Variable]]:
    """A choice of one unbound variable per disjunct that acts as a
    separator for the whole union: each occurs in every atom of its
    disjunct, and for any two atoms of one relation with compatible
    keys (across disjuncts) the chosen variables share a position — so
    distinct values slice the union's facts disjointly."""
    per_disjunct: List[List[Tuple[Variable, List[tuple]]]] = []
    for cq in disjuncts:
        unbound = cq.existential_variables - bound
        candidates: List[Tuple[Variable, List[tuple]]] = []
        for variable in sorted(unbound, key=lambda v: v.name):
            occurrences: List[tuple] = []
            ok = True
            per_key: Dict[ShatterKey, Tuple[int, ...]] = {}
            for atom in cq.atoms:
                positions = _variable_positions(atom, variable)
                if not positions:
                    ok = False
                    break
                key = shatter_key(atom)
                previous = per_key.setdefault(key, positions)
                if previous != positions:
                    ok = False
                    break
                occurrences.append((key, frozenset(positions)))
            if ok:
                candidates.append((variable, occurrences))
        if not candidates:
            return None
        per_disjunct.append(candidates)

    choice: List[Optional[Variable]] = [None] * len(disjuncts)

    def consistent(occurrences: List[tuple], chosen: List[tuple]) -> bool:
        for key, positions in occurrences:
            for other_key, other_positions in chosen:
                if keys_compatible(key, other_key) and not (
                    positions & other_positions
                ):
                    return False
        return True

    def search(i: int, chosen: List[tuple]) -> bool:
        if i == len(disjuncts):
            return True
        for variable, occurrences in per_disjunct[i]:
            if consistent(occurrences, chosen) and consistent(
                occurrences, occurrences
            ):
                choice[i] = variable
                if search(i + 1, chosen + occurrences):
                    return True
        return False

    if not search(0, []):
        return None
    return [v for v in choice if v is not None]


def _plan_ucq_project(
    disjuncts: Sequence[ConjunctiveQuery],
    separator: List[Variable],
    bound: FrozenSet[Variable],
) -> SafePlan:
    """Independent project at union level: unify the chosen separator
    variable of every disjunct into one fresh variable and ground it."""
    used = {v.name for cq in disjuncts for v in cq.existential_variables}
    used.update(v.name for v in bound)
    name = f"_s{len(bound)}"
    while name in used:
        name += "_"
    fresh = Variable(name)
    renamed = [
        _rename_variable_in_cq(cq, variable, fresh)
        for cq, variable in zip(disjuncts, separator)
    ]
    scope = UnionOfConjunctiveQueries(renamed)
    child = _plan_ucq(scope, bound | {fresh}, partial=False)
    return IndependentProject(fresh, scope, child)


def _inclusion_exclusion(
    disjuncts: Sequence[ConjunctiveQuery], bound: FrozenSet[Variable]
) -> SafePlan:
    """``P(∨ᵢ Dᵢ) = Σ_{∅≠S} (−1)^{|S|+1} P(∧_{i∈S} Dᵢ)`` with terms
    minimized and grouped up to equivalence so coefficients cancel; each
    surviving term must itself admit a strict safe plan."""
    k = len(disjuncts)
    if k > MAX_INCLUSION_EXCLUSION:
        raise UnsafeQueryError(
            f"inclusion–exclusion over {k} overlapping disjuncts exceeds "
            f"the budget of {MAX_INCLUSION_EXCLUSION}",
            subquery=UnionOfConjunctiveQueries(disjuncts),
        )
    renamed = [
        rename_cq_apart(cq, f"@{i}", keep=bound)
        for i, cq in enumerate(disjuncts)
    ]
    terms: List[List[object]] = []  # [coefficient, term CQ]
    for size in range(1, k + 1):
        coefficient = 1 if size % 2 == 1 else -1
        for combo in itertools.combinations(range(k), size):
            atoms = [atom for i in combo for atom in renamed[i].atoms]
            term = minimize_cq(ConjunctiveQuery(atoms), fixed=bound)
            for entry in terms:
                if cq_equivalent(entry[1], term, fixed=bound):
                    entry[0] += coefficient
                    break
            else:
                terms.append([coefficient, term])
    signed: List[Tuple[int, SafePlan]] = []
    for coefficient, term in terms:
        if coefficient == 0:
            continue  # cancelled
        signed.append((coefficient, _plan_cq(term, bound, partial=False)))
    if len(signed) == 1 and signed[0][0] == 1:
        return signed[0][1]
    return InclusionExclusion(signed)


# ------------------------------------------------- grouped-execution info
# Side-table annotations for the set-at-a-time executor
# (``repro.finite.lifted``).  Safe plans are data-independent and cached
# per query family, so everything a grouped pass needs per node — probe
# layouts, separator positions, delta-cacheability — is derivable once
# from the plan alone and looked up by node identity at run time.  A
# side table (rather than extra slots on the AST) keeps the plan nodes
# and their pinned ``repr`` untouched.

class GroupedAtom:
    """How one scope atom of an :class:`IndependentProject` constrains
    the separator: which positions the separator occupies, which are
    pinned by constants, and which carry other (possibly enclosing-
    bound) variables."""

    __slots__ = ("atom", "relation", "separator_positions", "constants",
                 "variables")

    def __init__(self, atom: Atom, variable: Variable):
        self.atom = atom
        self.relation = atom.relation
        self.separator_positions = _variable_positions(atom, variable)
        self.constants: Tuple[Tuple[int, object], ...] = tuple(
            (i, t.value)
            for i, t in enumerate(atom.terms)
            if isinstance(t, Constant)
        )
        self.variables: Tuple[Tuple[int, Variable], ...] = tuple(
            (i, t)
            for i, t in enumerate(atom.terms)
            if isinstance(t, Variable) and t != variable
        )


class GroupedProject:
    """Annotation of one :class:`IndependentProject`: the scope atoms of
    each disjunct as :class:`GroupedAtom` layouts, plus whether the node
    may keep a delta-extended binding cache across truncations — sound
    exactly when the separator occurs in *every* scope atom (so a new
    fact can only perturb the candidate value it mentions) and the
    subtree is fully safe."""

    __slots__ = ("variable", "per_disjunct", "cacheable")

    def __init__(
        self,
        variable: Variable,
        per_disjunct: Tuple[Tuple[GroupedAtom, ...], ...],
        cacheable: bool,
    ):
        self.variable = variable
        self.per_disjunct = per_disjunct
        self.cacheable = cacheable


class GroupedLeaf:
    """Annotation of one :class:`FactLeaf`: the full-arity probe layout
    — per position either ``("c", value)`` or ``("v", variable)`` — so a
    grouped pass grounds every binding of the leaf in one signature-
    table sweep."""

    __slots__ = ("atom", "relation", "layout")

    def __init__(self, atom: Atom):
        self.atom = atom
        self.relation = atom.relation
        self.layout: Tuple[Tuple[str, object], ...] = tuple(
            ("c", t.value) if isinstance(t, Constant) else ("v", t)
            for t in atom.terms
        )


def grouped_plan_info(plan: SafePlan) -> Dict[int, object]:
    """The grouped-execution side table of one safe plan, keyed by node
    ``id``.  Valid for the lifetime of the plan object (the compile
    cache owns both and drops them together)."""
    info: Dict[int, object] = {}
    _annotate_plan(plan, info)
    return info


def _annotate_plan(plan: SafePlan, info: Dict[int, object]) -> bool:
    """Fill ``info`` for ``plan``'s subtree; True iff it is fully safe
    (contains no :class:`UnsafeLeaf`)."""
    if isinstance(plan, FactLeaf):
        info[id(plan)] = GroupedLeaf(plan.atom)
        return True
    if isinstance(plan, (IndependentJoin, IndependentUnion)):
        safe = True
        for child in plan.children:
            safe = _annotate_plan(child, info) and safe
        return safe
    if isinstance(plan, InclusionExclusion):
        safe = True
        for _, term in plan.terms:
            safe = _annotate_plan(term, info) and safe
        return safe
    if isinstance(plan, IndependentProject):
        safe = _annotate_plan(plan.child, info)
        subquery = plan.subquery
        disjuncts = (
            subquery.disjuncts
            if isinstance(subquery, UnionOfConjunctiveQueries)
            else (subquery,)
        )
        per_disjunct = tuple(
            tuple(GroupedAtom(atom, plan.variable) for atom in cq.atoms)
            for cq in disjuncts
        )
        cacheable = safe and all(
            grouped.separator_positions
            for atoms in per_disjunct
            for grouped in atoms
        )
        info[id(plan)] = GroupedProject(plan.variable, per_disjunct, cacheable)
        return safe
    # UnsafeLeaf (and anything unknown): no annotation, subtree unsafe.
    return False
