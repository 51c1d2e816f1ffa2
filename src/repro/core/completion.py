"""Completions of probabilistic databases (Section 5).

A *completion* of a PDB ``D`` with sample space ``Ω ⊊ D[τ, U]`` is a PDB
``D′`` on all of ``D[τ, U]`` with ``P′(Ω) > 0`` satisfying the completion
condition ``P′(A | Ω) = P(A)`` (Definition 5.1).  Theorem 5.5 constructs
an *independent-fact* completion from any summable family of open-world
probabilities ``p_f ∈ [0, 1)`` on the new facts ``F[τ, U] − F(D)``: the
completion is the product

    P′({D ⊎ C}) = P({D}) · P₁({C})

of the original PDB and the Theorem 4.8 tuple-independent PDB ``P₁`` on
the new facts.  :class:`CompletedPDB` implements exactly that product.

A TI or BID original stays a table: conditioned on ``Ω_n`` (no new
fact beyond the first n) the product is that table plus the first n new
facts (Remark 5.6), which every table engine evaluates.  Only explicit,
possibly correlated worlds are multiplied out world by world.

Also here: the closed-world "completion" (Remark 5.2), the closure
extension with mass ``c`` for originals whose sample space is not closed
under subsets/union, and the completion-condition verifier.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

from repro.core.fact_distribution import (
    FactDistribution,
    FilteredFactDistribution,
    TableFactDistribution,
)
from repro.core.pdb import CountablePDB
from repro.core.tuple_independent import CountableTIPDB
from repro.errors import CompletionError, ProbabilityError
from repro.finite.bid import Block, BlockIndependentTable
from repro.finite.pdb import FinitePDB
from repro.finite.tuple_independent import TupleIndependentTable
from repro.relational.facts import Fact
from repro.relational.instance import Instance
from repro.utils.enumeration import diagonal_product
from repro.utils.iteration import powerset

OriginalPDB = Union[FinitePDB, TupleIndependentTable, BlockIndependentTable]


class CompletedPDB(CountablePDB):
    """The Theorem 5.5 product completion ``P′ = P × P₁``.

    ``original`` is the finite PDB as given: a TI or BID table, or
    explicit worlds; ``new_facts`` a countable tuple-independent PDB
    whose support is disjoint from the original facts and contains no
    probability-1 fact (else ``P′(Ω) = 0`` and the completion condition
    is ill-defined).  It truncates and grows its truncation like a
    :class:`~repro.core.tuple_independent.CountableTIPDB`, with n
    counting new facts.
    """

    def __init__(self, original: OriginalPDB, new_facts: CountableTIPDB):
        self.original = original
        self.new_facts = new_facts
        self.original_facts = frozenset(original.facts())
        overlap = [
            fact
            for fact, _ in new_facts.distribution.prefix(
                _safe_prefix(new_facts.distribution)
            )
            if fact in self.original_facts
        ]
        if overlap:
            raise CompletionError(
                f"new-fact distribution overlaps F(D): {overlap[:3]}"
            )
        if isinstance(original, BlockIndependentTable) and any(
            block.name.startswith(NEW_BLOCK_PREFIX)
            for block in original.blocks
        ):
            raise CompletionError(
                f"block names starting {NEW_BLOCK_PREFIX!r} collide with "
                "the new facts' singleton blocks")
        empty_mass = new_facts.empty_world_probability()
        if empty_mass <= 0:
            raise CompletionError(
                "P₁({∅}) = 0: some new fact has probability 1, "
                "so P′(Ω) = 0 and no completion exists"
            )
        self._p1_empty = empty_mass
        super().__init__(original.schema, None, exhaustive=False)

    # --------------------------------------------------------------- measure
    def decompose(self, instance: Instance) -> Tuple[Instance, Instance]:
        """The unique split ``D′ = D ⊎ C`` into original and new parts."""
        original_part = Instance(
            fact for fact in instance if fact in self.original_facts
        )
        new_part = instance - original_part
        return original_part, new_part

    def instance_probability(self, instance: Instance) -> float:
        """``P′({D ⊎ C}) = P({D}) · P₁({C})``."""
        original_part, new_part = self.decompose(instance)
        base = self.original.instance_probability(original_part)
        if base == 0.0:
            return 0.0
        return base * self.new_facts.instance_probability(new_part)

    def fact_marginal(self, fact: Fact, tolerance: float = 1e-9) -> float:
        """``P′(E_f)``: the original marginal for original facts, the
        open-world probability for new facts (product independence)."""
        if fact in self.original_facts:
            return self.original.marginal(fact)
        return self.new_facts.marginal(fact)

    def original_space_probability(self) -> float:
        """``P′(Ω) = P₁({∅}) > 0`` (eq. (11) territory)."""
        return self._p1_empty

    def conditioned_on_original(self, instance: Instance) -> float:
        """``P′({D} | Ω)`` — the left side of the completion condition."""
        if not instance.facts <= self.original_facts:
            return 0.0
        return self.instance_probability(instance) / self._p1_empty

    def expected_size(self, **_ignored) -> float:
        """``E(S′) = E(S) + Σ_{new f} p_f`` (independent sum)."""
        return self.original.expected_size() + self.new_facts.expected_size()

    def sample(self, rng: random.Random) -> Instance:
        """One draw of the product: a world of the original united with
        an independent draw of the new facts, with no world
        enumeration."""
        return self.original.sample(rng) | self.new_facts.sample(rng)

    # ------------------------------------------------------------ enumeration
    def _enumerate(self) -> Iterator[Tuple[Instance, float]]:
        # Exhaustive by definition, so a table original is expanded.
        pairs = diagonal_product(
            self.original.expand().worlds.items(), self.new_facts.worlds())
        for (original_world, base), (new_world, extra) in pairs:
            yield original_world | new_world, base * extra

    # ------------------------------------------------------------- truncation
    def truncate(self, n: int) -> OriginalPDB:
        """The finite PDB conditioned on "no new fact beyond the first n
        occurs".

        Because ``P′`` is a product measure, this conditional is again a
        product: the original times the first n new facts, each
        independent (Remark 5.6).  A TI original gives the TI table of
        its facts followed by the first n new facts; a BID original, its
        blocks followed by one singleton block per new fact.  Explicit
        worlds are multiplied out with every subset of the new facts.
        """
        original = self.original
        if isinstance(original, TupleIndependentTable):
            marginals = dict(original.marginals)
            marginals.update(self.new_facts.distribution.marginals_dict(n))
            return TupleIndependentTable(self.schema, marginals)
        if isinstance(original, BlockIndependentTable):
            return BlockIndependentTable(
                self.schema, original.blocks + self._new_blocks(0, n))
        new_part = self.new_facts.truncate(n).expand()
        worlds: Dict[Instance, float] = {}
        for original_world, base in original.worlds.items():
            for extra_world in new_part.instances():
                combined = original_world | extra_world
                mass = base * new_part.probability_of(extra_world)
                if mass > 0:
                    worlds[combined] = worlds.get(combined, 0.0) + mass
        return FinitePDB(self.schema, worlds)

    def extend_truncation(
        self, table: Union[TupleIndependentTable, BlockIndependentTable],
        n: int,
    ) -> int:
        """Grow a table produced by :meth:`truncate` to the first ``n``
        new facts *in place*, equal to ``truncate(n)``; returns the
        number of new facts it already held.  A world product does not
        grow: :meth:`truncate` rebuilds it."""
        original = self.original
        if isinstance(original, FinitePDB):
            raise CompletionError(
                "an explicit-world truncation is rebuilt, not extended")
        if isinstance(original, BlockIndependentTable):
            held = len(table.blocks) - len(original.blocks)
            if n > held:
                table.extend(self._new_blocks(held, n))
            return held
        held = len(table) - len(original)
        if n > held:
            table.extend(dict(
                self.new_facts.distribution.prefix_cache().pairs(held, n)))
        return held

    def _new_blocks(self, start: int, stop: int) -> Tuple[Block, ...]:
        """New facts ``start..stop-1`` as singleton blocks, each named
        after its position in the new-fact enumeration."""
        pairs = self.new_facts.distribution.prefix_cache().pairs(start, stop)
        return tuple(
            Block(f"{NEW_BLOCK_PREFIX}{index}", {fact: probability})
            for index, (fact, probability) in enumerate(pairs, start)
        )

    def approximate_query_probability(self, query, epsilon: float):
        """Proposition 6.1 applied to the completion; see
        :func:`repro.core.approx.approximate_query_probability_completed`."""
        from repro.core.approx import approximate_query_probability_completed

        return approximate_query_probability_completed(query, self, epsilon)

    def approximate_conditional_probability(
        self, query, evidence, epsilon: float
    ) -> float:
        """``P′(Q | E)`` for Boolean query and evidence, approximated by
        the ratio of two truncation evaluations.

        The additive ε guarantees on numerator and denominator propagate
        to the ratio as long as ``P′(E)`` is not tiny; callers should
        pick ε ≪ their estimate of ``P′(E)``.  The result is clamped to
        ``[0, 1]``.
        """
        joint_formula = query.formula & evidence.formula
        from repro.logic.queries import BooleanQuery as _BQ

        joint = _BQ(joint_formula, self.schema, name="joint")
        numerator = self.approximate_query_probability(joint, epsilon).value
        denominator = self.approximate_query_probability(
            evidence, epsilon).value
        if denominator <= 0.0:
            raise ProbabilityError(
                "evidence probability ≈ 0 at this truncation; "
                "decrease epsilon or check the evidence"
            )
        return min(1.0, max(0.0, numerator / denominator))

    def __repr__(self) -> str:
        return (
            f"CompletedPDB(original={self.original!r}, "
            f"new_expected={self.new_facts.expected_size():.4g})"
        )


#: A completed BID original keeps new fact i in a singleton block of
#: this name plus i; its own block names must not start so.
NEW_BLOCK_PREFIX = "new fact "


def _safe_prefix(distribution: FactDistribution, bound: float = 1e-9) -> int:
    """A prefix length covering all but negligible new-fact mass, capped
    to keep overlap checks cheap."""
    try:
        return min(distribution.prefix_for_tail(bound, max_facts=10**5), 10**4)
    except Exception:
        return 10**3


def complete(
    original: OriginalPDB,
    new_fact_distribution: FactDistribution,
    tolerance: float = 1e-12,
) -> CompletedPDB:
    """Build the Theorem 5.5 independent-fact completion.

    The distribution is automatically restricted to facts outside
    ``F(D)`` and checked for probability-1 facts.  The original is kept
    as given: a TI or BID table stays a table, which its truncations
    extend (Remark 5.6), and explicit worlds stay explicit.

    >>> from repro.relational import Schema
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> original = TupleIndependentTable(schema, {R(1): 0.8})
    >>> completed = complete(original, TableFactDistribution({R(2): 0.5}))
    >>> round(completed.fact_marginal(R(2)), 10)
    0.5
    >>> round(completed.conditioned_on_original(Instance([R(1)])), 10)
    0.8
    """
    filtered = FilteredFactDistribution.excluding(
        new_fact_distribution, frozenset(original.facts())
    )
    # Probability-1 facts would zero out P′(Ω).  A declared bound < 1
    # settles it outright; otherwise every fact past the prefix where
    # tail < 1 has p < 1, so only that prefix needs checking.
    declared_bound = filtered.max_probability()
    if declared_bound is not None and declared_bound >= 1.0:
        raise CompletionError(
            "new-fact distribution admits probability-1 facts; "
            "completion would assign P′(Ω) = 0"
        )
    if declared_bound is None:
        prefix_length = filtered.prefix_for_tail(0.999999, max_facts=10**6)
        for fact, probability in filtered.prefix(prefix_length):
            if probability >= 1.0:
                raise CompletionError(
                    f"new fact {fact} has probability 1; completion would "
                    "assign P′(Ω) = 0"
                )
    new_pdb = CountableTIPDB(original.schema, filtered, tolerance=tolerance)
    return CompletedPDB(original, new_pdb)


def open_world(
    original: OriginalPDB,
    universe=None,
    total_open_mass: float = 0.5,
    decay: float = 0.5,
    position_universes=None,
    tolerance: float = 1e-12,
) -> CompletedPDB:
    """One-call open-world semantics for a finite PDB.

    Completes ``original`` (Theorem 5.5) with a geometric family over
    its fact space: the i-th unseen fact gets probability
    ``total_open_mass · (1 − decay) · decay^i`` — so the open-world
    probabilities are "bounded by the summands of a fixed convergent
    series" (paper §5.1) with total new expected size at most
    ``total_open_mass``.

    ``universe`` defaults to ℕ; pass ``position_universes`` for typed
    relations (Example 5.7 shapes).

    >>> from repro.relational import Schema
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> completed = open_world(
    ...     TupleIndependentTable(schema, {R(1): 0.9}),
    ...     total_open_mass=0.25)
    >>> 0 < completed.fact_marginal(R(2)) < 0.25
    True
    >>> completed.new_facts.expected_size() <= 0.25
    True
    """
    from repro.core.fact_distribution import GeometricFactDistribution
    from repro.universe.factspace import FactSpace
    from repro.universe.naturals import Naturals

    if not 0 < total_open_mass:
        raise CompletionError(
            f"total open mass must be positive, got {total_open_mass}")
    if not 0 < decay < 1:
        raise CompletionError(f"decay must be in (0, 1), got {decay}")
    if universe is None:
        universe = Naturals()
    space = FactSpace(
        original.schema, universe, position_universes=position_universes)
    first = total_open_mass * (1.0 - decay)
    if first >= 1.0:
        raise CompletionError(
            "total_open_mass · (1 − decay) must stay below 1 (no fact "
            "may have probability ≥ 1)")
    distribution = GeometricFactDistribution(space, first=first, ratio=decay)
    return complete(original, distribution, tolerance=tolerance)


def closed_world_completion(original: OriginalPDB) -> CompletedPDB:
    """Remark 5.2: the closed-world assumption as the completion that
    assigns probability 0 to every new instance.

    >>> from repro.relational import Schema
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> cwa = closed_world_completion(
    ...     TupleIndependentTable(schema, {R(1): 0.8}))
    >>> cwa.fact_marginal(R(2))
    0.0
    >>> cwa.original_space_probability()
    1.0
    """
    return complete(original, TableFactDistribution({}))


def extend_to_closure(
    original: FinitePDB,
    c: float,
    missing_weights: Optional[Mapping[Instance, float]] = None,
) -> FinitePDB:
    """The Section 5 closure trick for originals whose sample space is
    not closed under subsets/union.

    Builds a PDB over *all* subsets of ``F(D)`` with
    ``P({D}) = c · P₀({D})`` for original instances and total mass
    ``1 − c`` on the missing instances (uniform unless
    ``missing_weights`` specifies otherwise).

    >>> from repro.relational import Schema
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> pdb = FinitePDB(schema, {Instance([R(1), R(2)]): 1.0})
    >>> extended = extend_to_closure(pdb, c=0.5)
    >>> round(extended.probability_of(Instance([R(1), R(2)])), 10)
    0.5
    >>> len(extended)   # all 4 subsets of {R(1), R(2)}
    4
    """
    if not 0 < c <= 1:
        raise CompletionError(f"closure mass c must be in (0, 1], got {c}")
    all_facts = sorted(original.facts())
    if len(all_facts) > 20:
        raise CompletionError(
            f"closure over {len(all_facts)} facts would materialize "
            f"{2 ** len(all_facts)} instances"
        )
    every_subset = [Instance(s) for s in powerset(all_facts)]
    missing = [
        instance for instance in every_subset if instance not in original.worlds
    ]
    if not missing and c < 1:
        raise CompletionError(
            "original is already closed; use c = 1 (no mass to move)"
        )
    worlds: Dict[Instance, float] = {
        instance: c * mass for instance, mass in original.worlds.items()
    }
    remaining = 1.0 - c
    if missing:
        if missing_weights is None:
            share = remaining / len(missing)
            for instance in missing:
                worlds[instance] = worlds.get(instance, 0.0) + share
        else:
            weight_total = sum(missing_weights.get(i, 0.0) for i in missing)
            if weight_total <= 0 and remaining > 0:
                raise CompletionError("missing_weights assign no mass")
            for instance in missing:
                weight = missing_weights.get(instance, 0.0)
                if weight > 0:
                    worlds[instance] = (
                        worlds.get(instance, 0.0)
                        + remaining * weight / weight_total
                    )
    return FinitePDB(original.schema, worlds)


def verify_completion_condition(
    completed: CompletedPDB,
    tolerance: float = 1e-9,
) -> float:
    """Exhaustively check ``P′({D} | Ω) = P({D})`` over all original
    worlds; returns the largest absolute violation (should be ≈ 0, up to
    the truncation tolerance of the infinite complement product).

    >>> from repro.relational import Schema
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> completed = complete(TupleIndependentTable(schema, {R(1): 0.8}),
    ...                      TableFactDistribution({R(2): 0.5}))
    >>> verify_completion_condition(completed) < 1e-9
    True
    """
    worst = 0.0
    for instance, mass in completed.original.expand().worlds.items():
        conditional = completed.conditioned_on_original(instance)
        worst = max(worst, abs(conditional - mass))
    if worst > tolerance:
        raise CompletionError(
            f"completion condition violated by {worst:.3g} > {tolerance}"
        )
    return worst
