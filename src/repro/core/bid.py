"""Countable block-independent-disjoint PDBs — the Theorem 4.15
construction (via Proposition 4.13).

Facts are partitioned into countably many blocks; within a block facts
are mutually exclusive (with remainder mass ``p_⊥^B = 1 − Σ_{f∈B} p_f``
on "no fact of this block"), across blocks independent.  The instance
probability of a *good* instance D (at most one fact per block) is

    P({D}) = Π_B p^B_{β(B, D)}

(bad instances get 0), and the measure exists iff ``Σ_B Σ_{f∈B} p^B_f``
converges (Theorem 4.15) — divergent specifications are rejected.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.products import product_complement
from repro.analysis.series import geometric_tail, upward_suffix_sums
from repro.core.pdb import CountablePDB
from repro.core.prefix_cache import PrefixCache
from repro.errors import ApproximationError, ConvergenceError, ProbabilityError
from repro.finite.bid import Block, BlockIndependentTable
from repro.relational.facts import Fact
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.utils.rationals import add_up


class BlockFamily:
    """A countable family of blocks with a certified mass tail.

    Parameters
    ----------
    enumerate_blocks:
        Zero-argument callable yielding :class:`Block` objects with
        globally disjoint fact sets, fixed order.
    tail:
        ``tail(n)`` bounds ``Σ`` of the total alternative mass of blocks
        after the first n; must tend to 0 for convergent families.
    total_mass:
        ``Σ_B Σ_{f∈B} p_f`` if known (``math.inf`` for divergent).
    """

    def __init__(
        self,
        enumerate_blocks: Callable[[], Iterator[Block]],
        tail: Callable[[int], float],
        total_mass: Optional[float] = None,
    ):
        self._enumerate = enumerate_blocks
        self._tail = tail
        self._total = total_mass
        self._cache: Optional[PrefixCache] = None
        # Incremental fact → block index over the materialized prefix.
        self._fact_index: Dict[Fact, Block] = {}
        self._fact_index_upto = 0

    def __getstate__(self):
        """Drop the prefix cache (it holds a live generator) and the
        lazy fact→block index derived from it; peers re-materialize
        their own prefix on demand — the same discipline as
        :meth:`repro.core.fact_distribution.FactDistribution.__getstate__`."""
        state = dict(self.__dict__)
        state["_cache"] = None
        state["_fact_index"] = {}
        state["_fact_index_upto"] = 0
        return state

    @classmethod
    def finite(cls, blocks: Sequence[Block]) -> "BlockFamily":
        """A finitely supported family.

        >>> from repro.relational import RelationSymbol
        >>> R = RelationSymbol("R", 1)
        >>> family = BlockFamily.finite([Block("b", {R(1): 0.5})])
        >>> family.total_mass()
        0.5
        """
        blocks = list(blocks)
        masses = [sum(b.alternatives.values()) for b in blocks]
        # Certified block tails: every addition rounded up (the block
        # masses themselves are rounded up the same way).
        suffix = upward_suffix_sums([
            functools.reduce(add_up, b.alternatives.values(), 0.0)
            for b in blocks
        ])
        total = 0.0
        for mass in reversed(masses):
            total += mass
        return cls(
            lambda: iter(blocks),
            lambda n: suffix[min(n, len(blocks))],
            total_mass=total,
        )

    @classmethod
    def geometric(
        cls,
        make_block: Callable[[int], Block],
        block_mass: Callable[[int], float],
        first: float,
        ratio: float,
    ) -> "BlockFamily":
        """Countably many blocks where block i (i ≥ 0) has total
        alternative mass ``block_mass(i) ≤ first · ratio^i``."""
        if not 0 <= ratio < 1:
            raise ConvergenceError(f"ratio must be in [0, 1), got {ratio}")

        def enumerate_blocks() -> Iterator[Block]:
            for i in itertools.count():
                yield make_block(i)

        tail = geometric_tail(first, ratio)  # rounded outward

        return cls(enumerate_blocks, tail, total_mass=None)

    def blocks(self) -> Iterator[Block]:
        return self._enumerate()

    def prefix_cache(self) -> PrefixCache:
        """The family's materialized block prefix: pairs each enumerated
        block with its total alternative mass, shared by every
        ``prefix``/``prefix_for_tail``/``total_mass`` call and by the
        refinement session."""
        if self._cache is None:
            self._cache = PrefixCache(
                (
                    (block, sum(block.alternatives.values()))
                    for block in self._enumerate()
                ),
                self._tail,
            )
        return self._cache

    def tail(self, n: int) -> float:
        return self._tail(n)

    def total_mass(self) -> float:
        if self._total is not None:
            return self._total
        cache = self.prefix_cache()
        try:
            n = cache.smallest_prefix_for_tail(
                1e-12, 10**6, budget_name="max_blocks", what="block ")
        except ApproximationError:
            # The certified tail never stabilizes within the budget; a
            # finite enumeration that simply ends first still has an
            # exact sum.
            n = cache.extend_to(10**6)
            if not cache.exhausted:
                raise ConvergenceError("block mass sum did not stabilize")
        self._total = cache.cumulative_mass(n)
        return self._total

    @property
    def convergent(self) -> bool:
        try:
            return math.isfinite(self.total_mass()) and math.isfinite(
                self.tail(0)
            )
        except ConvergenceError:
            return False

    def prefix(self, n: int) -> List[Block]:
        """The first n blocks, served from the shared
        :meth:`prefix_cache` materialization."""
        return self.prefix_cache().items(n)

    def prefix_for_tail(self, bound: float, max_blocks: int = 10**6) -> int:
        """Smallest n with ``tail(n) ≤ bound`` — exponential probe +
        bisection over the memoized certified tails (bit-exact vs a
        linear scan because the tail is non-increasing).

        Exhausting ``max_blocks`` raises
        :class:`~repro.errors.ApproximationError` with the achieved tail
        mass — the same certification guard as
        :meth:`repro.core.fact_distribution.FactDistribution.prefix_for_tail`,
        protecting ``approximate_query_probability_bid``'s ``max_blocks``
        path from returning an uncertified block truncation.
        """
        return self.prefix_cache().smallest_prefix_for_tail(
            bound, max_blocks, budget_name="max_blocks", what="block ")

    def _indexed_block_of(self, fact: Fact) -> Optional[Block]:
        """O(1) lookup over the already-materialized prefix (the index
        catches up lazily with the cache)."""
        if self._cache is None:
            return None
        blocks = self._cache.materialized_items()
        while self._fact_index_upto < len(blocks):
            block = blocks[self._fact_index_upto]
            for known in block.alternatives:
                self._fact_index[known] = block
            self._fact_index_upto += 1
        return self._fact_index.get(fact)

    def block_of(self, fact: Fact, max_blocks: int = 10**5) -> Optional[Block]:
        """The block containing ``fact``: constant-time over the
        materialized prefix, bounded transient scan beyond it."""
        found = self._indexed_block_of(fact)
        if found is not None:
            return found
        skip = self._fact_index_upto
        for block in itertools.islice(self.blocks(), skip, max_blocks):
            if fact in block.alternatives:
                return block
        return None


def _weighted_block_choices(
    blocks: List[Block],
) -> Iterator[Tuple[Tuple[Fact, ...], float]]:
    """All good combinations over ``blocks`` (one alternative or ⊥ per
    block), with weight ``Π p_{choice}``.  One multiplication per edge.
    """
    if not blocks:
        yield (), 1.0
        return
    block = blocks[-1]
    for facts, weight in _weighted_block_choices(blocks[:-1]):
        yield facts, weight * block.bottom_mass
        for fact in block.facts():
            yield facts + (fact,), weight * block.alternatives[fact]


class CountableBIDPDB(CountablePDB):
    """A countable BID PDB over a certified block family.

    >>> from repro.relational import Schema
    >>> schema = Schema.of(R=2)
    >>> R = schema["R"]
    >>> family = BlockFamily.finite([
    ...     Block("k1", {R(1, 1): 0.5, R(1, 2): 0.5}),
    ...     Block("k2", {R(2, 1): 0.25}),
    ... ])
    >>> pdb = CountableBIDPDB(schema, family)
    >>> round(pdb.instance_probability(Instance([R(1, 1)])), 10)
    0.375
    >>> pdb.instance_probability(Instance([R(1, 1), R(1, 2)]))  # bad
    0.0
    """

    def __init__(
        self,
        schema: Schema,
        family: BlockFamily,
        tolerance: float = 1e-12,
    ):
        if not family.convergent:
            raise ConvergenceError(
                "Theorem 4.15: no block-independent-disjoint PDB exists "
                "for a divergent family of block masses"
            )
        self.family = family
        self.tolerance = tolerance
        super().__init__(
            schema,
            self._enumerate_worlds,
            exhaustive=False,
            mass_tail=self._world_mass_tail,
        )

    # ------------------------------------------------------------ closed forms
    def marginal(self, fact: Fact) -> float:
        """``P(E_f) = p_f`` within its block."""
        block = self.family.block_of(fact)
        if block is None:
            return 0.0
        return block.probability(fact)

    def fact_marginal(self, fact: Fact, tolerance: float = 1e-9) -> float:
        return self.marginal(fact)

    def expected_size(self, **_ignored) -> float:
        """``Σ_B Σ_f p_f`` — finite by the Lemma 4.14 criterion."""
        return self.family.total_mass()

    def instance_probability(self, instance: Instance) -> float:
        """The Proposition 4.13 product; 0 for bad instances."""
        n = self.family.prefix_for_tail(self.tolerance)
        blocks = self.family.prefix(n)
        block_index: Dict[str, Block] = {b.name: b for b in blocks}
        chosen: Dict[str, Fact] = {}
        for fact in instance:
            owner = None
            for block in blocks:
                if fact in block.alternatives:
                    owner = block
                    break
            if owner is None:
                # Fact not in any enumerated block: impossible (or in the
                # far tail with mass ≤ tolerance); treat as impossible.
                return 0.0
            if owner.name in chosen:
                return 0.0  # two facts from the same block: bad instance
            chosen[owner.name] = fact
        product = 1.0
        for block in blocks:
            product *= block.probability(chosen.get(block.name))
            if product == 0.0:
                return 0.0
        return product

    # ------------------------------------------------------------ enumeration
    def _enumerate_worlds(self) -> Iterator[Tuple[Instance, float]]:
        """Good instances ordered by the maximal block index they touch.

        For k = 0, 1, …: all good instances whose highest-indexed
        touched block is block k (one alternative from block k, one or
        none from each earlier block).  Masses are built incrementally:
        suffix ⊥-products for the untouched later blocks, per-choice
        weights for the earlier ones.  Blocks beyond the tolerance
        prefix carry total mass ≤ ``self.tolerance``.
        """
        n = self._enumeration_prefix()
        blocks = self.family.prefix(n)
        # suffix[k] = Π_{j ≥ k} p_⊥(block j) over the prefix.
        suffix = [1.0] * (n + 1)
        for j in range(n - 1, -1, -1):
            suffix[j] = suffix[j + 1] * blocks[j].bottom_mass
        yield Instance(), suffix[0]
        for k in range(n):
            block_k = blocks[k]
            for fact_k in block_k.facts():
                base = block_k.alternatives[fact_k] * suffix[k + 1]
                for facts, weight in _weighted_block_choices(blocks[:k]):
                    yield Instance(facts + (fact_k,)), weight * base

    def _enumeration_prefix(self, cap: int = 10**4) -> int:
        """Block prefix length for world enumeration, with progressive
        back-off for slowly converging families (cf. the TI analogue)."""
        for bound in (self.tolerance, 1e-9, 1e-6, 1e-4, 1e-2):
            try:
                return self.family.prefix_for_tail(bound, max_blocks=cap)
            except (ApproximationError, ConvergenceError):
                # Back off on budget exhaustion; the un-enumerated mass
                # stays certified via :meth:`_world_mass_tail`.
                continue
        return cap

    def _world_mass_tail(self, worlds_enumerated: int) -> float:
        """After ``Π_{j<k} (|block_j| + 1)`` worlds, every instance with
        max block index < k has been emitted, so the rest has mass at
        most ``family.tail(k)``.  Uses the true per-block choice counts
        (blocks are not binary, unlike the TI case)."""
        if worlds_enumerated <= 0:
            return 1.0
        if not hasattr(self, "_cumulative_counts"):
            counts = [1]
            for block in self.family.prefix(self._enumeration_prefix()):
                counts.append(counts[-1] * (len(block) + 1))
            self._cumulative_counts = counts
        covered = 0
        for k, needed in enumerate(self._cumulative_counts):
            if worlds_enumerated >= needed:
                covered = k
            else:
                break
        return min(1.0, self.family.tail(covered))

    # ------------------------------------------------------------- truncation
    def truncate(self, n_blocks: int) -> BlockIndependentTable:
        """Finite BID table over the first ``n_blocks`` blocks."""
        return BlockIndependentTable(self.schema, self.family.prefix(n_blocks))

    def extend_truncation(
        self, table: BlockIndependentTable, n_blocks: int
    ) -> int:
        """Grow a table produced by :meth:`truncate` to the first
        ``n_blocks`` blocks *in place* — the result equals
        ``truncate(n_blocks)`` (same blocks, same order) without
        rebuilding the reused prefix.  Returns the number of blocks
        reused (the table's prior size)."""
        reused = len(table.blocks)
        if n_blocks > reused:
            table.extend(
                block
                for block, _ in self.family.prefix_cache().pairs(
                    reused, n_blocks)
            )
        return reused

    # ---------------------------------------------------------------- sampling
    def sample(self, rng: random.Random, tolerance: float = 1e-9) -> Instance:
        """One independent choice per block (alternative or ⊥), stopping
        when the remaining blocks' mass is below ``tolerance``."""
        n = self.family.prefix_for_tail(tolerance)
        facts = []
        for block in self.family.prefix(n):
            fact = block.sample(rng)
            if fact is not None:
                facts.append(fact)
        return Instance(facts)

    def __repr__(self) -> str:
        return f"CountableBIDPDB(schema={self.schema!r})"
