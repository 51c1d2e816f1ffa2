"""Countable tuple-independent PDBs — the Theorem 4.8 construction.

Given a family ``(p_f)`` with convergent ``Σ p_f`` (a certified
:class:`~repro.core.fact_distribution.FactDistribution`), the construction
defines, for every finite ``D ⊆ F_ω``,

    P({D}) = Π_{f ∈ D} p_f · Π_{f ∈ F_ω − D} (1 − p_f),

a probability measure (Lemma 4.3) that is tuple-independent with
marginals ``P(E_f) = p_f`` (Lemma 4.4).  Divergent families are rejected
with :class:`~repro.errors.ConvergenceError` — the necessity direction
(Lemma 4.6, via Borel–Cantelli).

The expected instance size is ``Σ p_f < ∞`` (Corollary 4.7), so sampled
instances are almost surely small; sampling flips an independent
Bernoulli coin per support fact and stops when the certified tail mass is
negligible.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Iterator, List, Optional, Tuple

from repro.analysis.products import product_complement
from repro.core.fact_distribution import FactDistribution, TableFactDistribution
from repro.core.pdb import CountablePDB
from repro.errors import ApproximationError, ConvergenceError, ProbabilityError
from repro.finite.tuple_independent import TupleIndependentTable
from repro.relational.facts import Fact
from repro.relational.instance import Instance
from repro.relational.schema import Schema


def _weighted_subsets(
    pairs: List[Tuple[Fact, float]]
) -> Iterator[Tuple[Tuple[Fact, ...], float]]:
    """All subsets of ``pairs`` with weight ``Π_{chosen} p · Π_{rest} (1−p)``.

    Depth-first include/exclude recursion: one multiplication per edge,
    so enumerating all 2^k subsets costs O(2^k) multiplications total.
    """
    if not pairs:
        yield (), 1.0
        return
    fact, p = pairs[-1]
    for facts, weight in _weighted_subsets(pairs[:-1]):
        yield facts, weight * (1.0 - p)
        yield facts + (fact,), weight * p


class CountableTIPDB(CountablePDB):
    """A countable tuple-independent PDB over a certified ``(p_f)``.

    >>> from repro.relational import Schema
    >>> from repro.universe import Naturals, FactSpace
    >>> from repro.core.fact_distribution import GeometricFactDistribution
    >>> schema = Schema.of(R=1)
    >>> space = FactSpace(schema, Naturals())
    >>> pdb = CountableTIPDB(schema, GeometricFactDistribution(
    ...     space, first=0.5, ratio=0.5))
    >>> pdb.marginal(schema["R"](1))
    0.5
    >>> pdb.expected_size()
    1.0
    """

    def __init__(
        self,
        schema: Schema,
        distribution: FactDistribution,
        tolerance: float = 1e-12,
    ):
        if not distribution.convergent:
            raise ConvergenceError(
                "Theorem 4.8: no tuple-independent PDB exists for a "
                "divergent family of fact probabilities "
                f"(Σ p_f = {distribution.total_mass()})"
            )
        self.distribution = distribution
        self.tolerance = tolerance
        super().__init__(schema, None, exhaustive=False)

    # ------------------------------------------------------------ closed forms
    def marginal(self, fact: Fact) -> float:
        """``P(E_f) = p_f`` (Lemma 4.4)."""
        return self.distribution.probability(fact)

    def fact_marginal(self, fact: Fact, tolerance: float = 1e-9) -> float:
        # Closed form; the base class would enumerate worlds.
        return self.marginal(fact)

    def expected_size(self, **_ignored) -> float:
        """``E(S) = Σ p_f`` — finite by Corollary 4.7."""
        return self.distribution.total_mass()

    def size_variance(self, tolerance: float = 1e-12) -> float:
        """``Var(S) = Σ p_f (1 − p_f)`` — the independent-Bernoulli sum.

        Computed over the certified prefix; omitted terms contribute at
        most the remaining tail mass.
        """
        n = self.distribution.prefix_for_tail(tolerance)
        return sum(p * (1.0 - p) for _, p in self.distribution.prefix(n))

    def size_moment(self, k: int, tolerance: float = 1e-12) -> float:
        """``E(S^k)`` for k ∈ {1, 2} in closed form.

        Tuple-independent PDBs have all moments finite; the paper's
        Remark 4.10 gap PDBs are exactly the non-TI side of that coin.
        """
        if k == 1:
            return self.expected_size()
        if k == 2:
            mean = self.expected_size()
            return self.size_variance(tolerance) + mean * mean
        raise ProbabilityError(
            f"closed-form moments implemented for k ≤ 2, got {k}"
        )

    def instance_probability(self, instance: Instance) -> float:
        """The Theorem 4.8 product, with the infinite complement factor
        truncated at certified error ``self.tolerance``."""
        low, high = self.instance_probability_bounds(instance)
        return high  # the truncated product; true value in [low, high]

    def instance_probability_bounds(
        self, instance: Instance
    ) -> Tuple[float, float]:
        """Certified enclosure of ``P({D})``.

        When the distribution provides a closed-form complement product
        (wide-support families) the value is exact:
        ``Π_{f∈D} p_f/(1−p_f) · Π_{all f} (1−p_f)``.  Otherwise the
        truncated product over the first n support facts is an upper
        bound; multiplying by ``1 − tail(n)`` (union bound on the
        remaining complement factors) gives a lower bound.
        """
        present = 1.0
        for fact in instance:
            p = self.marginal(fact)
            if p == 0.0:
                return 0.0, 0.0
            present *= p
        log_complement = self.distribution.log_complement_product()
        # −inf means some fact has p = 1 (the empty-complement product is
        # 0); the odds trick breaks down there, so fall through to the
        # prefix-truncated path, which handles p = 1 factors exactly.
        if log_complement is not None and math.isfinite(log_complement):
            odds = 1.0
            for fact in instance:
                p = self.marginal(fact)
                if p >= 1.0:
                    odds = math.inf
                    break
                odds *= p / (1.0 - p)
            value = odds * math.exp(log_complement)
            return value, value
        n = self.distribution.prefix_for_tail(self.tolerance)
        complement = product_complement(
            p
            for fact, p in self.distribution.prefix(n)
            if fact not in instance
        )
        upper = present * complement
        lower = upper * max(0.0, 1.0 - self.distribution.tail(n))
        return lower, upper

    def empty_world_probability(self) -> float:
        """``P({∅}) = Π (1 − p_f)`` — positive because Σ p_f < ∞ and no
        fact has probability 1 ⟹ used by Theorem 5.5 (``P₁({∅}) > 0``)."""
        return self.instance_probability(Instance())

    # ----------------------------------------------------------- enumeration
    def _enumerate(self) -> Iterator[Tuple[Instance, float]]:
        """Enumerate ``D_ω`` (finite subsets of the support).

        Order: the empty instance, then for k = 1, 2, … all instances
        whose maximal support-index is k−1 (contain fact k−1, plus any
        subset of facts 0..k−2).  Every finite subset of the certified
        prefix appears exactly once; after all instances with max index
        < k the remaining mass is at most ``tail(k)``.

        Masses are computed *incrementally* (suffix complement products
        plus per-subset weights), so enumeration is O(1) multiplications
        per world rather than one full product each.  Facts beyond the
        tolerance prefix carry total mass ≤ ``self.tolerance`` and are
        not enumerated — exactly the slack already present in
        :meth:`instance_probability`.
        """
        n = self._enumeration_prefix()
        pairs = self.distribution.prefix(n)
        # suffix[k] = Π_{j ≥ k} (1 − p_j), truncated at the prefix end.
        suffix = [1.0] * (n + 1)
        for j in range(n - 1, -1, -1):
            suffix[j] = suffix[j + 1] * (1.0 - pairs[j][1])
        yield Instance(), suffix[0]
        for k in range(n):
            fact_k, p_k = pairs[k]
            base = p_k * suffix[k + 1]
            for facts, weight in _weighted_subsets(pairs[:k]):
                yield Instance(facts + (fact_k,)), weight * base

    def _enumeration_prefix(self, cap: int = 10**5) -> int:
        """Support prefix length for world enumeration.

        Ideally the prefix covers all but ``self.tolerance`` of the
        mass; families with slow (e.g. polynomial) tails cannot reach
        that within a reasonable prefix, so the bound backs off
        progressively — the un-enumerated mass is still certified via
        :meth:`_world_mass_tail`, only the coverage is coarser.
        """
        for bound in (self.tolerance, 1e-9, 1e-6, 1e-4, 1e-2):
            try:
                return self.distribution.prefix_for_tail(
                    bound, max_facts=cap)
            except (ApproximationError, ConvergenceError):
                # Budget exhausted at this bound: back off.  Sound here
                # (unlike in the Prop. 6.1 pipeline) because the
                # un-enumerated mass stays certified via
                # :meth:`_world_mass_tail`.
                continue
        return cap

    def _world_mass_tail(self, worlds_enumerated: int) -> float:
        """Certified un-enumerated mass after ``worlds_enumerated``
        worlds: if 2^k ≤ worlds, every instance with max support index
        < k has been emitted, so the rest has mass ≤ tail(k)."""
        if worlds_enumerated <= 0:
            return 1.0
        k = worlds_enumerated.bit_length() - 1  # floor(log2)
        return min(1.0, self.distribution.tail(k))

    _mass_tail = _world_mass_tail

    # ------------------------------------------------------------- truncation
    def truncate(self, n: int) -> TupleIndependentTable:
        """The finite TI table on the first n support facts — the
        bridge to Section 6: this table *is* the conditional
        distribution ``P(· | Ω_n)`` (conditioning a product measure on
        "no fact beyond the first n occurs" leaves the factors on the
        first n facts untouched)."""
        return TupleIndependentTable(self.schema, self.distribution.marginals_dict(n))

    def extend_truncation(self, table: TupleIndependentTable, n: int) -> int:
        """Grow a table produced by :meth:`truncate` to the first ``n``
        support facts *in place* — the result equals ``truncate(n)``
        (same facts, same marginals) without rebuilding the reused
        prefix.  Returns the number of facts reused (the table's prior
        size)."""
        reused = len(table)
        if n > reused:
            table.extend(
                dict(self.distribution.prefix_cache().pairs(reused, n)))
        return reused

    def truncation_for_epsilon(self, epsilon: float) -> int:
        """Delegates to the Proposition 6.1 truncation-size rule."""
        from repro.core.approx import choose_truncation

        return choose_truncation(self.distribution, epsilon)

    def omega_n_probability(self, n: int) -> float:
        """``P(Ω_n)``: no support fact beyond the first n occurs —
        ``Π_{i>n} (1 − p_i)``, truncated at certified error."""
        budget = self.distribution.prefix_for_tail(self.tolerance)
        extent = max(budget, n)
        probabilities = [
            p for _, p in self.distribution.prefix(extent)[n:]
        ]
        return product_complement(probabilities)

    # ---------------------------------------------------------------- sampling
    def sample(self, rng: random.Random, tolerance: float = 1e-9) -> Instance:
        """Independent Bernoulli per support fact, stopping once the
        remaining tail mass is below ``tolerance`` (the omitted facts
        jointly occur with probability ≤ tolerance)."""
        n = self.distribution.prefix_for_tail(tolerance)
        facts = [
            fact
            for fact, p in self.distribution.prefix(n)
            if rng.random() < p
        ]
        return Instance(facts)

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_marginals(
        cls, schema: Schema, marginals, tolerance: float = 1e-12
    ) -> "CountableTIPDB":
        """Finite-support convenience constructor.

        >>> schema = Schema.of(R=1)
        >>> R = schema["R"]
        >>> pdb = CountableTIPDB.from_marginals(schema, {R(1): 0.5})
        >>> round(pdb.instance_probability(Instance([R(1)])), 6)
        0.5
        """
        return cls(schema, TableFactDistribution(marginals), tolerance=tolerance)

    def __repr__(self) -> str:
        return (
            f"CountableTIPDB(expected_size={self.expected_size():.4g}, "
            f"schema={self.schema!r})"
        )
