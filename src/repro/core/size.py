"""Size distributions of countable PDBs (paper §3.2) and Example 3.3.

Example 3.3: schema ``τ = {R}`` (unary), universe ℕ; world
``D_n = {R(1), …, R(2^n)}`` has probability ``p_n = 6/(π² n²)``.
Then ``E(S) = Σ 6·2^n/(π² n²) = ∞`` — a countable PDB with infinite
expected instance size, and (via Proposition 4.9) the witness that not
every countable PDB is FO-definable over a tuple-independent one.

Despite ``E(S) = ∞``, eq. (6) holds: ``P(S ≥ n) → 0``, which
:func:`size_tail_probabilities` demonstrates.

Because the worlds ``D_n`` grow exponentially, the Example 3.3 object
overrides the generic world-scanning methods with closed forms; the
generic enumeration is still available (and exercised by tests) for
small n.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.pdb import CountablePDB
from repro.relational.instance import Instance
from repro.relational.schema import Schema

#: Enumerating worlds beyond this index would materialize instances with
#: more than 2^20 facts; the closed-form overrides avoid ever needing to.
_MAX_MATERIALIZED_EXPONENT = 20


class Example33PDB(CountablePDB):
    """The Example 3.3 PDB, with closed-form size statistics.

    >>> pdb = Example33PDB()
    >>> math.isinf(pdb.expected_size())
    True
    >>> pdb.world_probability(1) == 6.0 / math.pi**2
    True
    """

    def __init__(self, schema: Optional[Schema] = None):
        if schema is None:
            schema = Schema.of(R=1)
        self.symbol = schema["R"]
        super().__init__(schema, None, exhaustive=False)

    @staticmethod
    def world_probability(n: int) -> float:
        """``p_n = 6/(π² n²)`` for the world ``D_n``."""
        if n < 1:
            raise ValueError("world index must be positive")
        return 6.0 / (math.pi**2 * n**2)

    def world(self, n: int) -> Instance:
        """``D_n = {R(1), …, R(2^n)}`` (materialized; small n only)."""
        if n > _MAX_MATERIALIZED_EXPONENT:
            raise ValueError(
                f"world {n} has 2^{n} facts; refusing to materialize"
            )
        return Instance(self.symbol(i) for i in range(1, 2**n + 1))

    def _enumerate(self) -> Iterator[Tuple[Instance, float]]:
        for n in itertools.count(1):
            yield self.world(n), self.world_probability(n)

    @staticmethod
    def _mass_tail(worlds_enumerated: int) -> float:
        # Σ_{n > N} 6/(π² n²) ≤ 6/(π² N)  (integral bound).
        if worlds_enumerated <= 0:
            return 1.0
        return 6.0 / (math.pi**2 * worlds_enumerated)

    # ------------------------------------------------------------ closed forms
    def expected_size(self, **_ignored) -> float:
        """``E(S) = Σ 6·2^n/(π² n²) = ∞`` — the terms themselves diverge."""
        return math.inf

    def size_tail(self, n: int, tolerance: float = 1e-9) -> float:
        """``P(S ≥ n) = Σ_{2^m ≥ n} 6/(π² m²)`` in closed form.

        Computed as ``1 − Σ_{m < log₂ n} p_m`` (the complement is a
        short finite sum), demonstrating eq. (6): the tail → 0.
        """
        if n <= 2:  # every world has size 2^m ≥ 2
            return 1.0
        cutoff = math.ceil(math.log2(n))  # smallest m with 2^m >= n
        below = sum(self.world_probability(m) for m in range(1, cutoff))
        return max(0.0, 1.0 - below)

    def partial_expected_size(self, terms: int) -> float:
        """The diverging partial sums ``Σ_{n≤N} 6·2^n/(π² n²)``."""
        return sum(
            self.world_probability(n) * 2**n for n in range(1, terms + 1)
        )

    # ---------------------------------------------------------------- sampling
    def sample_index(self, rng) -> int:
        """Draw the world index n with probability ``p_n`` (closed-form
        inverse transform; no world is materialized)."""
        u = rng.random()
        acc = 0.0
        for n in itertools.count(1):
            acc += self.world_probability(n)
            if u < acc:
                return n

    def sample(self, rng) -> Instance:
        """Draw a world.  Indices beyond 2^20 facts raise (astronomically
        unlikely: ``P(n > 20) ≈ 0.03``... use :meth:`sample_index` for
        size-only statistics)."""
        return self.world(self.sample_index(rng))


def example_3_3_pdb(schema: Optional[Schema] = None) -> Example33PDB:
    """The Example 3.3 PDB with ``E(S_D) = ∞``.

    >>> pdb = example_3_3_pdb()
    >>> math.isinf(pdb.expected_size())
    True
    """
    return Example33PDB(schema)


def example_3_3_partial_expected_size(terms: int) -> float:
    """Module-level convenience for the diverging partial sums.

    >>> example_3_3_partial_expected_size(2) < \
        example_3_3_partial_expected_size(4)
    True
    """
    return Example33PDB().partial_expected_size(terms)


class MomentGapPDB(CountablePDB):
    """Remark 4.10's refinement: ``E(S^j) < ∞`` for j ≤ k but
    ``E(S^{k+1}) = ∞``.

    World ``W_m = {R(1), …, R(m)}`` has probability ``c/m^{k+2}``:
    ``Σ m^k · c/m^{k+2} = c Σ 1/m² < ∞`` while
    ``Σ m^{k+1} · c/m^{k+2} = c Σ 1/m = ∞``.

    >>> pdb = MomentGapPDB(1)
    >>> pdb.moment(1) < float("inf")
    True
    >>> math.isinf(pdb.moment(2))
    True
    """

    def __init__(self, k: int, schema: Optional[Schema] = None, horizon: int = 10**5):
        if k < 1:
            raise ValueError("k must be at least 1")
        if schema is None:
            schema = Schema.of(R=1)
        self.symbol = schema["R"]
        self.k = k
        self._exponent = k + 2
        self._normalizer = sum(
            1.0 / m**self._exponent for m in range(1, horizon)
        )
        super().__init__(schema, None, exhaustive=False)

    def world_probability(self, m: int) -> float:
        return (1.0 / m**self._exponent) / self._normalizer

    def _enumerate(self) -> Iterator[Tuple[Instance, float]]:
        for m in itertools.count(1):
            instance = Instance(self.symbol(i) for i in range(1, m + 1))
            yield instance, self.world_probability(m)

    def _mass_tail(self, worlds_enumerated: int) -> float:
        if worlds_enumerated <= 0:
            return 1.0
        bound = worlds_enumerated ** (1 - self._exponent) / (self._exponent - 1)
        return bound / self._normalizer

    def moment(self, j: int, terms: int = 10**4, threshold: float = 1e9) -> float:
        """``E(S^j)`` by closed-form partial sums (sizes are just m, so
        no worlds are materialized): infinite when j > k."""
        acc = 0.0
        for m in range(1, terms + 1):
            acc += m**j * self.world_probability(m)
            if acc > threshold:
                return math.inf
        # Integral tail bound on the remainder:
        # Σ_{m>T} m^{j-(k+2)} ≤ T^{j-k-1}/(k+1-j) for j < k+1.
        if j >= self.k + 1:
            return math.inf
        return acc

    def expected_size(self, **_ignored) -> float:
        return self.moment(1)


def moment_gap_pdb(k: int, schema: Optional[Schema] = None) -> MomentGapPDB:
    """Factory for :class:`MomentGapPDB` (Remark 4.10)."""
    return MomentGapPDB(k, schema)


def size_tail_probabilities(
    pdb: CountablePDB, thresholds: List[int], tolerance: float = 1e-6
) -> Dict[int, float]:
    """``P(S_D ≥ n)`` for each threshold — eq. (6): tends to 0 even when
    ``E(S) = ∞``.

    >>> tails = size_tail_probabilities(example_3_3_pdb(), [4, 1024])
    >>> tails[4] > tails[1024]
    True
    """
    return {n: pdb.size_tail(n, tolerance=tolerance) for n in thresholds}


def empirical_size_distribution(samples) -> Dict[int, float]:
    """Empirical ``P(S = n)`` from sampled instances.

    >>> from repro.relational import RelationSymbol
    >>> R = RelationSymbol("R", 1)
    >>> empirical_size_distribution([Instance([R(1)]), Instance()])
    {0: 0.5, 1: 0.5}
    """
    counts: Dict[int, int] = {}
    total = 0
    for instance in samples:
        counts[instance.size] = counts.get(instance.size, 0) + 1
        total += 1
    if total == 0:
        return {}
    return {
        size: count / total for size, count in sorted(counts.items())
    }
