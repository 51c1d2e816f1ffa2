"""Families of fact probabilities ``(p_f)`` with convergence certificates.

A :class:`FactDistribution` is the interface Proposition 6.1 assumes:

  (i)  the expected instance size ``E(S) = Σ_f p_f`` is known (exactly or
       via a certified tail bound), and
  (ii) given a fact ``f``, its probability ``p_f`` can be queried.

Additionally the support ``F_ω = {f : p_f > 0}`` is *enumerable* in a
fixed order, with ``tail(n)`` a certified upper bound on the probability
mass of facts after the first n enumerated ones — the handle the
truncation algorithm turns into an ε-guarantee.

Theorem 4.8 in code: :class:`repro.core.tuple_independent.CountableTIPDB`
accepts exactly those distributions whose total mass is finite; the
deliberately divergent :class:`DivergentFactDistribution` exists to
exercise the rejection path.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.analysis.series import SeriesCertificate, upward_suffix_sums
from repro.core.prefix_cache import PrefixCache
from repro.errors import ConvergenceError, ProbabilityError
from repro.relational.facts import Fact
from repro.universe.factspace import FactSpace
from repro.utils.enumeration import interleave
from repro.utils.rationals import (
    add_up,
    is_probability,
    probability_error,
    round_up,
)


class FactDistribution:
    """Abstract family ``(p_f)`` over a countable fact space."""

    def support(self) -> Iterator[Fact]:
        """Enumerate ``F_ω`` (facts with ``p_f > 0``), fixed order."""
        raise NotImplementedError

    def probability(self, fact: Fact) -> float:
        """``p_f``; 0 for facts outside the support (oracle (ii))."""
        raise NotImplementedError

    def tail(self, n: int) -> float:
        """Certified upper bound on ``Σ`` of probabilities of support
        facts after the first n enumerated ones."""
        raise NotImplementedError

    def total_mass(self) -> float:
        """``Σ_f p_f`` — the expected instance size (oracle (i)).

        ``math.inf`` signals a (deliberately) divergent family.
        """
        raise NotImplementedError

    def log_complement_product(self) -> Optional[float]:
        """``log Π_{f ∈ F_ω} (1 − p_f)`` in closed form, if available.

        Wide-support distributions (e.g. word-length decay over large
        alphabets, where a single "level" holds ``|Σ|^ℓ`` facts) cannot
        evaluate the complement product by enumerating a prefix; they
        override this hook with an analytic evaluation, and
        :class:`~repro.core.tuple_independent.CountableTIPDB` uses it
        for exact instance probabilities.  Default: None (use the
        prefix-truncated product).
        """
        return None

    def max_probability(self) -> Optional[float]:
        """An upper bound on every individual ``p_f``, if known.

        Lets completions (Theorem 5.5) certify "no fact has probability
        1" without enumerating a prefix whose tail drops below 1 —
        impossible for wide-support families.  Default: None (unknown).
        """
        return None

    # --------------------------------------------------------------- services
    @property
    def convergent(self) -> bool:
        """Whether ``Σ p_f`` converges — the Theorem 4.8 criterion."""
        return math.isfinite(self.total_mass())

    def _support_pairs(self) -> Iterator[Tuple[Fact, float]]:
        """``(f, p_f)`` along :meth:`support` — the stream the prefix
        cache materializes.  **Must** agree with :meth:`support` in
        content and order.  Subclasses override when the pair can be
        produced cheaper than a :meth:`probability` lookup per fact."""
        return ((fact, self.probability(fact)) for fact in self.support())

    def prefix_cache(self) -> PrefixCache:
        """This distribution's materialized prefix (created lazily, then
        shared by every ``prefix``/``marginals_dict``/``prefix_for_tail``
        call and by the refinement session).

        The cache's enumeration and tail run on a shallow copy made
        before the cache exists, so the copy never refers to the cache
        and the two form no reference cycle: when the last user lets go
        of the distribution, reference counting frees its materialized
        prefix at once, instead of the cycle collector freeing it during
        whatever later call happens to trigger a full collection.
        """
        cache = self.__dict__.get("_prefix_cache")
        if cache is None:
            source = copy.copy(self)
            cache = PrefixCache(source._support_pairs(), source.tail)
            self._prefix_cache = cache
        return cache

    def prefix(self, n: int) -> List[Tuple[Fact, float]]:
        """The first n support facts with their probabilities (served
        from the shared :meth:`prefix_cache`)."""
        return self.prefix_cache().prefix(n)

    def prefix_for_tail(self, bound: float, max_facts: int = 10**7) -> int:
        """Smallest n with ``tail(n) ≤ bound``.

        Found by exponential probe + bisection over the memoized
        certified tails (sound and bit-exact vs the paper's linear
        "systematically listing facts" because ``tail`` is
        non-increasing in n) — O(log n) tail evaluations.

        Exhausting ``max_facts`` before the bound is met raises
        :class:`~repro.errors.ApproximationError` carrying the tail mass
        actually achieved — a truncation at ``max_facts`` would be
        *uncertified*, silently voiding the ε-guarantee of every caller
        in the Proposition 6.1 pipeline.
        """
        return self.prefix_cache().smallest_prefix_for_tail(
            bound, max_facts, budget_name="max_facts")

    def marginals_dict(self, n: int) -> Dict[Fact, float]:
        """The first n support facts as a dict (for finite truncations)."""
        return self.prefix_cache().marginals_dict(n)

    def __getstate__(self):
        # The cache holds a live generator (unpicklable); peers rebuild
        # their own prefix on demand.
        state = self.__dict__.copy()
        state.pop("_prefix_cache", None)
        return state


class TableFactDistribution(FactDistribution):
    """A finitely supported family given by an explicit table.

    Enumeration order: decreasing probability, ties broken canonically —
    matching the "best case: facts enumerated by decreasing probability"
    remark of paper §6.

    >>> from repro.relational import RelationSymbol
    >>> R = RelationSymbol("R", 1)
    >>> d = TableFactDistribution({R(1): 0.8, R(2): 0.3})
    >>> [str(f) for f, _ in d.prefix(2)]
    ['R(1)', 'R(2)']
    >>> d.total_mass()
    1.1
    >>> d.tail(1)
    0.3
    """

    def __init__(self, marginals: Mapping[Fact, float]):
        cleaned: Dict[Fact, float] = {}
        for fact, probability in marginals.items():
            if not is_probability(probability):
                raise probability_error(probability, f"probability of {fact}")
            if probability > 0:
                cleaned[fact] = float(probability)
        self._order: List[Fact] = sorted(
            cleaned, key=lambda f: (-cleaned[f], f.sort_key())
        )
        self._marginals = cleaned
        ordered = [cleaned[fact] for fact in self._order]
        #: Certified tails: suffix sums with every addition rounded up.
        self._suffix: List[float] = upward_suffix_sums(ordered)
        total = 0.0
        for probability in reversed(ordered):
            total += probability
        self._total = total

    def support(self) -> Iterator[Fact]:
        return iter(self._order)

    def _support_pairs(self) -> Iterator[Tuple[Fact, float]]:
        return zip(self._order, map(self._marginals.__getitem__, self._order))

    def probability(self, fact: Fact) -> float:
        return self._marginals.get(fact, 0.0)

    def tail(self, n: int) -> float:
        return self._suffix[min(n, len(self._order))]

    def total_mass(self) -> float:
        return self._total

    def max_probability(self) -> float:
        if not self._order:
            return 0.0
        return self._marginals[self._order[0]]

    def log_complement_product(self) -> float:
        total = 0.0
        for p in self._marginals.values():
            if p >= 1.0:
                return -math.inf
            total += math.log1p(-p)
        return total

    def __len__(self) -> int:
        return len(self._order)


class _RankBasedDistribution(FactDistribution):
    """Shared plumbing for distributions assigning ``p = g(rank)`` along
    a fact-space enumeration."""

    def __init__(self, fact_space: FactSpace, certificate: SeriesCertificate):
        self.fact_space = fact_space
        self._certificate = certificate

    def _term(self, index: int) -> float:
        """``p`` of the fact with 0-based enumeration index ``index``."""
        raise NotImplementedError

    def support(self) -> Iterator[Fact]:
        return self.fact_space.enumerate()

    def probability(self, fact: Fact) -> float:
        if fact not in self.fact_space:
            return 0.0
        return self._term(self.fact_space.rank(fact))

    def _support_pairs(self) -> Iterator[Tuple[Fact, float]]:
        # The support is enumerated in rank order, so the enumeration
        # index *is* the rank — avoids an O(rank) lookup per fact, which
        # would make prefix materialization quadratic.
        return zip(self.support(), map(self._term, itertools.count()))

    def tail(self, n: int) -> float:
        return self._certificate.tail(n)

    def total_mass(self) -> float:
        return self._certificate.sum()


class GeometricFactDistribution(_RankBasedDistribution):
    """``p_f = first · ratio^{rank(f)}`` along the fact-space order.

    Total mass ``first / (1 − ratio)``; the open-world weights of
    Example 5.7 (``2^{−i}``) are the instance ``first = 1/2, ratio = 1/2``
    up to the fact ordering.

    >>> from repro.relational import Schema
    >>> from repro.universe import Naturals
    >>> space = FactSpace(Schema.of(R=1), Naturals())
    >>> d = GeometricFactDistribution(space, first=0.5, ratio=0.5)
    >>> d.probability(Schema.of(R=1)["R"](1))
    0.5
    >>> d.total_mass()
    1.0
    """

    def __init__(self, fact_space: FactSpace, first: float, ratio: float):
        if not 0 < first < 1:
            raise ProbabilityError(f"first must be in (0, 1), got {first}")
        if not 0 <= ratio < 1:
            raise ProbabilityError(f"ratio must be in [0, 1), got {ratio}")
        super().__init__(fact_space, SeriesCertificate.geometric(first, ratio))
        self.first = first
        self.ratio = ratio

    def _term(self, index: int) -> float:
        return self.first * self.ratio**index


class ZetaFactDistribution(_RankBasedDistribution):
    """``p_f = scale / (rank(f) + 1)^exponent`` — a slowly converging,
    heavy-tailed family (exponent > 1), the stress case for the E5
    truncation-size experiment.

    >>> from repro.relational import Schema
    >>> from repro.universe import Naturals
    >>> space = FactSpace(Schema.of(R=1), Naturals())
    >>> d = ZetaFactDistribution(space, exponent=2.0, scale=0.5)
    >>> d.probability(Schema.of(R=1)["R"](1))
    0.5
    """

    def __init__(self, fact_space: FactSpace, exponent: float, scale: float = 1.0):
        if exponent <= 1:
            raise ConvergenceError(
                f"zeta exponent must exceed 1 for convergence, got {exponent}"
            )
        if not 0 < scale <= 1:
            raise ProbabilityError(f"scale must be in (0, 1], got {scale}")
        super().__init__(fact_space, SeriesCertificate.zeta(exponent, scale))
        self.exponent = exponent
        self.scale = scale

    def _term(self, index: int) -> float:
        return self.scale / (index + 1) ** self.exponent

    @property
    def convergent(self) -> bool:
        """Always: ``Σ scale/i^s`` converges for every ``s > 1``, which
        the constructor checks, so no total is summed to tell."""
        return True

    def max_probability(self) -> float:
        return self.scale

    def log_complement_product(self) -> float:
        """``Σ_i log(1 − scale/i^s)`` with an integral tail estimate.

        The polynomial tail makes prefix enumeration to tolerance
        infeasible (``tail(n) ≤ 1e−12`` needs ``n ~ 10^12``), so the sum
        is split at N = 10⁵: exact below, ``−Σ p − Σ p²/2`` above using
        the closed forms ``Σ_{i>N} i^{−s} ≈ N^{1−s}/(s−1)`` and
        ``Σ_{i>N} i^{−2s} ≈ N^{1−2s}/(2s−1)`` (error O(N^{−3s}) after
        the quadratic term — far below float noise at s > 1).
        """
        if self.scale >= 1.0:
            return -math.inf  # p₁ = 1
        cutoff = 10**5
        total = sum(
            math.log1p(-self._term(i)) for i in range(cutoff)
        )
        s, c = self.exponent, self.scale
        linear_tail = c * cutoff ** (1 - s) / (s - 1)
        quadratic_tail = c * c * cutoff ** (1 - 2 * s) / (2 * s - 1) / 2.0
        return total - linear_tail - quadratic_tail


class DivergentFactDistribution(_RankBasedDistribution):
    """``p_f = scale / (rank(f) + 1)`` — the *harmonic* family whose sum
    diverges.  Exists to exercise the necessity direction of
    Theorem 4.8: constructing a countable TI PDB from it must fail.

    >>> from repro.relational import Schema
    >>> from repro.universe import Naturals
    >>> space = FactSpace(Schema.of(R=1), Naturals())
    >>> DivergentFactDistribution(space).convergent
    False
    """

    def __init__(self, fact_space: FactSpace, scale: float = 0.5):
        if not 0 < scale <= 1:
            raise ProbabilityError(f"scale must be in (0, 1], got {scale}")
        self.fact_space = fact_space
        self.scale = scale

    def _term(self, index: int) -> float:
        return self.scale / (index + 1)

    def tail(self, n: int) -> float:
        return math.inf

    def total_mass(self) -> float:
        return math.inf


def _outside(facts: frozenset, fact: Fact) -> bool:
    """``fact ∉ facts``: the :meth:`FilteredFactDistribution.excluding`
    predicate, a module function so that completions pickle."""
    return fact not in facts


class FilteredFactDistribution(FactDistribution):
    """Restriction of a distribution to facts passing a predicate.

    Used by completions (Theorem 5.5): the new-fact distribution must
    avoid ``F(D)``, so the base family is filtered by
    ``f ∉ F(D)``.  The base tail remains a sound (if slack) bound.

    >>> from repro.relational import RelationSymbol
    >>> R = RelationSymbol("R", 1)
    >>> base = TableFactDistribution({R(1): 0.5, R(2): 0.25})
    >>> filtered = FilteredFactDistribution(base, lambda f: f != R(1))
    >>> filtered.probability(R(1)), filtered.probability(R(2))
    (0.0, 0.25)
    """

    def __init__(
        self,
        base: FactDistribution,
        keep: Callable[[Fact], bool],
        removed_mass: Optional[float] = None,
    ):
        self.base = base
        self.keep = keep
        #: Exact total probability of the dropped facts, when known.
        self.removed_mass = removed_mass
        #: The dropped facts themselves, when finitely many and known
        #: (set by :meth:`excluding`); enables closed-form pass-through.
        self._excluded_facts: Optional[frozenset] = None

    @classmethod
    def excluding(
        cls, base: FactDistribution, facts: Iterable[Fact]
    ) -> "FilteredFactDistribution":
        """Exact exclusion of a *finite* fact set — the Theorem 5.5 case
        where the new-fact family must avoid F(D).  Total mass is exact:
        ``base.total_mass() − Σ_{f ∈ facts} p_f``.

        >>> from repro.relational import RelationSymbol
        >>> R = RelationSymbol("R", 1)
        >>> base = TableFactDistribution({R(1): 0.5, R(2): 0.25})
        >>> FilteredFactDistribution.excluding(base, [R(1)]).total_mass()
        0.25
        """
        excluded = frozenset(facts)
        removed = sum(base.probability(f) for f in excluded)
        filtered = cls(
            base, functools.partial(_outside, excluded), removed_mass=removed)
        filtered._excluded_facts = excluded
        return filtered

    def support(self) -> Iterator[Fact]:
        return (fact for fact in self.base.support() if self.keep(fact))

    def _support_pairs(self) -> Iterator[Tuple[Fact, float]]:
        return (
            (fact, p)
            for fact, p in self.base._support_pairs()
            if self.keep(fact)
        )

    def probability(self, fact: Fact) -> float:
        if not self.keep(fact):
            return 0.0
        return self.base.probability(fact)

    def tail(self, n: int) -> float:
        # Dropping facts only removes mass; after n *kept* facts, at
        # least n base facts have passed, so the base tail bounds ours.
        return self.base.tail(n)

    def total_mass(self) -> float:
        base_total = self.base.total_mass()
        if math.isinf(base_total):
            return math.inf
        if self.removed_mass is not None:
            return max(0.0, base_total - self.removed_mass)
        # Upper bound; exact mass would need enumerating the filtered-out
        # facts.  Sound for the convergence criterion, which is all the
        # constructions need.
        return base_total

    def max_probability(self) -> Optional[float]:
        return self.base.max_probability()

    def log_complement_product(self) -> Optional[float]:
        """Closed form when the base has one and the exclusions are an
        explicit finite set: divide out their ``(1 − p)`` factors."""
        base_log = self.base.log_complement_product()
        if base_log is None or self._excluded_facts is None:
            return None
        adjustment = 0.0
        for fact in self._excluded_facts:
            p = self.base.probability(fact)
            if p >= 1.0:
                return None  # base product is 0; cannot divide out
            if p > 0.0:
                adjustment -= math.log1p(-p)
        return base_log + adjustment


class UnionFactDistribution(FactDistribution):
    """Union of distributions with disjoint supports, interleaved fairly.

    The completion of Example 5.7 is a union: an explicit table on the
    original facts plus a geometric family on the open-world facts.

    >>> from repro.relational import RelationSymbol
    >>> R = RelationSymbol("R", 1)
    >>> left = TableFactDistribution({R(1): 0.5})
    >>> right = TableFactDistribution({R(2): 0.25})
    >>> u = UnionFactDistribution([left, right])
    >>> u.total_mass()
    0.75
    """

    def __init__(self, parts: Iterable[FactDistribution]):
        self.parts: Tuple[FactDistribution, ...] = tuple(parts)
        if not self.parts:
            raise ProbabilityError("union of no distributions")

    def support(self) -> Iterator[Fact]:
        return interleave(*(part.support() for part in self.parts))

    def _support_pairs(self) -> Iterator[Tuple[Fact, float]]:
        # Mirrors the fair interleaving of :meth:`support` exactly, with
        # each part producing its own (fact, p) pairs.
        return interleave(*(part._support_pairs() for part in self.parts))

    def probability(self, fact: Fact) -> float:
        for part in self.parts:
            p = part.probability(fact)
            if p > 0:
                return p
        return 0.0

    def tail(self, n: int) -> float:
        # After n facts of the interleaved stream, each part has emitted
        # at least ⌊n/k⌋ facts (or is exhausted); sum the parts' tails.
        per_part = n // len(self.parts)
        total = 0.0
        for part in self.parts:
            total = add_up(total, part.tail(per_part))
        return total

    def total_mass(self) -> float:
        return sum(part.total_mass() for part in self.parts)

    def max_probability(self) -> Optional[float]:
        bounds = [part.max_probability() for part in self.parts]
        if any(b is None for b in bounds):
            return None
        return max(bounds) if bounds else 0.0

    def log_complement_product(self) -> Optional[float]:
        logs = [part.log_complement_product() for part in self.parts]
        if any(value is None for value in logs):
            return None
        return sum(logs)


class WordLengthFactDistribution(FactDistribution):
    """String-universe facts weighted by *total word length* —
    Example 3.2's "small positive probability to all strings …,
    decaying with increasing length".

    Every relation argument ranges over ``Σ*`` for one shared alphabet;
    a fact ``R(w₁, …, w_k)`` gets

        ``p_f = scale_R · decay^(|w₁| + … + |w_k|)``.

    Unlike rank-geometric weights, real words of moderate length keep
    representable probabilities.  Convergence requires
    ``decay · |Σ| < 1``: there are ``≤ (ℓ+1)^{k−1} |Σ|^ℓ`` facts of total
    length ℓ per relation, so the mass per level decays geometrically.

    Enumeration is by total length (then lexicographic), giving an
    explicit certified tail.

    >>> from repro.relational import Schema
    >>> schema = Schema.of(R=1)
    >>> d = WordLengthFactDistribution(schema, "ab", decay=0.25, scale=0.1)
    >>> R = schema["R"]
    >>> d.probability(R("ab"))
    0.00625
    >>> d.convergent
    True
    """

    def __init__(
        self,
        schema,
        alphabet: str,
        decay: float,
        scale: float = 1.0,
    ):
        from repro.relational.schema import Schema as _Schema

        if not isinstance(schema, _Schema):
            raise ProbabilityError("schema must be a Schema")
        alphabet = "".join(alphabet)
        if not alphabet:
            raise ProbabilityError("alphabet must be non-empty")
        if not 0 < decay < 1 or decay * len(alphabet) >= 1:
            raise ConvergenceError(
                f"need 0 < decay and decay·|Σ| < 1; got decay={decay}, "
                f"|Σ|={len(alphabet)}"
            )
        if not 0 < scale <= 1:
            raise ProbabilityError(f"scale must be in (0, 1], got {scale}")
        self.schema = schema
        self.alphabet = alphabet
        self.decay = decay
        self.scale = scale
        self._relations = [r for r in schema]
        if not self._relations:
            raise ProbabilityError("schema has no relations")
        self._max_arity = max(r.arity for r in self._relations)
        #: r = decay·|Σ|: the per-level geometric factor.
        self._r = decay * len(alphabet)

    # -------------------------------------------------------------- counting
    def _facts_of_total_length(self, symbol, length: int) -> Iterator[Fact]:
        """All facts of one relation whose argument lengths sum to
        ``length``, in lexicographic order."""
        import itertools as _it

        k = symbol.arity
        if k == 0:
            if length == 0:
                yield Fact(symbol, ())
            return
        for split in self._compositions(length, k):
            word_pools = [
                ("".join(w) for w in _it.product(self.alphabet, repeat=part))
                for part in split
            ]
            for words in _it.product(*word_pools):
                yield Fact(symbol, words)

    @staticmethod
    def _compositions(total: int, k: int):
        if k == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in WordLengthFactDistribution._compositions(
                    total - head, k - 1):
                yield (head,) + rest

    # ------------------------------------------------------------ interface
    def support(self) -> Iterator[Fact]:
        import itertools as _it

        for length in _it.count(0):
            for symbol in self._relations:
                yield from self._facts_of_total_length(symbol, length)

    def probability(self, fact: Fact) -> float:
        if fact.relation not in self.schema:
            return 0.0
        total_length = 0
        for arg in fact.args:
            if not isinstance(arg, str) or any(
                    ch not in self.alphabet for ch in arg):
                return 0.0
            total_length += len(arg)
        return self.scale * self.decay**total_length

    def _level_mass_bound(self, length: int) -> float:
        """Upper bound on the mass of one total-length level across all
        relations: ``Σ_R scale·(ℓ+1)^{k−1}·r^ℓ``."""
        bound = 0.0
        for symbol in self._relations:
            k = max(symbol.arity, 1)
            bound += self.scale * (length + 1) ** (k - 1) * self._r**length
        return bound

    def tail(self, n: int) -> float:
        """After n enumerated facts, at least the levels covered by n
        facts are done; conservatively: find the largest complete level
        L(n) and sum the level bounds beyond it (geometric-dominated)."""
        # Count facts per level until the budget n is exhausted.
        level = 0
        remaining = n
        while True:
            level_count = 0
            for symbol in self._relations:
                k = symbol.arity
                if k == 0:
                    level_count += 1 if level == 0 else 0
                else:
                    level_count += (
                        math.comb(level + k - 1, k - 1)
                        * len(self.alphabet) ** level
                    )
            if remaining >= level_count:
                remaining -= level_count
                level += 1
            else:
                break
        # Mass of levels ≥ `level`: Σ_{ℓ≥L} bound(ℓ), dominated by a
        # geometric with an (ℓ+1)^{k−1} nuisance: bound each factor of
        # (ℓ+1)^{k−1} by C·s^ℓ with r·s = (1+r)/2 < 1.
        r = self._r
        rs = (1.0 + r) / 2.0
        s = rs / r
        c = 1.0
        k = self._max_arity
        if k > 1:
            # C = max_ℓ (ℓ+1)^{k-1} / s^ℓ — scan until decreasing.
            best = 0.0
            value = 1.0
            for ell in range(0, 10_000):
                candidate = (ell + 1) ** (k - 1) / s**ell
                best = max(best, candidate)
                if ell > 10 and candidate < best / 10:
                    break
            c = best
        per_relation = len(self._relations)
        return per_relation * self.scale * c * rs**level / (1.0 - rs)

    def total_mass(self) -> float:
        """Exact: ``Σ_R scale · (Σ_w decay^{|w|})^{ar(R)}`` with
        ``Σ_w decay^{|w|} = 1/(1 − decay·|Σ|)``."""
        per_word = 1.0 / (1.0 - self._r)
        return sum(
            self.scale * per_word**symbol.arity for symbol in self._relations
        )

    def max_probability(self) -> float:
        """Every fact has ``p ≤ scale`` (length-0 arguments)."""
        return self.scale

    def log_complement_product(self) -> float:
        """Closed form: within a total-length level all facts share the
        same probability ``scale·decay^ℓ``, so

            ``log Π (1 − p_f) = Σ_R Σ_ℓ count_R(ℓ) · log1p(−scale·decay^ℓ)``

        with ``count_R(ℓ) = C(ℓ+k−1, k−1)·|Σ|^ℓ``.  The level masses
        decay geometrically (``r = decay·|Σ| < 1``), so the sum is
        truncated once the remaining mass bound is negligible: by
        ``−x ≥ log(1−x) ≥ −x/(1−x)`` the omitted levels change the log
        by less than their total mass over ``1 − scale``.
        """
        total = 0.0
        sigma = len(self.alphabet)
        log_sigma = math.log(sigma)
        log_decay = math.log(self.decay)
        for symbol in self._relations:
            k = symbol.arity
            if k == 0:
                if self.scale >= 1.0:
                    return -math.inf
                total += math.log1p(-self.scale)  # single length-0 fact
                continue
            previous_log_increment = None
            level = 0
            while True:
                # log of count = C(level+k−1, k−1) · σ^level, in log space
                # (the raw count overflows floats within a few hundred
                # levels for realistic alphabets).
                log_count = (
                    math.lgamma(level + k)
                    - math.lgamma(level + 1)
                    - math.lgamma(k)
                    + level * log_sigma
                )
                p = self.scale * self.decay**level
                if p >= 1.0:
                    return -math.inf
                if p > 0.0:
                    log_term = math.log(-math.log1p(-p))
                else:
                    # decay^level underflowed; −log1p(−p) ≈ p in logs.
                    log_term = math.log(self.scale) + level * log_decay
                log_increment = log_count + log_term
                total -= math.exp(log_increment)
                converged = (
                    previous_log_increment is not None
                    and log_increment < previous_log_increment
                    and log_increment < math.log(1e-18)
                )
                if converged:
                    # Remaining levels dominated by a geometric with the
                    # observed per-level ratio (< 1 once decreasing).
                    ratio = math.exp(log_increment - previous_log_increment)
                    total -= math.exp(log_increment) * ratio / (1.0 - ratio)
                    break
                previous_log_increment = log_increment
                level += 1
        return total


class ScaledFactDistribution(FactDistribution):
    """``p_f ↦ c · p_f`` for ``c ∈ (0, 1]`` — thins an existing family.

    >>> from repro.relational import RelationSymbol
    >>> R = RelationSymbol("R", 1)
    >>> d = ScaledFactDistribution(TableFactDistribution({R(1): 0.5}), 0.5)
    >>> d.probability(R(1))
    0.25
    """

    def __init__(self, base: FactDistribution, factor: float):
        if not 0 < factor <= 1:
            raise ProbabilityError(f"scale factor must be in (0, 1], got {factor}")
        self.base = base
        self.factor = factor

    def support(self) -> Iterator[Fact]:
        return self.base.support()

    def _support_pairs(self) -> Iterator[Tuple[Fact, float]]:
        return (
            (fact, self.factor * p) for fact, p in self.base._support_pairs()
        )

    def probability(self, fact: Fact) -> float:
        return self.factor * self.base.probability(fact)

    def tail(self, n: int) -> float:
        return round_up(self.factor * self.base.tail(n), 2)

    def total_mass(self) -> float:
        return self.factor * self.base.total_mass()
