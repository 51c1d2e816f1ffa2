"""The Karp–Luby unbiased estimator for DNF/UCQ probability.

Naive Monte Carlo needs ``Ω(1/P(Q))`` samples to see a single positive
world when ``P(Q)`` is small.  The Karp–Luby scheme samples from the
*union space* — pick a DNF term with probability proportional to its
(exactly computable) probability, sample a world conditioned on that
term being true, and count whether the chosen term is the *first*
satisfied one.  The estimate ``(Σ P(term_i)) · (hits / samples)`` is
unbiased with relative error independent of ``P(Q)`` — an FPRAS for DNF.

Here terms come from a Boolean query's lineage in DNF, or directly from
the CQs of a UCQ grounded against a TI table.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro import obs
from repro.errors import EvaluationError
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic.lineage import Lineage, lineage_of
from repro.logic.queries import BooleanQuery
from repro.relational.facts import Fact
from repro.sampling import batches, bernoulli_rows, categorical


class DNFTerm(NamedTuple):
    """One conjunctive term: facts that must be present / absent."""

    positive: frozenset
    negative: frozenset

    def probability(self, marginal: Callable[[Fact], float]) -> float:
        """Exact ``P(term)`` under tuple independence."""
        probability = 1.0
        for fact in self.positive:
            probability *= marginal(fact)
        for fact in self.negative:
            probability *= 1.0 - marginal(fact)
        return probability

    def satisfied_by(self, world: Set[Fact]) -> bool:
        return self.positive <= world and not (self.negative & world)


#: Default cap on the DNF expansion: a non-DNF-shaped lineage (e.g. a
#: CNF) multiplies terms per conjunct, and the unguarded expansion can
#: hang the process before allocating anything observable.
DEFAULT_MAX_DNF_TERMS = 50_000


def lineage_to_dnf(
    expr: Lineage, max_terms: int = DEFAULT_MAX_DNF_TERMS
) -> List[DNFTerm]:
    """Expand a lineage into DNF terms (exponential in the worst case;
    intended for union-of-conjunctions shapes where it is linear).

    The expansion is abandoned with :class:`EvaluationError` as soon as
    an intermediate term list exceeds ``max_terms`` — the guard fires
    mid-product, so a CNF-shaped lineage fails fast instead of hanging.

    >>> from repro.relational import RelationSymbol
    >>> R = RelationSymbol("R", 1)
    >>> expr = Lineage.disj([Lineage.var(R(1)),
    ...                      Lineage.conj([Lineage.var(R(2)),
    ...                                    Lineage.negation(Lineage.var(R(3)))])])
    >>> sorted(len(t.positive) for t in lineage_to_dnf(expr))
    [1, 1]
    """
    if max_terms <= 0:
        raise EvaluationError(f"max_terms must be positive, got {max_terms}")
    return _lineage_to_dnf(expr, max_terms)


def _check_term_budget(count: int, max_terms: int) -> None:
    if count > max_terms:
        raise EvaluationError(
            f"DNF expansion exceeded max_terms={max_terms} "
            f"({count} partial terms); the lineage is not DNF-shaped — "
            "use an exact strategy or raise max_terms explicitly"
        )


def _lineage_to_dnf(expr: Lineage, max_terms: int) -> List[DNFTerm]:
    node = expr.node
    tag = node[0]
    if tag == "true":
        return [DNFTerm(frozenset(), frozenset())]
    if tag == "false":
        return []
    if tag == "var":
        return [DNFTerm(frozenset({node[1]}), frozenset())]
    if tag == "not":
        inner = Lineage(node[1])
        if inner.node[0] == "var":
            return [DNFTerm(frozenset(), frozenset({inner.node[1]}))]
        # Push negation inward and retry (De Morgan via the constructors).
        pushed = _push_negation(inner)
        return _lineage_to_dnf(pushed, max_terms)
    if tag == "or":
        terms: List[DNFTerm] = []
        for child in node[1]:
            terms.extend(_lineage_to_dnf(Lineage(child), max_terms))
            _check_term_budget(len(terms), max_terms)
        return terms
    if tag == "and":
        result = [DNFTerm(frozenset(), frozenset())]
        for child in node[1]:
            child_terms = _lineage_to_dnf(Lineage(child), max_terms)
            _check_term_budget(len(result) * len(child_terms), max_terms)
            result = [
                DNFTerm(a.positive | b.positive, a.negative | b.negative)
                for a in result
                for b in child_terms
                if not ((a.positive | b.positive) & (a.negative | b.negative))
            ]
            if not result:
                return []
        return result
    raise EvaluationError(f"unknown lineage node {node!r}")


def _push_negation(expr: Lineage) -> Lineage:
    """One-level De Morgan push for negated conjunctions/disjunctions."""
    node = expr.node
    tag = node[0]
    if tag == "and":
        return Lineage.disj(
            [Lineage.negation(Lineage(child)) for child in node[1]])
    if tag == "or":
        return Lineage.conj(
            [Lineage.negation(Lineage(child)) for child in node[1]])
    if tag == "not":
        return Lineage(node[1])
    if tag == "true":
        return Lineage.false()
    if tag == "false":
        return Lineage.true()
    return Lineage.negation(expr)


class KarpLubyEstimate(NamedTuple):
    estimate: float
    samples: int
    #: Σ P(term_i): the union-bound normalizer.
    term_mass: float


def karp_luby_probability(
    terms: Sequence[DNFTerm],
    table: TupleIndependentTable,
    samples: int,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> KarpLubyEstimate:
    """Unbiased DNF probability estimate via the Karp–Luby scheme.

    Term choices and base worlds are drawn
    :data:`~repro.sampling.DEFAULT_BATCH_SIZE` at a time with the
    :mod:`repro.sampling` draws, and the chosen term's forced facts are
    applied afterwards (equivalent in distribution to sampling a world
    conditioned on the term, since facts are independent).  Randomness
    comes from exactly one of a caller ``rng`` and a ``seed``, as in
    :func:`~repro.finite.montecarlo.query_probability_monte_carlo`.

    >>> from repro.relational import Schema
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> table = TupleIndependentTable(schema, {R(1): 0.5, R(2): 0.5})
    >>> terms = [DNFTerm(frozenset({R(1)}), frozenset()),
    ...          DNFTerm(frozenset({R(2)}), frozenset())]
    >>> est = karp_luby_probability(terms, table, 4000, random.Random(0))
    >>> abs(est.estimate - 0.75) < 0.05
    True
    """
    if samples <= 0:
        raise EvaluationError("samples must be positive")
    with obs.trace() as t:
        obs.note(strategy="karp-luby")
        if not terms:
            return obs.attach_report(
                KarpLubyEstimate(0.0, samples, 0.0),
                obs.EvalReport.from_trace(t))
        weights = [term.probability(table.marginal) for term in terms]
        term_mass = sum(weights)
        if term_mass == 0.0:
            return obs.attach_report(
                KarpLubyEstimate(0.0, samples, 0.0),
                obs.EvalReport.from_trace(t))
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w
            cumulative.append(acc)
        all_facts = table.facts()
        with obs.phase("sample"):
            hits = _batched_hits(terms, table, samples, rng, seed,
                                 cumulative, term_mass, all_facts)
        obs.incr("sampling.samples", samples)
        # The estimator is term_mass · (hits/samples): its standard error
        # is term_mass · sqrt(p̂(1−p̂)/samples) for p̂ = hits/samples.
        hit_rate = hits / samples
        std_error = term_mass * math.sqrt(
            max(hit_rate * (1.0 - hit_rate), 1.0 / samples) / samples)
        obs.gauge_max("sampling.std_error", std_error)
        obs.gauge_max("sampling.half_width", 1.96 * std_error)
        estimate = KarpLubyEstimate(term_mass * hit_rate, samples, term_mass)
    return obs.attach_report(estimate, obs.EvalReport.from_trace(t))


def _batched_hits(terms, table, samples, rng, seed, cumulative, term_mass,
                  all_facts) -> int:
    probs = table.marginal_values(all_facts)
    last_term = len(terms) - 1
    hits = 0
    for k, batch_rng in batches(samples, rng=rng, seed=seed):
        # 1. Batch of term picks ∝ term probability (clamped against the
        # measure-zero float edge u == term_mass).
        indices = categorical(cumulative, k, batch_rng, scale=term_mass)
        # 2. Batch of unconditioned worlds; conditioning on the chosen
        # term just overrides its positive/negative facts.
        rows = bernoulli_rows(probs, k, batch_rng)
        for index, row in zip(indices, rows):
            index = min(index, last_term)
            term = terms[index]
            world = {all_facts[i] for i in row}
            world -= term.negative
            world |= term.positive
            # 3. Count iff the chosen term is the *first* satisfied one.
            first = next(
                i for i, t in enumerate(terms) if t.satisfied_by(world)
            )
            if first == index:
                hits += 1
    return hits


def query_probability_karp_luby(
    query: BooleanQuery,
    table: TupleIndependentTable,
    samples: int,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
    max_terms: int = DEFAULT_MAX_DNF_TERMS,
) -> KarpLubyEstimate:
    """Karp–Luby estimate for a Boolean query via its lineage DNF.

    The lineage itself is grounded set-at-a-time for
    positive-existential queries (see
    :func:`repro.logic.lineage.lineage_of`); only the DNF expansion
    below is bounded.

    ``max_terms`` bounds the DNF expansion of the lineage
    (:func:`lineage_to_dnf`); queries whose lineage is not
    union-of-conjunctions shaped fail fast with
    :class:`~repro.errors.EvaluationError` instead of expanding
    exponentially.

    >>> from repro.relational import Schema
    >>> from repro.logic import parse_formula
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> table = TupleIndependentTable(schema, {R(1): 0.5, R(2): 0.5})
    >>> q = BooleanQuery(parse_formula("EXISTS x. R(x)", schema), schema)
    >>> est = query_probability_karp_luby(q, table, 3000, random.Random(1))
    >>> abs(est.estimate - 0.75) < 0.05
    True
    """
    with obs.trace() as t:
        with obs.phase("lineage"):
            expr = lineage_of(query.formula, set(table.marginals))
            terms = lineage_to_dnf(expr, max_terms=max_terms)
        estimate = karp_luby_probability(terms, table, samples, rng, seed=seed)
    return obs.attach_report(estimate, obs.EvalReport.from_trace(t))
