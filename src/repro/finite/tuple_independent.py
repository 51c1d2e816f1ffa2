"""Finite tuple-independent tables.

A TI table lists possible facts with marginal probabilities; all fact
events are independent.  It is the finite special case of the paper's
Theorem 4.8 construction (``Σ p_f`` trivially converges) and the output
of the Section 6 truncation ``truncate(n)`` of a countable TI PDB.
"""

from __future__ import annotations

import random
import threading
from itertools import compress
from operator import attrgetter
from typing import (
    Dict, Iterable, Iterator, KeysView, List, Mapping, Optional, Set,
)

from repro import obs
from repro.analysis.products import product_complement
from repro.errors import ProbabilityError, SchemaError
from repro.finite.pdb import FinitePDB
from repro.relational.facts import Fact
from repro.relational.index import FactIndex
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.utils.iteration import powerset
from repro.utils.rationals import is_probability, probability_error

_RELATION = attrgetter("relation")


class TupleIndependentTable:
    """A finite TI table: possible facts annotated with marginals.

    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> table = TupleIndependentTable(schema, {R(1): 0.8, R(2): 0.5})
    >>> round(table.instance_probability(Instance([R(1)])), 10)
    0.4
    >>> table.expected_size()
    1.3
    """

    def __init__(self, schema: Schema, marginals: Mapping[Fact, float]):
        self.schema = schema
        self.marginals: Dict[Fact, float] = {}
        #: Lazy columnar mirror (see :meth:`columns`); kept in sync by
        #: :meth:`extend` once built, dropped from pickles.
        self._columns = None
        #: The fact index (see :attr:`index`), likewise.
        self._index: Optional[FactIndex] = None
        self._index_lock = threading.Lock()
        self.marginals.update(self._new_marginals(marginals))

    def extend(self, marginals: Mapping[Fact, float]) -> None:
        """Add possible facts *in place*, with the same validation as
        construction.  Re-listing an existing fact with an unchanged
        marginal is a no-op; changing its marginal — to 0 included — is
        rejected (the incremental-truncation caller must never rewrite
        history).  All-or-nothing: the whole batch is checked before the
        first fact goes in, so a rejected batch leaves the table (and
        its columnar mirror and index) untouched.
        """
        added = self._new_marginals(marginals)
        if not added:
            return
        if self._columns is not None:
            # O(delta): the columnar mirror grows in place, so warm
            # ε-sweep state stays valid across truncation growth.
            self._columns.extend_items(added.items())
        with self._index_lock:
            self.marginals.update(added)
            if self._index is not None:
                obs.incr(
                    "grounding.delta_facts", self._index.extend(added))

    def _new_marginals(self, marginals: Mapping[Fact, float]) -> Dict[Fact, float]:
        """The facts of ``marginals`` with a positive marginal that the
        table does not list yet, with float marginals, in batch order —
        once the whole batch is checked: every marginal lies in [0, 1],
        every relation is in the schema, and a re-listed fact keeps its
        marginal.  A batch that fails a check raises for its first
        offending fact."""
        current = self.marginals
        relisted = list(filter(current.__contains__, marginals)) if current else []
        if not (
            all(map(is_probability, marginals.values()))
            and all(map(self.schema.__contains__,
                        set(map(_RELATION, marginals))))
            and all(current[fact] == float(marginals[fact]) for fact in relisted)
        ):
            self._raise_first_error(marginals)
        probabilities = list(map(float, marginals.values()))
        # Validated floats are truthy exactly when positive.
        added = dict(compress(zip(marginals, probabilities), probabilities))
        for fact in relisted:
            del added[fact]
        return added

    def _raise_first_error(self, marginals: Mapping[Fact, float]) -> None:
        """Raise the error of the first fact of ``marginals``, in batch
        order, that fails a check of :meth:`_new_marginals`."""
        for fact, probability in marginals.items():
            if not is_probability(probability):
                raise probability_error(probability, f"marginal of {fact}")
            if fact.relation not in self.schema:
                raise SchemaError(f"fact {fact} not over schema {self.schema}")
            existing = self.marginals.get(fact)
            if existing is not None and existing != float(probability):
                raise ProbabilityError(
                    f"extend would change the marginal of {fact} "
                    f"from {existing} to {probability}"
                )

    @property
    def index(self) -> FactIndex:
        """The table's :class:`~repro.relational.index.FactIndex`, rows
        in insertion order, which every lifted run, compiled grounding
        and answer fan-out over the table reads.  Built on first use
        (once, even when threads race for it), grown by :meth:`extend`
        with exactly the facts each call adds (counted by
        ``grounding.delta_facts``), dropped from pickles."""
        index = self._index
        if index is None:
            with self._index_lock:
                index = self._index
                if index is None:
                    index = self._index = FactIndex(self.marginals)
        return index

    @property
    def columns(self):
        """The table's columnar mirror — interned facts plus a marginal
        column (:class:`repro.relational.columns.ColumnStore`).

        Built lazily on first use (row order = dict insertion order),
        then maintained in place by :meth:`extend`; serves the
        vectorized aggregate paths (:meth:`expected_size`,
        :meth:`empty_world_probability`, marginal-slice gathers).
        """
        if self._columns is None:
            from repro.relational.columns import ColumnStore

            store = ColumnStore(backend="auto")
            store.extend_items(self.marginals.items())
            self._columns = store
        return self._columns

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self.marginals)

    def facts(self) -> List[Fact]:
        """Possible facts in canonical order."""
        return sorted(self.marginals, key=Fact.sort_key)

    def possible_facts(self) -> KeysView[Fact]:
        """Possible facts in insertion order — a live view, for callers
        that only build a set or collect arguments (:meth:`facts`
        pays for a sort)."""
        return self.marginals.keys()

    def marginal(self, fact: Fact) -> float:
        """``P(E_f)``; 0 for unlisted facts (closed world)."""
        return self.marginals.get(fact, 0.0)

    def expected_size(self) -> float:
        """``E(S) = Σ p_f`` (eq. (5) of the paper, finite case)."""
        return self.columns.sum_marginals()

    def marginal_values(self, facts: Iterable[Fact]):
        """Marginal slice for the given (listed) facts — a list on the
        pure-Python backend, an ndarray on the numpy backend."""
        return self.columns.gather_facts(facts)

    def instance_probability(self, instance: Instance) -> float:
        """The Theorem 4.8 product
        ``P({D}) = Π_{f∈D} p_f · Π_{f∈F−D} (1 − p_f)``.

        Zero for instances containing impossible facts.
        """
        product = 1.0
        for fact in instance:
            p = self.marginals.get(fact)
            if p is None:
                return 0.0
            product *= p
        absent = (
            p for fact, p in self.marginals.items() if fact not in instance
        )
        return product * product_complement(absent)

    def empty_world_probability(self) -> float:
        """``P({∅}) = Π (1 − p_f)`` — the ``P₁({∅})`` of Theorem 5.5."""
        return self.columns.complement_product()

    # ------------------------------------------------------------- conversions
    def expand(self) -> FinitePDB:
        """Materialize all 2^n possible worlds as a :class:`FinitePDB`.

        Exponential — intended for validation at small n.
        """
        if len(self.marginals) > 24:
            raise ProbabilityError(
                f"refusing to expand {len(self.marginals)} facts "
                f"({2 ** len(self.marginals)} worlds)"
            )
        worlds: Dict[Instance, float] = {}
        for subset in powerset(self.marginals):
            instance = Instance(subset)
            worlds[instance] = self.instance_probability(instance)
        return FinitePDB(self.schema, worlds)

    def restrict(self, facts: Iterable[Fact]) -> "TupleIndependentTable":
        """Sub-table containing only the given facts."""
        wanted = set(facts)
        return TupleIndependentTable(
            self.schema,
            {f: p for f, p in self.marginals.items() if f in wanted},
        )

    def top(self, n: int) -> "TupleIndependentTable":
        """Sub-table of the n most probable facts (ties broken by the
        canonical fact order) — the Ω_n truncation workhorse."""
        ranked = sorted(
            self.marginals.items(), key=lambda item: (-item[1], item[0].sort_key())
        )
        return TupleIndependentTable(self.schema, dict(ranked[:n]))

    # ---------------------------------------------------------------- sampling
    def sample(self, rng: random.Random) -> Instance:
        """Draw a world: independent Bernoulli per fact."""
        return Instance(
            fact for fact, p in self.marginals.items() if rng.random() < p
        )

    def sample_many(self, n: int, rng: random.Random) -> List[Instance]:
        return [self.sample(rng) for _ in range(n)]

    def sample_batch(
        self,
        n: int,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
        backend: str = "auto",
        batch_index: int = 0,
    ) -> List[Instance]:
        """Draw ``n`` worlds at once with a :mod:`repro.sampling` kernel.

        Reproducible from ``(seed, batch_index)``; ``backend="scalar"``
        falls back to the per-fact :meth:`sample` loop.
        """
        if backend == "scalar":
            if rng is None:
                if seed is None:
                    raise ValueError("provide rng= or seed=")
                rng = random.Random(seed)
            return self.sample_many(n, rng)
        from repro.sampling import sample_instances

        return sample_instances(
            self, n, rng=rng, seed=seed, backend=backend,
            batch_index=batch_index,
        )

    # ---------------------------------------------------------------- pickling
    def __getstate__(self):
        """Drop the columnar mirror and the index, like
        :class:`~repro.core.fact_distribution.FactDistribution` drops
        its prefix cache: the ``workers=`` process-pool fan-out must not
        ship what is pure derived state (it rebuilds lazily on first use
        in the worker)."""
        state = dict(self.__dict__)
        state["_columns"] = None
        del state["_index"], state["_index_lock"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._index = None
        self._index_lock = threading.Lock()

    def __repr__(self) -> str:
        return (
            f"TupleIndependentTable(facts={len(self.marginals)}, "
            f"expected_size={self.expected_size():.4g})"
        )

