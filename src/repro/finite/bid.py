"""Finite block-independent-disjoint (BID) tables (paper §4.4).

Facts are partitioned into blocks; facts within a block are mutually
exclusive, facts across blocks independent (Definition 4.11 in the
finite/countable reading of Lemma 4.12).  A block with total mass < 1
leaves the complementary mass ``p_⊥`` on "no fact from this block"
(the paper's remainder mass).

Classical use: one block per key value to encode key constraints — the
Trio/MayBMS/MystiQ representation the paper cites.
"""

from __future__ import annotations

import itertools
import random
import threading
from typing import (
    Dict, Iterable, Iterator, KeysView, List, Mapping, Optional, Sequence, Tuple,
)

from repro import obs
from repro.errors import ProbabilityError, SchemaError
from repro.finite.pdb import FinitePDB
from repro.relational.facts import Fact
from repro.relational.index import FactIndex
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.utils.rationals import is_probability, probability_error


class Block:
    """One block: alternative facts with probabilities summing to ≤ 1.

    >>> from repro.relational import RelationSymbol
    >>> R = RelationSymbol("R", 1)
    >>> b = Block("b", {R(1): 0.3, R(2): 0.5})
    >>> round(b.bottom_mass, 10)
    0.2
    """

    def __init__(self, name: str, alternatives: Mapping[Fact, float]):
        self.name = name
        self.alternatives: Dict[Fact, float] = {}
        total = 0.0
        for fact, probability in alternatives.items():
            if not is_probability(probability):
                raise probability_error(probability, f"probability of {fact}")
            if probability > 0:
                self.alternatives[fact] = float(probability)
                total += probability
        if total > 1 + 1e-12:
            raise ProbabilityError(
                f"block {name!r} has total mass {total} > 1"
            )
        #: ``p_⊥``: the remainder mass on "no fact from this block".
        self.bottom_mass = max(0.0, 1.0 - total)

    def facts(self) -> List[Fact]:
        return sorted(self.alternatives, key=Fact.sort_key)

    def probability(self, fact: Optional[Fact]) -> float:
        """``p_f`` for a fact of the block, or ``p_⊥`` for None."""
        if fact is None:
            return self.bottom_mass
        return self.alternatives.get(fact, 0.0)

    def sample(self, rng: random.Random) -> Optional[Fact]:
        u = rng.random()
        acc = 0.0
        for fact in self.facts():
            acc += self.alternatives[fact]
            if u < acc:
                return fact
        return None

    def __len__(self) -> int:
        return len(self.alternatives)

    def __repr__(self) -> str:
        return f"Block({self.name!r}, facts={len(self.alternatives)})"


class BlockIndependentTable:
    """A finite BID table: independent blocks of disjoint alternatives.

    >>> from repro.relational import RelationSymbol
    >>> schema = Schema.of(R=1)
    >>> R = schema["R"]
    >>> table = BlockIndependentTable(schema, [
    ...     Block("k1", {R(1): 0.5, R(2): 0.5}),
    ...     Block("k2", {R(3): 0.25}),
    ... ])
    >>> round(table.instance_probability(Instance([R(1), R(3)])), 10)
    0.125
    >>> table.instance_probability(Instance([R(1), R(2)]))   # same block
    0.0
    """

    def __init__(self, schema: Schema, blocks: Sequence[Block]):
        self.schema = schema
        self.blocks: Tuple[Block, ...] = tuple(blocks)
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise ProbabilityError("block names must be distinct")
        self._block_of: Dict[Fact, Block] = {}
        #: Lazy columnar mirror (facts, marginals, block ordinals);
        #: kept in sync by :meth:`extend` once built, not pickled.
        self._columns = None
        #: The fact index (see :attr:`index`), likewise.
        self._index: Optional[FactIndex] = None
        self._index_lock = threading.Lock()
        for block in self.blocks:
            for fact in block.alternatives:
                if fact.relation not in schema:
                    raise SchemaError(f"fact {fact} not over schema {schema}")
                if fact in self._block_of:
                    raise ProbabilityError(
                        f"fact {fact} appears in two blocks"
                    )
                self._block_of[fact] = block

    def extend(self, blocks: Iterable[Block]) -> None:
        """Append blocks *in place*, with the same name/disjointness
        validation as construction.  All-or-nothing: the table is
        untouched if any new block is invalid."""
        new_blocks = tuple(blocks)
        names = {b.name for b in self.blocks}
        added: Dict[Fact, Block] = {}
        for block in new_blocks:
            if block.name in names:
                raise ProbabilityError("block names must be distinct")
            names.add(block.name)
            for fact in block.alternatives:
                if fact.relation not in self.schema:
                    raise SchemaError(
                        f"fact {fact} not over schema {self.schema}")
                if fact in self._block_of or fact in added:
                    raise ProbabilityError(
                        f"fact {fact} appears in two blocks"
                    )
                added[fact] = block
        with self._index_lock:
            self._block_of.update(added)
            if self._index is not None and added:
                obs.incr("grounding.delta_facts", self._index.extend(added))
        if self._columns is not None:
            # O(delta): new blocks append below the existing rows.
            base = len(self.blocks)
            for ordinal, block in enumerate(new_blocks, start=base):
                self._columns.extend_items(
                    block.alternatives.items(), block=ordinal)
        self.blocks = self.blocks + new_blocks

    @property
    def index(self) -> FactIndex:
        """The table's :class:`~repro.relational.index.FactIndex`, rows
        in block order; built, grown and pickled like
        :attr:`TupleIndependentTable.index
        <repro.finite.tuple_independent.TupleIndependentTable.index>`."""
        index = self._index
        if index is None:
            with self._index_lock:
                index = self._index
                if index is None:
                    index = self._index = FactIndex(self._block_of)
        return index

    @property
    def columns(self):
        """Columnar mirror: one row per alternative fact, with its
        marginal and its block's ordinal in :attr:`blocks` (see
        :class:`repro.relational.columns.ColumnStore`)."""
        if self._columns is None:
            from repro.relational.columns import ColumnStore

            store = ColumnStore(backend="auto")
            for ordinal, block in enumerate(self.blocks):
                store.extend_items(
                    block.alternatives.items(), block=ordinal)
            self._columns = store
        return self._columns

    def __getstate__(self):
        """Drop the columnar mirror and the index from pickles (fan-out
        payloads rebuild them lazily in the worker)."""
        state = dict(self.__dict__)
        state["_columns"] = None
        del state["_index"], state["_index_lock"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._index = None
        self._index_lock = threading.Lock()

    # ------------------------------------------------------------------ basics
    def facts(self) -> List[Fact]:
        """Possible facts in canonical order."""
        return sorted(self._block_of, key=Fact.sort_key)

    def possible_facts(self) -> KeysView[Fact]:
        """Possible facts in block order — a live view, for callers
        that only build a set or collect arguments (:meth:`facts`
        pays for a sort)."""
        return self._block_of.keys()

    def block_of(self, fact: Fact) -> Optional[Block]:
        return self._block_of.get(fact)

    def marginal(self, fact: Fact) -> float:
        block = self._block_of.get(fact)
        if block is None:
            return 0.0
        return block.probability(fact)

    def expected_size(self) -> float:
        """``Σ_f p_f`` — finite, per Lemma 4.14's convergence."""
        return self.columns.sum_marginals()

    def is_good(self, instance: Instance) -> bool:
        """Good instances contain at most one fact per block (paper
        terminology in the proof of Proposition 4.13)."""
        seen: set = set()
        for fact in instance:
            block = self._block_of.get(fact)
            if block is None:
                return False
            if block.name in seen:
                return False
            seen.add(block.name)
        return True

    def instance_probability(self, instance: Instance) -> float:
        """The Proposition 4.13 product ``Π_B p_{β(B, D)}``; 0 for bad
        instances."""
        if not self.is_good(instance):
            return 0.0
        chosen: Dict[str, Fact] = {}
        for fact in instance:
            chosen[self._block_of[fact].name] = fact
        product = 1.0
        for block in self.blocks:
            product *= block.probability(chosen.get(block.name))
            if product == 0.0:
                return 0.0
        return product

    # ------------------------------------------------------------- conversions
    def expand(self) -> FinitePDB:
        """Materialize all good worlds (product of per-block choices)."""
        world_count = 1
        for block in self.blocks:
            world_count *= len(block.alternatives) + 1
            if world_count > 2**24:
                raise ProbabilityError("refusing to expand: too many worlds")
        worlds: Dict[Instance, float] = {}
        choices = [
            [None] + block.facts() for block in self.blocks
        ]
        for combo in itertools.product(*choices):
            instance = Instance(fact for fact in combo if fact is not None)
            probability = 1.0
            for block, fact in zip(self.blocks, combo):
                probability *= block.probability(fact)
            if probability > 0:
                worlds[instance] = worlds.get(instance, 0.0) + probability
        return FinitePDB(self.schema, worlds)

    def to_tuple_independent(self) -> "TupleIndependentTable":
        """Forget block structure (only valid if all blocks are
        singletons — the 'special case with singleton blocks')."""
        from repro.finite.tuple_independent import TupleIndependentTable

        for block in self.blocks:
            if len(block) > 1:
                raise ProbabilityError(
                    f"block {block.name!r} has {len(block)} alternatives; "
                    "not a tuple-independent table"
                )
        marginals = {
            fact: block.alternatives[fact]
            for block in self.blocks
            for fact in block.alternatives
        }
        return TupleIndependentTable(self.schema, marginals)

    # ---------------------------------------------------------------- sampling
    def sample(self, rng: random.Random) -> Instance:
        facts = []
        for block in self.blocks:
            fact = block.sample(rng)
            if fact is not None:
                facts.append(fact)
        return Instance(facts)

    def sample_batch(
        self,
        n: int,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
        backend: str = "auto",
        batch_index: int = 0,
    ) -> List[Instance]:
        """Draw ``n`` worlds at once with a :mod:`repro.sampling` kernel.

        The batched path pre-materialises each block's cumulative
        weights once instead of re-sorting alternatives per draw;
        ``backend="scalar"`` keeps the per-block :meth:`sample` loop.
        """
        if backend == "scalar":
            if rng is None:
                if seed is None:
                    raise ValueError("provide rng= or seed=")
                rng = random.Random(seed)
            return [self.sample(rng) for _ in range(n)]
        from repro.sampling import sample_instances

        return sample_instances(
            self, n, rng=rng, seed=seed, backend=backend,
            batch_index=batch_index,
        )

    def __repr__(self) -> str:
        return (
            f"BlockIndependentTable(blocks={len(self.blocks)}, "
            f"facts={len(self._block_of)})"
        )
