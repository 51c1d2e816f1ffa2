"""Pre-materialised sampling plans and batch-level model checking.

A *plan* freezes everything about a finite PDB representation that a
one-draw sampler recomputes per draw — canonical fact order, probability
arrays, per-block cumulative weights, the sorted world table — so the
batched draws can generate thousands of worlds without touching the
table again.  Worlds travel as compact *rows* (tuples of small ints),
and are only decoded to :class:`~repro.relational.instance.Instance`
objects at the API boundary.

Batch-level model checking: a plan compiles a query once — to its
lineage over the plan's possible facts where it can, to a cached
``holds_in`` otherwise — and then memoises truth per distinct row, so a
batch containing the same world many times (the common case for small
truncations) pays for one model check, not one per sample.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.relational.instance import Instance
from repro.sampling.kernels import batch_rngs, bernoulli_rows, categorical

Row = Tuple[int, ...]


class TIPlan:
    """Sampling plan for a tuple-independent table.

    Rows are sorted index tuples into :attr:`facts` (the facts present in
    the sampled world).
    """

    __slots__ = ("facts", "probs")

    def __init__(self, facts: Sequence, probs: Sequence[float]):
        self.facts = tuple(facts)
        self.probs = tuple(probs)

    @classmethod
    def from_table(cls, table) -> "TIPlan":
        facts = table.facts()
        return cls(facts, table.marginal_values(facts))

    def sample_rows(self, k: int, rng) -> List[Row]:
        return bernoulli_rows(self.probs, k, rng)

    def decode(self, row: Row) -> Instance:
        facts = self.facts
        return Instance(facts[i] for i in row)

    def world(self, row: Row) -> set:
        facts = self.facts
        return {facts[i] for i in row}

    def model_checker(self, query) -> Callable[[Row], bool]:
        return _lineage_checker(query, self.facts, self.world)

    def event_checker(self, event) -> Callable[[Row], bool]:
        return _memoised(lambda row: event(self.decode(row)))


class BIDPlan:
    """Sampling plan for a block-independent-disjoint table.

    Rows have one entry per block: the index of the chosen alternative
    in the block's canonical fact order, or ``len(block)`` for the
    remainder mass ``p_⊥`` ("no fact from this block").
    """

    __slots__ = ("block_facts", "block_cumulative", "facts")

    def __init__(self, block_facts, block_cumulative):
        self.block_facts = tuple(tuple(facts) for facts in block_facts)
        self.block_cumulative = tuple(tuple(c) for c in block_cumulative)
        self.facts = tuple(
            fact for facts in self.block_facts for fact in facts
        )

    @classmethod
    def from_table(cls, table) -> "BIDPlan":
        block_facts = []
        block_cumulative = []
        for block in table.blocks:
            facts = block.facts()
            cumulative = []
            acc = 0.0
            for fact in facts:
                acc += block.alternatives[fact]
                cumulative.append(acc)
            block_facts.append(facts)
            block_cumulative.append(cumulative)
        return cls(block_facts, block_cumulative)

    def sample_rows(self, k: int, rng) -> List[Row]:
        # One categorical per block, k draws each; u ≥ total mass lands
        # on index len(block) — the p_⊥ outcome.
        per_block = [
            categorical(cumulative, k, rng, scale=1.0)
            for cumulative in self.block_cumulative
        ]
        return list(zip(*per_block)) if per_block else [()] * k

    def decode(self, row: Row) -> Instance:
        return Instance(self._chosen(row))

    def world(self, row: Row) -> set:
        return set(self._chosen(row))

    def _chosen(self, row: Row):
        block_facts = self.block_facts
        return [
            block_facts[b][i]
            for b, i in enumerate(row)
            if i < len(block_facts[b])
        ]

    def model_checker(self, query) -> Callable[[Row], bool]:
        return _lineage_checker(query, self.facts, self.world)

    def event_checker(self, event) -> Callable[[Row], bool]:
        return _memoised(lambda row: event(self.decode(row)))


class WorldPlan:
    """Sampling plan for an explicit finite PDB (categorical on worlds).

    Rows are single world indices into the sorted world table, so model
    checking is at most one query evaluation per *distinct* world over
    the whole run.
    """

    __slots__ = ("instances", "cumulative")

    def __init__(self, instances: Sequence[Instance], cumulative: Sequence[float]):
        self.instances = tuple(instances)
        self.cumulative = tuple(cumulative)

    @classmethod
    def from_pdb(cls, pdb) -> "WorldPlan":
        instances = list(pdb.instances())
        cumulative = []
        acc = 0.0
        for instance in instances:
            acc += pdb.worlds[instance]
            cumulative.append(acc)
        return cls(instances, cumulative)

    def sample_rows(self, k: int, rng) -> List[Row]:
        last = len(self.instances) - 1
        draws = categorical(self.cumulative, k, rng, scale=1.0)
        # Clamp the measure-zero float edge u ≥ cumulative[-1] (total
        # mass 1 up to rounding), like FinitePDB.sample's fall-through
        # to the last world.
        return [(index if index <= last else last,) for index in draws]

    def decode(self, row: Row) -> Instance:
        return self.instances[row[0]]

    def model_checker(self, query) -> Callable[[Row], bool]:
        return _memoised(lambda row: query.holds_in(self.instances[row[0]]))

    def event_checker(self, event) -> Callable[[Row], bool]:
        return _memoised(lambda row: event(self.instances[row[0]]))


def _memoised(check: Callable[[Row], bool]) -> Callable[[Row], bool]:
    cache: Dict[Row, bool] = {}

    def checked(row: Row) -> bool:
        hit = cache.get(row)
        if hit is None:
            hit = cache[row] = check(row)
        return hit

    return checked


def _lineage_checker(query, facts, world_of) -> Callable[[Row], bool]:
    """Compile ``query`` once against the plan's possible facts.

    Lineage evaluation on a set of facts skips the FO interpreter (and
    ``Instance`` construction) entirely — positive-existential queries
    additionally ground set-at-a-time through the hash-join engine;
    queries the lineage grounder cannot handle fall back to cached
    ``holds_in``.
    """
    try:
        from repro.logic.lineage import lineage_of

        expr = lineage_of(query.formula, frozenset(facts))
    except (EvaluationError, TypeError):
        expr = None
    if expr is not None:
        constant = expr.is_constant()
        if constant is not None:
            return lambda row: constant
        evaluate = expr.evaluate
        return _memoised(lambda row: evaluate(world_of(row)))
    holds = query.holds_in
    return _memoised(lambda row: holds(Instance(world_of(row))))


def plan_for(pdb):
    """Build the sampling plan matching a finite PDB representation."""
    from repro.finite.bid import BlockIndependentTable
    from repro.finite.pdb import FinitePDB
    from repro.finite.tuple_independent import TupleIndependentTable

    if isinstance(pdb, TupleIndependentTable):
        return TIPlan.from_table(pdb)
    if isinstance(pdb, BlockIndependentTable):
        return BIDPlan.from_table(pdb)
    if isinstance(pdb, FinitePDB):
        return WorldPlan.from_pdb(pdb)
    raise EvaluationError(f"no sampling plan for {type(pdb).__name__}")


def sample_instances(
    pdb,
    n: int,
    rng=None,
    seed=None,
    batch_index: int = 0,
) -> List[Instance]:
    """Draw ``n`` worlds from a finite representation: every TI, BID and
    explicit-world PDB's batch sampler.

    Reproducible from ``(seed, batch_index)``; with ``rng`` the caller's
    stream is consumed instead.  Exactly one of the two is required.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    plan = plan_for(pdb)
    rows = plan.sample_rows(n, batch_rngs(rng=rng, seed=seed)(batch_index))
    return [plan.decode(row) for row in rows]
