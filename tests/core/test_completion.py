"""Tests for Theorem 5.5 completions: the open-world construction."""

import math
import random

import pytest

from repro.core.completion import (
    CompletedPDB,
    closed_world_completion,
    complete,
    extend_to_closure,
    open_world,
    verify_completion_condition,
)
from repro.core.fact_distribution import (
    GeometricFactDistribution,
    TableFactDistribution,
)
from repro.core.refine import RefinementSession
from repro.errors import CompletionError
from repro.finite.bid import Block, BlockIndependentTable
from repro.finite.pdb import FinitePDB
from repro.finite.tuple_independent import TupleIndependentTable
from repro.logic import BooleanQuery, Query, parse_formula
from repro.relational import Instance, Schema
from repro.universe import FactSpace, Naturals

schema = Schema.of(R=1)
R = schema["R"]
space = FactSpace(schema, Naturals())


def original_table():
    return TupleIndependentTable(schema, {R(1): 0.8, R(2): 0.4})


def original_blocks():
    return BlockIndependentTable(schema, [
        Block("k1", {R(1): 0.5, R(2): 0.25}), Block("k2", {R(4): 0.75})])


def geometric_new_facts():
    """Open-world weights 2^{-i}, automatically excluding F(D)."""
    return GeometricFactDistribution(space, first=0.5, ratio=0.5)


class TestCompletionCondition:
    """Definition 5.1 (CC): P′(A | Ω) = P(A)."""

    def test_holds_for_every_original_world(self):
        completed = complete(original_table(), geometric_new_facts())
        assert verify_completion_condition(completed) < 1e-9

    def test_holds_for_composite_events(self):
        completed = complete(original_table(), geometric_new_facts())
        original = original_table().expand()
        # Event A = "R(1) present", restricted to original worlds.
        p_conditional = sum(
            completed.conditioned_on_original(world)
            for world in original.instances()
            if R(1) in world
        )
        assert p_conditional == pytest.approx(
            original.probability(lambda D: R(1) in D), abs=1e-9)

    def test_original_space_has_positive_probability(self):
        completed = complete(original_table(), geometric_new_facts())
        assert completed.original_space_probability() > 0.0


class TestOpenWorldSemantics:
    def test_new_facts_get_specified_probability(self):
        completed = complete(original_table(), geometric_new_facts())
        # R(3) has rank 2 in the fact space: p = 0.5^3 = 0.125.
        assert completed.fact_marginal(R(3)) == pytest.approx(0.125)

    def test_original_marginals_preserved(self):
        completed = complete(original_table(), geometric_new_facts())
        assert completed.fact_marginal(R(1)) == pytest.approx(0.8)
        assert completed.fact_marginal(R(2)) == pytest.approx(0.4)

    def test_new_instances_have_positive_probability(self):
        """The heart of the open world: unseen instances are unlikely,
        not impossible."""
        completed = complete(original_table(), geometric_new_facts())
        new_instance = Instance([R(1), R(5)])  # R(5) never listed
        assert completed.instance_probability(new_instance) > 0.0

    def test_plausibility_ordering(self):
        """Closer-to-known facts are more plausible (decaying weights):
        contrast with CWA where both would be probability 0."""
        completed = complete(original_table(), geometric_new_facts())
        near = completed.instance_probability(Instance([R(3)]))
        far = completed.instance_probability(Instance([R(9)]))
        assert near > far > 0.0

    def test_expected_size_adds_up(self):
        completed = complete(original_table(), geometric_new_facts())
        new_mass = sum(
            0.5**i for i in range(1, 60)) - 0.5 - 0.25  # minus F(D) ranks
        assert completed.expected_size() == pytest.approx(
            1.2 + new_mass, abs=1e-6)

    def test_product_structure(self):
        """P′({D ⊎ C}) = P({D}) · P₁({C})."""
        completed = complete(original_table(), geometric_new_facts())
        d_part = Instance([R(1)])
        c_part = Instance([R(4)])
        joint = completed.instance_probability(d_part | c_part)
        base = completed.original.instance_probability(d_part)
        extra = completed.new_facts.instance_probability(c_part)
        assert joint == pytest.approx(base * extra, rel=1e-9)


class TestClosedWorldBaseline:
    """Remark 5.2: CWA = the all-zeroes completion."""

    def test_new_facts_impossible(self):
        cwa = closed_world_completion(original_table())
        assert cwa.fact_marginal(R(5)) == 0.0
        assert cwa.instance_probability(Instance([R(5)])) == 0.0

    def test_original_untouched(self):
        cwa = closed_world_completion(original_table())
        assert cwa.original_space_probability() == pytest.approx(1.0)
        assert verify_completion_condition(cwa) < 1e-12


class TestIllPosedCompletions:
    def test_probability_one_new_fact_rejected(self):
        with pytest.raises(CompletionError):
            complete(original_table(), TableFactDistribution({R(9): 1.0}))

    def test_overlap_is_filtered_not_fatal(self):
        """A distribution mentioning F(D) is restricted, per Thm 5.5."""
        completed = complete(
            original_table(),
            TableFactDistribution({R(1): 0.9, R(5): 0.1}),
        )
        # R(1) keeps its original marginal; the open-world 0.9 is ignored.
        assert completed.fact_marginal(R(1)) == pytest.approx(0.8)
        assert completed.fact_marginal(R(5)) == pytest.approx(0.1)


class TestClosureExtension:
    def test_extends_to_all_subsets(self):
        pdb = FinitePDB(schema, {Instance([R(1), R(2)]): 1.0})
        extended = extend_to_closure(pdb, c=0.5)
        assert len(extended) == 4
        assert extended.probability_of(Instance([R(1), R(2)])) == pytest.approx(0.5)
        assert extended.probability_of(Instance()) == pytest.approx(0.5 / 3)

    def test_custom_missing_weights(self):
        pdb = FinitePDB(schema, {Instance([R(1)]): 1.0})
        weights = {Instance(): 1.0}
        extended = extend_to_closure(pdb, c=0.75, missing_weights=weights)
        assert extended.probability_of(Instance()) == pytest.approx(0.25)

    def test_completion_condition_after_extension(self):
        """The §5 two-step: extend, complete, verify P′({D}|Ω₀) = P₀({D})
        up to the factor c (the paper's calculation below Theorem 5.5)."""
        pdb = FinitePDB(schema, {Instance([R(1), R(2)]): 1.0})
        extended = extend_to_closure(pdb, c=0.5)
        completed = complete(extended, TableFactDistribution({R(7): 0.25}))
        original_world = Instance([R(1), R(2)])
        conditional = completed.conditioned_on_original(original_world)
        # Conditioning on the *extended* Ω retains the c-scaled masses;
        # conditioning further on Ω₀ recovers P₀ exactly:
        p_omega0 = sum(
            completed.conditioned_on_original(world)
            for world in [original_world]
        )
        assert conditional / p_omega0 == pytest.approx(1.0)

    def test_invalid_mass(self):
        pdb = FinitePDB(schema, {Instance([R(1)]): 1.0})
        with pytest.raises(CompletionError):
            extend_to_closure(pdb, c=0.0)

    def test_already_closed_needs_c_one(self):
        pdb = TupleIndependentTable(schema, {R(1): 0.5}).expand()
        with pytest.raises(CompletionError):
            extend_to_closure(pdb, c=0.5)


class TestTruncationOfCompletion:
    def test_truncate_gives_finite_pdb(self):
        """A TI original truncates to its own table plus the first n new
        facts; explicit worlds truncate to the world product."""
        completed = complete(original_table(), geometric_new_facts())
        table = completed.truncate(3)
        assert isinstance(table, TupleIndependentTable)
        new_facts = completed.new_facts.distribution.marginals_dict(3)
        assert list(table.marginals.items()) == (
            list(original_table().marginals.items())
            + list(new_facts.items()))
        worlds = complete(original_table().expand(), geometric_new_facts())
        finite = worlds.truncate(3)
        assert isinstance(finite, FinitePDB)
        assert len(finite) == 2 ** 5
        assert sum(finite.worlds.values()) == pytest.approx(1.0)

    def test_truncation_marginals(self):
        completed = complete(original_table(), geometric_new_facts())
        table = completed.truncate(4)
        assert table.marginal(R(1)) == 0.8
        # R(3) is among the first new facts kept.
        assert table.marginal(R(3)) == 0.125

    def test_bid_original_gains_one_singleton_block_per_new_fact(self):
        original = original_blocks()
        completed = complete(original, geometric_new_facts())
        table = completed.truncate(3)
        assert isinstance(table, BlockIndependentTable)
        assert table.blocks[:2] == original.blocks
        assert [block.alternatives for block in table.blocks[2:]] == [
            {fact: p} for fact, p
            in completed.new_facts.distribution.prefix(3)]

    def test_new_block_names_must_not_collide(self):
        taken = BlockIndependentTable(
            schema, [Block("new fact 0", {R(1): 0.5})])
        with pytest.raises(CompletionError, match="collide"):
            complete(taken, geometric_new_facts())

    @pytest.mark.parametrize("make_original", [original_table, original_blocks])
    def test_extend_truncation_grows_to_truncate(self, make_original):
        completed = complete(make_original(), geometric_new_facts())
        table = completed.truncate(2)
        assert completed.extend_truncation(table, 5) == 2
        assert completed.extend_truncation(table, 5) == 5
        fresh = completed.truncate(5)
        if isinstance(table, TupleIndependentTable):
            assert list(table.marginals.items()) == list(
                fresh.marginals.items())
        else:
            assert [(b.name, b.alternatives) for b in table.blocks] == [
                (b.name, b.alternatives) for b in fresh.blocks]

    def test_explicit_worlds_are_rebuilt_not_extended(self):
        completed = complete(original_table().expand(), geometric_new_facts())
        with pytest.raises(CompletionError, match="rebuilt"):
            completed.extend_truncation(completed.truncate(2), 3)

    def test_sampling_completion(self):
        completed = complete(original_table(), geometric_new_facts())
        rng = random.Random(55)
        samples = [completed.sample(rng) for _ in range(1500)]
        rate = sum(1 for s in samples if R(1) in s) / len(samples)
        assert abs(rate - 0.8) < 0.04


class TestCompletionSampling:
    """A draw of the completion is a draw of the original times one of
    the new facts: no world of the product is enumerated."""

    def test_a_thirty_fact_table_samples(self):
        Likes = TestTableOriginalsStayTables.Likes
        table = TupleIndependentTable(
            TestTableOriginalsStayTables.likes_schema,
            {Likes(i, i + 1): 0.9 for i in range(30)})
        completed = open_world(table, total_open_mass=0.2)
        world = completed.sample(random.Random(1))
        original_part, _ = completed.decompose(world)
        assert 0 < original_part.size <= 30

    @pytest.mark.parametrize("make", [original_table, original_blocks])
    def test_fact_frequencies_match_the_marginals(self, make):
        draws = 4000
        completed = complete(make(), geometric_new_facts())
        rng = random.Random(7)
        worlds = [completed.sample(rng) for _ in range(draws)]
        original = sorted(make().possible_facts(), key=repr)[:2]
        new = [fact for fact, _ in completed.new_facts.distribution.prefix(2)]
        z = 2.5758  # two-sided 99%
        for fact in original + new:
            p = completed.fact_marginal(fact)
            frequency = sum(fact in world for world in worlds) / draws
            assert abs(frequency - p) <= z * math.sqrt(p * (1 - p) / draws), (
                fact, frequency, p)


class TestTableOriginalsStayTables:
    """Nothing but the exhaustive checks expands a table original, so a
    completion of a table too large to expand still answers."""

    likes_schema = Schema.of(Likes=2)
    Likes = likes_schema["Likes"]

    @classmethod
    def tables(cls):
        Likes = cls.Likes
        yield TupleIndependentTable(
            cls.likes_schema, {Likes(i, i + 1): 0.9 for i in range(30)})
        yield BlockIndependentTable(cls.likes_schema, [
            Block(f"k{i}", {Likes(i, 100 + i): 0.5, Likes(i, 200 + i): 0.25})
            for i in range(15)])

    def test_thirty_fact_tables_never_expand(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a table original was expanded")

        monkeypatch.setattr(TupleIndependentTable, "expand", refuse)
        monkeypatch.setattr(BlockIndependentTable, "expand", refuse)
        schema2 = self.likes_schema
        boolean = BooleanQuery(parse_formula(
            "EXISTS x, y. Likes(x, y) AND Likes(y, x)", schema2), schema2)
        answers = Query(parse_formula("EXISTS y. Likes(x, y)", schema2),
                        schema2)
        for table in self.tables():
            completed = complete(table, GeometricFactDistribution(
                FactSpace(schema2, Naturals()), first=0.1, ratio=0.5))
            assert open_world(table, total_open_mass=0.2).original is table
            result = RefinementSession(boolean, completed).refine(0.01)
            assert result.truncation > 0 and 0.0 <= result.value <= 1.0
            marginals = RefinementSession(
                answers, completed).refine_marginals(0.05)
            assert marginals
            fact = next(iter(table.possible_facts()))
            assert completed.fact_marginal(fact) == table.marginal(fact)
            world = Instance([fact])
            assert completed.instance_probability(world) == pytest.approx(
                table.instance_probability(world)
                * completed.original_space_probability())
            assert completed.conditioned_on_original(world) == pytest.approx(
                table.instance_probability(world))
            assert completed.expected_size() == (
                table.expected_size() + completed.new_facts.expected_size())
