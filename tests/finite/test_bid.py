"""Tests for finite block-independent-disjoint tables (§4.4 finite case)."""

import random

import pytest

from repro.errors import ProbabilityError
from repro.finite import Block, BlockIndependentTable
from repro.relational import Instance, Schema

schema = Schema.of(R=2)
R = schema["R"]


def key_table():
    """Two key blocks: key 1 maps to 1 or 2; key 2 maps to 1 (maybe)."""
    return BlockIndependentTable(schema, [
        Block("k1", {R(1, 1): 0.5, R(1, 2): 0.3}),
        Block("k2", {R(2, 1): 0.4}),
    ])


class TestBlock:
    def test_bottom_mass(self):
        block = Block("b", {R(1, 1): 0.3, R(1, 2): 0.5})
        assert block.bottom_mass == pytest.approx(0.2)

    def test_overfull_block_rejected(self):
        with pytest.raises(ProbabilityError):
            Block("b", {R(1, 1): 0.7, R(1, 2): 0.7})

    def test_block_sampling_frequencies(self):
        block = Block("b", {R(1, 1): 0.5, R(1, 2): 0.25})
        rng = random.Random(9)
        outcomes = [block.sample(rng) for _ in range(4000)]
        none_rate = outcomes.count(None) / len(outcomes)
        assert abs(none_rate - 0.25) < 0.03


class TestTable:
    def test_fact_in_two_blocks_rejected(self):
        with pytest.raises(ProbabilityError):
            BlockIndependentTable(schema, [
                Block("a", {R(1, 1): 0.5}),
                Block("b", {R(1, 1): 0.5}),
            ])

    def test_duplicate_block_names_rejected(self):
        with pytest.raises(ProbabilityError):
            BlockIndependentTable(schema, [
                Block("a", {R(1, 1): 0.5}),
                Block("a", {R(2, 2): 0.5}),
            ])

    def test_good_and_bad_instances(self):
        table = key_table()
        assert table.is_good(Instance([R(1, 1), R(2, 1)]))
        assert not table.is_good(Instance([R(1, 1), R(1, 2)]))  # same block
        assert not table.is_good(Instance([R(9, 9)]))  # unknown fact

    def test_instance_probability_product(self):
        table = key_table()
        # P = p_{k1}(R(1,1)) · p_⊥(k2) = 0.5 · 0.6
        assert table.instance_probability(Instance([R(1, 1)])) == pytest.approx(0.3)
        # Both blocks choose a fact: 0.3 · 0.4.
        assert table.instance_probability(
            Instance([R(1, 2), R(2, 1)])) == pytest.approx(0.12)

    def test_bad_instance_zero(self):
        assert key_table().instance_probability(
            Instance([R(1, 1), R(1, 2)])) == 0.0

    def test_facts_order_unchanged_on_mixed_argument_types(self):
        mixed = Schema.of(A=1)
        A = mixed["A"]
        values = [10, 2, "b", "a", 2.5, ("t", 1), True]
        blocks = [
            Block(f"k{i}", {A(v): 0.25}) for i, v in enumerate(values)]
        table = BlockIndependentTable(mixed, blocks)
        assert table.facts() == sorted(A(v) for v in values)
        assert list(table.possible_facts()) == [A(v) for v in values]

    def test_marginals(self):
        table = key_table()
        assert table.marginal(R(1, 2)) == 0.3
        assert table.marginal(R(9, 9)) == 0.0

    def test_expected_size(self):
        assert key_table().expected_size() == pytest.approx(1.2)


class TestExpansion:
    def test_expand_sums_to_one(self):
        pdb = key_table().expand()
        assert sum(pdb.worlds.values()) == pytest.approx(1.0)

    def test_expand_matches_instance_probability(self):
        table = key_table()
        pdb = table.expand()
        for instance in pdb.instances():
            assert pdb.probability_of(instance) == pytest.approx(
                table.instance_probability(instance))

    def test_within_block_exclusivity(self):
        """P(E_{B1} ∩ E_{B2}) = 0 for disjoint subsets of one block —
        Definition 4.11 condition (1)."""
        pdb = key_table().expand()
        joint = pdb.probability(lambda D: R(1, 1) in D and R(1, 2) in D)
        assert joint == 0.0

    def test_across_block_independence(self):
        """Condition (2): facts from different blocks are independent."""
        pdb = key_table().expand()
        joint = pdb.probability(lambda D: R(1, 1) in D and R(2, 1) in D)
        assert joint == pytest.approx(
            pdb.fact_marginal(R(1, 1)) * pdb.fact_marginal(R(2, 1)))


class TestConversions:
    def test_singleton_blocks_to_ti(self):
        table = BlockIndependentTable(schema, [
            Block("a", {R(1, 1): 0.5}),
            Block("b", {R(2, 2): 0.25}),
        ])
        ti = table.to_tuple_independent()
        assert ti.marginal(R(1, 1)) == 0.5

    def test_multi_alternative_block_not_ti(self):
        with pytest.raises(ProbabilityError):
            key_table().to_tuple_independent()


class TestSampling:
    def test_never_samples_bad_instances(self):
        table = key_table()
        rng = random.Random(10)
        for _ in range(500):
            assert table.is_good(table.sample(rng))

    def test_block_choice_frequencies(self):
        table = key_table()
        rng = random.Random(12)
        samples = [table.sample(rng) for _ in range(4000)]
        rate = sum(1 for s in samples if R(1, 2) in s) / len(samples)
        assert abs(rate - 0.3) < 0.03
