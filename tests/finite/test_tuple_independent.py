"""Tests for finite tuple-independent tables."""

import itertools
import random

import pytest

from repro.errors import ProbabilityError, SchemaError
from repro.finite import TupleIndependentTable
from repro.relational import Instance, RelationSymbol, Schema

schema = Schema.of(R=1)
R = schema["R"]


class TestConstruction:
    def test_out_of_range_marginal(self):
        with pytest.raises(ProbabilityError):
            TupleIndependentTable(schema, {R(1): 1.5})

    def test_foreign_relation(self):
        S = RelationSymbol("S", 1)
        with pytest.raises(SchemaError):
            TupleIndependentTable(schema, {S(1): 0.5})

    @pytest.mark.parametrize("value", [1.5, float("nan"), -0.25, "0.5"],
                             ids=repr)
    def test_error_texts_name_the_fact(self, value):
        from repro.core.fact_distribution import TableFactDistribution
        from repro.finite.bid import Block

        makers_by_label = {
            "marginal": [
                lambda m: TupleIndependentTable(schema, m),
                lambda m: TupleIndependentTable(schema, {}).extend(m),
            ],
            "probability": [
                lambda m: Block("b", m),
                TableFactDistribution,
            ],
        }
        for label, makers in makers_by_label.items():
            for make in makers:
                with pytest.raises(ProbabilityError) as caught:
                    make({R(1): value})
                assert str(caught.value) == (
                    f"{label} of R(1) must lie in [0, 1], got {value!r}")

    def test_zero_probability_facts_dropped(self):
        table = TupleIndependentTable(schema, {R(1): 0.0, R(2): 0.5})
        assert table.facts() == [R(2)]


class TestExtend:
    def test_zeroing_a_listed_marginal_is_rejected(self):
        table = TupleIndependentTable(schema, {R(1): 0.5})
        with pytest.raises(ProbabilityError, match="from 0.5 to 0.0"):
            table.extend({R(1): 0.0})
        assert table.marginal(R(1)) == 0.5

    def test_relisting_an_unchanged_marginal_is_a_no_op(self):
        table = TupleIndependentTable(schema, {R(1): 0.5})
        table.extend({R(1): 0.5, R(2): 0.0})
        assert table.marginals == {R(1): 0.5}

    @pytest.mark.parametrize("bad", [
        {R(3): 1.5},
        {R(1): 0.75},
        {RelationSymbol("S", 1)(3): 0.5},
    ], ids=["out-of-range", "changed", "foreign-relation"])
    def test_a_rejected_batch_leaves_the_table_untouched(self, bad):
        table = TupleIndependentTable(schema, {R(1): 0.5})
        mirror = table.columns  # build the columnar mirror first
        batch = {R(2): 0.25, **bad}
        with pytest.raises((ProbabilityError, SchemaError)):
            table.extend(batch)
        assert table.marginals == {R(1): 0.5}
        assert len(table) == len(mirror) == 1
        assert R(2) not in mirror
        table.extend({R(2): 0.25})
        assert list(table.possible_facts()) == [R(1), R(2)]
        assert len(mirror) == 2


class TestFactOrder:
    MIXED = Schema.of(A=1, B=2)

    def mixed_facts(self):
        A, B = self.MIXED["A"], self.MIXED["B"]
        values = [10, 2, -1, 2.5, "b", "a", "10", True, False,
                  ("t", 1), ("t", "a"), (), 0.5]
        facts = [A(v) for v in values]
        facts += [B(u, v) for u, v in itertools.product(values[:6], repeat=2)]
        random.Random(7).shuffle(facts)
        return facts

    def test_facts_order_unchanged_on_mixed_argument_types(self):
        """``facts()`` sorts by ``Fact.sort_key`` instead of pairwise
        ``Fact.__lt__`` — the same comparisons, hence the same order."""
        facts = self.mixed_facts()
        table = TupleIndependentTable(self.MIXED, {f: 0.5 for f in facts})
        assert table.facts() == sorted(facts)
        assert table.facts() == sorted(table.possible_facts())

    def test_possible_facts_is_the_unsorted_insertion_view(self):
        facts = self.mixed_facts()
        table = TupleIndependentTable(self.MIXED, {f: 0.5 for f in facts})
        assert list(table.possible_facts()) == facts
        table.extend({self.MIXED["A"](99): 0.25})
        assert list(table.possible_facts())[-1] == self.MIXED["A"](99)


class TestInstanceProbability:
    def test_product_formula(self):
        table = TupleIndependentTable(schema, {R(1): 0.8, R(2): 0.5})
        assert table.instance_probability(Instance([R(1)])) == pytest.approx(0.4)
        assert table.instance_probability(Instance([R(1), R(2)])) == pytest.approx(0.4)
        assert table.instance_probability(Instance()) == pytest.approx(0.1)

    def test_impossible_fact_zero(self):
        table = TupleIndependentTable(schema, {R(1): 0.8})
        assert table.instance_probability(Instance([R(9)])) == 0.0

    def test_all_worlds_sum_to_one(self):
        table = TupleIndependentTable(
            schema, {R(i): 0.1 * i for i in range(1, 6)})
        total = sum(
            table.instance_probability(Instance(c))
            for r in range(6)
            for c in itertools.combinations(table.facts(), r)
        )
        assert total == pytest.approx(1.0)

    def test_empty_world_probability(self):
        table = TupleIndependentTable(schema, {R(1): 0.5, R(2): 0.5})
        assert table.empty_world_probability() == pytest.approx(0.25)


class TestExpansion:
    def test_expand_matches_products(self):
        table = TupleIndependentTable(schema, {R(1): 0.3, R(2): 0.6})
        pdb = table.expand()
        assert len(pdb) == 4
        for instance in pdb.instances():
            assert pdb.probability_of(instance) == pytest.approx(
                table.instance_probability(instance))

    def test_expand_marginals_match(self):
        table = TupleIndependentTable(schema, {R(1): 0.3, R(2): 0.6})
        pdb = table.expand()
        assert pdb.fact_marginal(R(1)) == pytest.approx(0.3)

    def test_expand_size_guard(self):
        table = TupleIndependentTable(
            schema, {R(i): 0.5 for i in range(30)})
        with pytest.raises(ProbabilityError):
            table.expand()


class TestDerivedTables:
    def test_expected_size_is_sum(self):
        table = TupleIndependentTable(schema, {R(1): 0.8, R(2): 0.5})
        assert table.expected_size() == pytest.approx(1.3)

    def test_top_picks_most_probable(self):
        table = TupleIndependentTable(
            schema, {R(1): 0.1, R(2): 0.9, R(3): 0.5})
        assert table.top(2).facts() == [R(2), R(3)]

    def test_restrict(self):
        table = TupleIndependentTable(schema, {R(1): 0.5, R(2): 0.5})
        assert table.restrict([R(1)]).facts() == [R(1)]


class TestSampling:
    def test_marginal_frequencies(self):
        table = TupleIndependentTable(schema, {R(1): 0.25, R(2): 0.75})
        rng = random.Random(3)
        samples = table.sample_many(4000, rng)
        rate1 = sum(1 for s in samples if R(1) in s) / len(samples)
        rate2 = sum(1 for s in samples if R(2) in s) / len(samples)
        assert abs(rate1 - 0.25) < 0.03 and abs(rate2 - 0.75) < 0.03

    def test_sampled_independence(self):
        """Empirical joint ≈ product of empirical marginals."""
        table = TupleIndependentTable(schema, {R(1): 0.5, R(2): 0.5})
        rng = random.Random(4)
        samples = table.sample_many(6000, rng)
        both = sum(1 for s in samples if R(1) in s and R(2) in s) / len(samples)
        assert abs(both - 0.25) < 0.03
