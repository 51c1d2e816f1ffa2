"""Tests for explicit finite PDBs."""

import random

import pytest

from repro.errors import ProbabilityError, SchemaError
from repro.finite import FinitePDB
from repro.relational import Instance, RelationSymbol, Schema

schema = Schema.of(R=1)
R = schema["R"]


def simple_pdb():
    return FinitePDB(schema, {
        Instance(): 0.2,
        Instance([R(1)]): 0.3,
        Instance([R(1), R(2)]): 0.5,
    })


class TestConstruction:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(ProbabilityError):
            FinitePDB(schema, {Instance(): 0.5})

    def test_negative_mass_rejected(self):
        with pytest.raises(ProbabilityError):
            FinitePDB(schema, {Instance(): 1.5, Instance([R(1)]): -0.5})

    def test_schema_validated(self):
        S = RelationSymbol("S", 1)
        with pytest.raises(SchemaError):
            FinitePDB(schema, {Instance([S(1)]): 1.0})

    def test_duplicate_instances_merge(self):
        pdb = FinitePDB(schema, {Instance([R(1)]): 1.0})
        assert pdb.probability_of(Instance([R(1)])) == 1.0


class TestMeasure:
    def test_point_masses(self):
        pdb = simple_pdb()
        assert pdb.probability_of(Instance([R(1)])) == 0.3
        assert pdb.probability_of(Instance([R(9)])) == 0.0

    def test_event_probability(self):
        pdb = simple_pdb()
        assert pdb.probability(lambda D: D.size >= 1) == pytest.approx(0.8)

    def test_fact_marginal(self):
        pdb = simple_pdb()
        assert pdb.fact_marginal(R(1)) == pytest.approx(0.8)
        assert pdb.fact_marginal(R(2)) == pytest.approx(0.5)

    def test_facts_union(self):
        assert simple_pdb().facts() == {R(1), R(2)}

    def test_expected_size(self):
        # 0.2·0 + 0.3·1 + 0.5·2 = 1.3 — equals Σ_f P(E_f) (eq. (5)).
        pdb = simple_pdb()
        assert pdb.expected_size() == pytest.approx(1.3)
        assert pdb.expected_size() == pytest.approx(
            pdb.fact_marginal(R(1)) + pdb.fact_marginal(R(2)))

    def test_size_distribution(self):
        assert simple_pdb().size_distribution() == pytest.approx(
            {0: 0.2, 1: 0.3, 2: 0.5})


class TestLeftToRightSums:
    """The worlds oracle folds masses left to right in world order, so it
    gives the same bits on every interpreter: the built-in ``sum``
    compensates float sums from Python 3.12 on."""

    @staticmethod
    def non_dyadic_worlds():
        from repro.finite import TupleIndependentTable

        h0 = Schema.of(R=1, S=2, T=1)
        rng = random.Random(3)
        facts = [h0["R"](i) for i in range(3)] + [h0["T"](i) for i in range(3)]
        facts += [h0["S"](i, j) for i in range(3) for j in range(3)][:7]
        table = TupleIndependentTable(
            h0, {fact: rng.uniform(0.1, 0.9) for fact in facts})
        return h0, table

    def test_query_probability_is_a_plain_fold(self):
        from repro.finite import query_probability
        from repro.logic import BooleanQuery, parse_formula

        h0, table = self.non_dyadic_worlds()
        query = BooleanQuery(parse_formula(
            "EXISTS x, y. R(x) AND S(x, y) AND T(y)", h0), h0)
        pdb = table.expand()
        expected = 0.0
        for instance, mass in pdb.worlds.items():
            if query.holds_in(instance):
                expected += mass
        assert query_probability(query, pdb, strategy="worlds") == expected
        assert query_probability(query, table, strategy="worlds") == expected

    def test_expected_size_is_a_plain_fold(self):
        _, table = self.non_dyadic_worlds()
        pdb = table.expand()
        expected = 0.0
        for instance, mass in pdb.worlds.items():
            expected += mass * instance.size
        assert pdb.expected_size() == expected


class TestConditioning:
    def test_condition_renormalizes(self):
        conditioned = simple_pdb().condition(lambda D: D.size >= 1)
        assert conditioned.probability_of(Instance([R(1)])) == pytest.approx(
            0.3 / 0.8)

    def test_null_event_rejected(self):
        with pytest.raises(ProbabilityError):
            simple_pdb().condition(lambda D: D.size > 99)


class TestSampling:
    def test_sampling_frequencies(self):
        pdb = simple_pdb()
        rng = random.Random(11)
        samples = [pdb.sample(rng) for _ in range(3000)]
        empty_rate = sum(1 for s in samples if s.size == 0) / len(samples)
        assert abs(empty_rate - 0.2) < 0.03

    def test_instances_sorted_deterministically(self):
        listed = list(simple_pdb().instances())
        assert listed == sorted(listed, key=Instance.sort_key)
