"""Tests for the CountablePDB base machinery (Definition 3.1 generic)."""

import itertools
import math
import random

import pytest

from repro.core.pdb import CountablePDB
from repro.errors import ProbabilityError
from repro.relational import Instance, Schema

schema = Schema.of(R=1)
R = schema["R"]


def finite_pdb():
    return CountablePDB(
        schema,
        lambda: iter([
            (Instance(), 0.25),
            (Instance([R(1)]), 0.5),
            (Instance([R(1), R(2)]), 0.25),
        ]),
        exhaustive=True,
    )


def geometric_world_pdb():
    """World {R(1..n)} with probability 2^{-n}, n ≥ 1 — plus ∅ never."""
    def worlds():
        for n in itertools.count(1):
            yield Instance(R(i) for i in range(1, n + 1)), 2.0**-n

    return CountablePDB(
        schema, worlds, exhaustive=False, mass_tail=lambda n: 2.0**-n)


class TestMeasure:
    def test_instance_probability_scan(self):
        pdb = finite_pdb()
        assert pdb.instance_probability(Instance([R(1)])) == 0.5
        assert pdb.instance_probability(Instance([R(9)])) == 0.0

    def test_event_probability(self):
        assert finite_pdb().probability(lambda D: D.size >= 1) == pytest.approx(0.75)

    def test_infinite_event_probability_with_tail(self):
        pdb = geometric_world_pdb()
        p_even = pdb.probability(lambda D: D.size % 2 == 0, tolerance=1e-9)
        assert p_even == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_budget_exceeded_raises(self):
        def stubborn():
            for n in itertools.count(1):
                yield Instance([R(n)]), 0.0

        pdb = CountablePDB(schema, stubborn, exhaustive=False)
        with pytest.raises(ProbabilityError):
            pdb.probability(lambda D: True, max_worlds=50)


class TestFactEvents:
    def test_fact_marginal(self):
        assert finite_pdb().fact_marginal(R(1)) == pytest.approx(0.75)
        assert finite_pdb().fact_marginal(R(2)) == pytest.approx(0.25)

    def test_fact_set_marginal(self):
        """E_F = "some fact of F occurs" (Definition 3.1)."""
        pdb = finite_pdb()
        assert pdb.fact_set_marginal({R(1), R(2)}) == pytest.approx(0.75)
        assert pdb.fact_set_marginal({R(9)}) == 0.0

    def test_positive_probability_facts_enumerable(self):
        """Proposition 3.4 made effective: F_ω is enumerable by scanning
        positive-mass worlds."""
        pdb = geometric_world_pdb()
        facts = pdb.positive_probability_facts(limit=5)
        assert facts[:2] == [R(1), R(2)]
        assert len(facts) == 5


class TestSizeStatistics:
    def test_size_distribution(self):
        dist = finite_pdb().size_distribution(max_size=2)
        assert dist == {0: pytest.approx(0.25), 1: pytest.approx(0.5),
                        2: pytest.approx(0.25)}

    def test_size_tail_monotone_to_zero(self):
        pdb = geometric_world_pdb()
        tails = [pdb.size_tail(n, tolerance=1e-8) for n in (1, 3, 8)]
        assert tails == sorted(tails, reverse=True)
        assert tails[-1] == pytest.approx(2.0**-7, abs=1e-6)

    def test_expected_size_finite_case(self):
        assert finite_pdb().expected_size() == pytest.approx(1.0)

    def test_expected_size_infinite_enumeration(self):
        # E[size] = Σ n·2^{-n} = 2.
        assert geometric_world_pdb().expected_size(
            tolerance=1e-10) == pytest.approx(2.0, abs=1e-7)


class TestSampling:
    def test_finite_sampling(self):
        pdb = finite_pdb()
        rng = random.Random(91)
        samples = [pdb.sample(rng) for _ in range(3000)]
        rate = sum(1 for s in samples if s.size == 1) / len(samples)
        assert abs(rate - 0.5) < 0.03

    def test_infinite_sampling(self):
        pdb = geometric_world_pdb()
        rng = random.Random(92)
        sizes = [pdb.sample(rng).size for _ in range(2000)]
        assert abs(sizes.count(1) / 2000 - 0.5) < 0.04

    def test_as_space_round_trip(self):
        space = finite_pdb().as_space()
        assert space.probability_of(Instance([R(1)])) == 0.5


def test_subclasses_are_freed_without_the_cycle_collector():
    """Each construction defines its world enumeration and mass tail as
    methods, and a fact distribution's prefix cache does not refer back
    to it, so dropping the last reference frees the PDB, the distribution
    and its materialized prefix by reference counting alone."""
    import gc
    import weakref

    from repro.core.bid import BlockFamily, CountableBIDPDB
    from repro.core.completion import complete
    from repro.core.fact_distribution import GeometricFactDistribution
    from repro.core.size import Example33PDB, MomentGapPDB
    from repro.core.tuple_independent import CountableTIPDB
    from repro.finite.bid import Block
    from repro.finite.tuple_independent import TupleIndependentTable
    from repro.universe import FactSpace, Naturals

    def geometric():
        return GeometricFactDistribution(
            FactSpace(schema, Naturals()), first=0.5, ratio=0.5)

    pair = Schema.of(S=2)
    family = BlockFamily.geometric(
        make_block=lambda i: Block(i, {pair["S"](i, 1): 2.0 ** -(i + 2)}),
        block_mass=lambda i: 2.0 ** -(i + 2), first=0.25, ratio=0.5)
    pdbs = [
        CountableTIPDB(schema, geometric()),
        CountableBIDPDB(pair, family),
        complete(TupleIndependentTable(schema, {R(1): 0.5}), geometric()),
        Example33PDB(),
        MomentGapPDB(1),
    ]
    refs = []
    for pdb in pdbs:
        list(itertools.islice(pdb.worlds(), 4))
        if pdb._mass_tail is not None:
            assert 0.0 <= pdb._mass_tail(3) <= 1.0
        refs.append(weakref.ref(pdb))
        distribution = getattr(getattr(pdb, "new_facts", pdb), "distribution", None)
        if distribution is not None:
            distribution.prefix(3)
            refs.append(weakref.ref(distribution))
            refs.append(weakref.ref(distribution.prefix_cache()))
    del pdb, distribution
    gc.disable()
    try:
        pdbs.clear()
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
