"""Tests for the zeta-family closed forms and the enumeration back-off
for slowly converging tails."""

import itertools
import math

import pytest

from repro.core.fact_distribution import ZetaFactDistribution
from repro.core.tuple_independent import CountableTIPDB
from repro.relational import Instance, Schema
from repro.universe import FactSpace, Naturals

schema = Schema.of(R=1)
R = schema["R"]
space = FactSpace(schema, Naturals())


def zeta_pdb(exponent=2.0, scale=0.5):
    return CountableTIPDB(
        schema, ZetaFactDistribution(space, exponent=exponent, scale=scale))


class TestClosedFormComplement:
    def test_matches_long_direct_sum(self):
        d = ZetaFactDistribution(space, exponent=2.0, scale=0.5)
        closed = d.log_complement_product()
        direct = sum(
            math.log1p(-0.5 / i**2) for i in range(1, 2 * 10**5)
        )
        # Direct misses i ≥ 2·10⁵: remaining ≈ 0.5/(2·10⁵) = 2.5e-6.
        assert closed == pytest.approx(direct, abs=1e-5)

    def test_scale_one_gives_zero_product(self):
        d = ZetaFactDistribution(space, exponent=2.0, scale=1.0)
        assert d.log_complement_product() == -math.inf

    def test_empty_world_probability_exact(self):
        pdb = zeta_pdb()
        value = pdb.empty_world_probability()
        assert 0.0 < value < 1.0
        # Consistency with the distribution-level closed form.
        assert value == pytest.approx(math.exp(
            pdb.distribution.log_complement_product()), rel=1e-12)

    def test_instance_probability_exact_bounds(self):
        pdb = zeta_pdb()
        low, high = pdb.instance_probability_bounds(Instance([R(1)]))
        assert low == high  # closed form: exact, no truncation slack
        # P({R(1)}) = (p/(1−p)) · Π(1−p_i) with p = 0.5.
        assert high == pytest.approx(
            pdb.empty_world_probability() * 1.0, rel=1e-9)


class TestEnumerationBackOff:
    def test_worlds_enumerable_despite_slow_tail(self):
        pdb = zeta_pdb()
        worlds = list(itertools.islice(pdb.worlds(), 200))
        assert len(worlds) == 200
        assert len({w for w, _ in worlds}) == 200

    def test_running_mass_approaches_one(self):
        pdb = zeta_pdb()
        mass = sum(m for _, m in itertools.islice(pdb.worlds(), 2**12))
        assert mass > 0.9

    def test_mass_tail_still_sound(self):
        pdb = zeta_pdb()
        for count in (2**4, 2**8, 2**12):
            enumerated = sum(
                m for _, m in itertools.islice(pdb.worlds(), count))
            assert 1.0 - enumerated <= pdb._world_mass_tail(count) + 1e-9

    def test_event_probability_with_coarse_tolerance(self):
        pdb = zeta_pdb()
        marginal = pdb.probability(lambda D: R(1) in D, tolerance=0.05)
        assert marginal == pytest.approx(0.5, abs=0.06)


def test_building_a_zeta_pdb_sums_no_series(monkeypatch):
    """Convergence follows from ``exponent > 1``, so a countable TI PDB
    over a zeta family is built without evaluating the family's total;
    the first ``total_mass()`` evaluates it."""
    from repro.analysis import series

    calls = []
    evaluate = series._ZetaTotal.__call__

    def counted(self):
        calls.append(self)
        return evaluate(self)

    monkeypatch.setattr(series._ZetaTotal, "__call__", counted)
    distribution = ZetaFactDistribution(space, exponent=1.5, scale=0.5)
    pdb = CountableTIPDB(schema, distribution)
    assert distribution.convergent
    assert calls == []
    assert pdb.expected_size() == distribution.total_mass()
    assert len(calls) == 1
