"""Unit tests for the sampling subsystem: seed streams, RNG sources,
the batched draws, plans, and the ``sample_instances`` batch sampler."""

import random

import pytest

from repro.finite import Block, BlockIndependentTable, FinitePDB, TupleIndependentTable
from repro.relational import Instance, Schema
from repro.sampling import (
    DEFAULT_BATCH_SIZE,
    SampleStream,
    TIPlan,
    as_stream,
    batch_rngs,
    batches,
    bernoulli_rows,
    categorical,
    plan_for,
    sample_instances,
)
from repro.sampling.plans import BIDPlan, WorldPlan

schema = Schema.of(R=1)
R = schema["R"]

#: The pure-Python batched sampler, the only one; the one-value
#: parameter keeps each case's ``[python]`` test id.
SAMPLERS = ("python",)


def ti_table():
    return TupleIndependentTable(schema, {R(1): 0.8, R(2): 0.5, R(3): 0.1})


def bid_table():
    return BlockIndependentTable(schema, [
        Block("k1", {R(1): 0.3, R(2): 0.5}),
        Block("k2", {R(3): 0.25}),
    ])


class TestSampleStream:
    def test_child_seeds_reproducible(self):
        assert SampleStream(9).child_seed(4) == SampleStream(9).child_seed(4)

    def test_child_seeds_distinct(self):
        stream = SampleStream(9)
        seeds = {stream.child_seed(i) for i in range(100)}
        assert len(seeds) == 100

    def test_different_roots_diverge(self):
        assert SampleStream(1).child_seed(0) != SampleStream(2).child_seed(0)

    def test_negative_batch_rejected(self):
        with pytest.raises(ValueError):
            SampleStream(0).child_seed(-1)

    def test_as_stream_idempotent(self):
        stream = SampleStream(5)
        assert as_stream(stream) is stream
        assert as_stream(5) == stream


class TestRngSources:
    def test_exactly_one_source_is_required(self):
        with pytest.raises(ValueError):
            batch_rngs()
        with pytest.raises(ValueError):
            batch_rngs(rng=random.Random(1), seed=2)

    def test_a_seed_gives_each_batch_its_stream_rng(self):
        expected = SampleStream(5).python_rng(2).random()
        assert batch_rngs(seed=5)(2).random() == expected

    def test_a_caller_rng_is_used_as_given(self):
        rng = random.Random(1)
        assert batch_rngs(rng=rng)(3) is rng

    def test_batches_cover_the_samples_in_order(self):
        sizes = [k for k, _ in batches(2 * DEFAULT_BATCH_SIZE + 5, seed=5)]
        assert sizes == [DEFAULT_BATCH_SIZE, DEFAULT_BATCH_SIZE, 5]
        rngs = [rng for _, rng in batches(2 * DEFAULT_BATCH_SIZE, seed=5)]
        assert [rng.random() for rng in rngs] == [
            SampleStream(5).python_rng(i).random() for i in range(2)]


class TestKernelDraws:
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_bernoulli_rows_shape_and_determinism(self, sampler):
        probs = (0.0, 0.25, 0.5, 1.0)
        rows = bernoulli_rows(probs, 64, random.Random(7))
        again = bernoulli_rows(probs, 64, random.Random(7))
        assert rows == again
        assert len(rows) == 64
        for row in rows:
            assert 0 not in row  # probability-0 fact never drawn
            assert 3 in row      # probability-1 fact always drawn
            assert list(row) == sorted(row)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_categorical_respects_remainder_mass(self, sampler):
        cumulative = (0.2, 0.5)  # remainder mass 0.5
        draws = categorical(cumulative, 2000, random.Random(3), scale=1.0)
        assert set(draws) <= {0, 1, 2}
        fraction_bottom = draws.count(2) / len(draws)
        assert abs(fraction_bottom - 0.5) < 0.05

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_categorical_defaults_scale_to_total(self, sampler):
        cumulative = (1.0, 3.0)
        draws = categorical(cumulative, 1000, random.Random(11))
        assert set(draws) <= {0, 1}


class TestPlans:
    def test_plan_dispatch(self):
        assert isinstance(plan_for(ti_table()), TIPlan)
        assert isinstance(plan_for(bid_table()), BIDPlan)
        assert isinstance(plan_for(ti_table().expand()), WorldPlan)
        with pytest.raises(Exception):
            plan_for(object())

    def test_ti_plan_decode_roundtrip(self):
        plan = plan_for(ti_table())
        assert plan.decode((0, 2)) == Instance([plan.facts[0], plan.facts[2]])

    def test_bid_plan_bottom_index_decodes_to_absence(self):
        plan = plan_for(bid_table())
        # Block k1 has 2 alternatives, block k2 has 1; index == len means ⊥.
        assert plan.decode((2, 1)) == Instance()
        assert plan.decode((0, 0)).size == 2

    def test_world_plan_rows_are_indices(self):
        pdb = ti_table().expand()
        plan = plan_for(pdb)
        rows = plan.sample_rows(50, random.Random(1))
        assert all(0 <= row[0] < len(plan.instances) for row in rows)


class TestSampleBatch:
    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("make", [ti_table, bid_table,
                                      lambda: ti_table().expand()])
    def test_reproducible_from_seed_and_batch_index(self, sampler, make):
        pdb = make()
        first = sample_instances(pdb, 20, seed=13, batch_index=2)
        second = sample_instances(pdb, 20, seed=13, batch_index=2)
        other = sample_instances(pdb, 20, seed=13, batch_index=3)
        assert first == second
        assert first != other
        assert all(isinstance(world, Instance) for world in first)

    def test_requires_randomness_source(self):
        with pytest.raises(ValueError):
            sample_instances(ti_table(), 5)
        with pytest.raises(ValueError):
            sample_instances(ti_table(), 5, rng=random.Random(1), seed=2)
        with pytest.raises(ValueError):
            sample_instances(ti_table(), -1, seed=1)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_marginals_recovered(self, sampler):
        table = ti_table()
        worlds = sample_instances(table, 4000, seed=2)
        for fact, probability in table.marginals.items():
            frequency = sum(1 for world in worlds if fact in world) / 4000
            assert abs(frequency - probability) < 0.03
