"""Unit tests for the sampling subsystem: seed streams, kernel registry,
plans, and the batched ``sample_batch`` entry points."""

import random

import pytest

from repro.finite import Block, BlockIndependentTable, FinitePDB, TupleIndependentTable
from repro.relational import Instance, Schema
from repro.sampling import (
    PythonKernel,
    SampleStream,
    TIPlan,
    as_stream,
    batch_rngs,
    get_kernel,
    plan_for,
    resolve_rng,
    sample_instances,
)
from repro.sampling.plans import BIDPlan, WorldPlan

schema = Schema.of(R=1)
R = schema["R"]

#: The batched kernel's one name; the one-value parameter keeps each
#: case's ``[python]`` test id.
KERNELS = ("python",)


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


class TestKernelRegistry:
    def test_python_always_available(self):
        assert isinstance(get_kernel("python"), PythonKernel)
        assert get_kernel("python").name == "python"

    def test_auto_resolves(self):
        assert get_kernel("auto") is get_kernel("python")

    def test_scalar_is_not_a_kernel(self):
        with pytest.raises(ValueError):
            get_kernel("scalar")

    def test_unknown_backend_rejected(self):
        for backend in ("cuda", "numpy"):
            with pytest.raises(ValueError, match="unknown sampling backend"):
                get_kernel(backend)

    def test_resolve_rng_requires_a_source(self):
        kernel = get_kernel("python")
        with pytest.raises(ValueError):
            resolve_rng(kernel)
        with pytest.raises(ValueError):
            batch_rngs(kernel)

    def test_python_kernel_rejects_foreign_rng(self):
        with pytest.raises(TypeError):
            get_kernel("python").adapt_rng(object())


class TestKernelDraws:
    @pytest.mark.parametrize("backend", KERNELS)
    def test_bernoulli_rows_shape_and_determinism(self, backend):
        kernel = get_kernel(backend)
        probs = (0.0, 0.25, 0.5, 1.0)
        rows = kernel.bernoulli_rows(probs, 64, kernel.make_rng(7))
        again = kernel.bernoulli_rows(probs, 64, kernel.make_rng(7))
        assert rows == again
        assert len(rows) == 64
        for row in rows:
            assert 0 not in row  # probability-0 fact never drawn
            assert 3 in row      # probability-1 fact always drawn
            assert list(row) == sorted(row)

    @pytest.mark.parametrize("backend", KERNELS)
    def test_categorical_respects_remainder_mass(self, backend):
        kernel = get_kernel(backend)
        cumulative = (0.2, 0.5)  # remainder mass 0.5
        draws = kernel.categorical(cumulative, 2000, kernel.make_rng(3),
                                   scale=1.0)
        assert set(draws) <= {0, 1, 2}
        fraction_bottom = draws.count(2) / len(draws)
        assert abs(fraction_bottom - 0.5) < 0.05

    @pytest.mark.parametrize("backend", KERNELS)
    def test_categorical_defaults_scale_to_total(self, backend):
        kernel = get_kernel(backend)
        cumulative = (1.0, 3.0)
        draws = kernel.categorical(cumulative, 1000, kernel.make_rng(11))
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
        kernel = get_kernel("python")
        rows = plan.sample_rows(kernel, 50, kernel.make_rng(1))
        assert all(0 <= row[0] < len(plan.instances) for row in rows)


class TestSampleBatch:
    @pytest.mark.parametrize("backend", KERNELS)
    @pytest.mark.parametrize("make", [ti_table, bid_table,
                                      lambda: ti_table().expand()])
    def test_reproducible_from_seed_and_batch_index(self, backend, make):
        pdb = make()
        first = pdb.sample_batch(20, seed=13, backend=backend, batch_index=2)
        second = pdb.sample_batch(20, seed=13, backend=backend, batch_index=2)
        other = pdb.sample_batch(20, seed=13, backend=backend, batch_index=3)
        assert first == second
        assert first != other

    @pytest.mark.parametrize("make", [ti_table, bid_table,
                                      lambda: ti_table().expand()])
    def test_scalar_backend_matches_sample_loop(self, make):
        pdb = make()
        batch = pdb.sample_batch(15, seed=21, backend="scalar")
        reference = [pdb.sample(random.Random(21)) for _ in range(1)]
        assert batch[0] == reference[0]
        assert all(isinstance(world, Instance) for world in batch)

    def test_requires_randomness_source(self):
        with pytest.raises(ValueError):
            ti_table().sample_batch(5)
        with pytest.raises(ValueError):
            sample_instances(ti_table(), 5)

    @pytest.mark.parametrize("backend", KERNELS)
    def test_marginals_recovered(self, backend):
        table = ti_table()
        worlds = table.sample_batch(4000, seed=2, backend=backend)
        for fact, probability in table.marginals.items():
            frequency = sum(1 for world in worlds if fact in world) / 4000
            assert abs(frequency - probability) < 0.03
