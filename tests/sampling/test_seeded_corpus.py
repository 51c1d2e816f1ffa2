"""A fixed-seed corpus of sampling results, pinned bit for bit.

Every literal was recorded from the batched sampler with ``float.hex``
(worlds as sorted fact strings).  A change to how the estimators, the
batch samplers or the ``"sampled"`` strategy consume randomness fails
here even when every statistical test still passes.
"""

import random

import pytest

from repro.core.approx import approximate_query_probability
from repro.core.fact_distribution import GeometricFactDistribution
from repro.core.tuple_independent import CountableTIPDB
from repro.finite import (
    Block,
    BlockIndependentTable,
    TupleIndependentTable,
    query_probability,
    query_probability_karp_luby,
    query_probability_monte_carlo,
)
from repro.finite.montecarlo import event_probability_monte_carlo
from repro.logic import BooleanQuery, parse_formula
from repro.relational import Schema
from repro.sampling import DEFAULT_BATCH_SIZE, sample_instances
from repro.universe import FactSpace, Naturals

schema = Schema.of(R=1, S=2, T=1)
R, S, T = schema["R"], schema["S"], schema["T"]

H0 = "EXISTS x, y. R(x) AND S(x, y) AND T(y)"


def q(text):
    return BooleanQuery(parse_formula(text, schema), schema)


def ti_join():
    marginals = {R(i): 0.35 for i in range(1, 4)}
    marginals.update({S(i, j): 0.3 for i in range(1, 4) for j in range(1, 3)})
    marginals.update({T(j): 0.5 for j in range(1, 3)})
    return TupleIndependentTable(schema, marginals)


def bid():
    return BlockIndependentTable(schema, [
        Block("k1", {R(1): 0.45, R(2): 0.45}),
        Block("k2", {R(3): 0.3}),
        Block("k3", {T(1): 0.2, T(2): 0.5}),
    ])


def worlds():
    return TupleIndependentTable(
        schema, {R(1): 0.6, R(2): 0.3, T(1): 0.7}).expand()


def at_least_two(world):
    return world.size >= 2


def hexes(*values):
    return [float(value).hex() for value in values]


def drawn(pdb, n, **source):
    return [sorted(map(str, world))
            for world in sample_instances(pdb, n, **source)]


MONTE_CARLO = {
    "query-seed": (
        lambda: query_probability_monte_carlo(q(H0), ti_join(), 5000, seed=11),
        ["0x1.09374bc6a7efap-2", "0x1.8de7d1bb0c194p-7"]),
    "query-rng": (
        lambda: query_probability_monte_carlo(
            q(H0), ti_join(), 3000, random.Random(12)),
        ["0x1.020c49ba5e354p-2", "0x1.fd179ad14edf8p-7"]),
    "query-bid-seed": (
        lambda: query_probability_monte_carlo(
            q("(EXISTS x. R(x)) AND (EXISTS y. T(y))"), bid(), 3000,
            seed=13, confidence=0.99),
        ["0x1.51bfd44f30782p-1", "0x1.6d14086bafbaep-6"]),
    "query-worlds-seed": (
        lambda: query_probability_monte_carlo(
            q("EXISTS x. R(x) AND T(1)"), worlds(), 2500, seed=14),
        ["0x1.0000000000000p-1", "0x1.41205bc01a36ep-6"]),
    "event-seed": (
        lambda: event_probability_monte_carlo(
            at_least_two, ti_join(), 4500, seed=15),
        ["0x1.e164ce9ed5727p-1", "0x1.c5f5095efac88p-8"]),
    "event-rng": (
        lambda: event_probability_monte_carlo(
            at_least_two, bid(), 2500, random.Random(16)),
        ["0x1.6d5cfaacd9e84p-1", "0x1.22594680fa285p-6"]),
}


@pytest.mark.parametrize("case", sorted(MONTE_CARLO))
def test_monte_carlo_estimate_and_half_width(case):
    run, expected = MONTE_CARLO[case]
    estimate = run()
    assert hexes(estimate.estimate, estimate.half_width) == expected


KARP_LUBY = {
    "seed": (lambda: query_probability_karp_luby(q(H0), ti_join(), 5000, seed=17),
             ["0x1.01fbc5de9c022p-2", "0x1.428f5c28f5c29p-2"]),
    "rng": (lambda: query_probability_karp_luby(
                q(H0), ti_join(), 3000, random.Random(18)),
            ["0x1.014b9cb6848bfp-2", "0x1.428f5c28f5c29p-2"]),
}


@pytest.mark.parametrize("case", sorted(KARP_LUBY))
def test_karp_luby_estimate_over_several_batches(case):
    run, expected = KARP_LUBY[case]
    estimate = run()
    assert estimate.samples > DEFAULT_BATCH_SIZE
    assert hexes(estimate.estimate, estimate.term_mass) == expected


SAMPLES = {
    ("ti", 21, 0): [
        ["R(1)", "R(2)", "S(1, 1)", "S(3, 1)", "T(1)"], ["S(1, 2)", "T(2)"],
        ["R(2)", "S(1, 1)", "T(2)"],
        ["R(1)", "S(2, 1)", "S(3, 1)", "S(3, 2)", "T(1)"], ["R(2)", "S(2, 1)"],
        ["S(1, 2)", "T(2)"]],
    ("ti", 22, 3): [
        ["R(2)", "S(3, 2)"], ["R(3)", "S(1, 1)", "S(1, 2)", "S(2, 2)", "S(3, 1)"],
        ["S(1, 1)", "S(1, 2)", "S(2, 1)", "S(3, 2)", "T(1)", "T(2)"],
        ["S(1, 1)", "S(1, 2)", "S(2, 1)", "S(2, 2)", "S(3, 2)", "T(2)"],
        ["R(1)", "R(2)", "R(3)", "S(1, 1)", "S(2, 1)", "S(3, 1)", "T(1)"],
        ["R(1)", "R(2)", "S(2, 2)"]],
    ("bid", 21, 0): [
        ["R(1)", "T(2)"], ["R(1)", "R(3)"], ["T(2)"], ["R(1)", "T(1)"],
        ["R(2)", "T(2)"], ["R(2)", "T(2)"]],
    ("bid", 22, 3): [
        ["R(2)"], ["R(1)", "T(2)"], ["R(2)", "R(3)", "T(1)"], ["R(2)", "T(1)"],
        ["R(2)", "T(2)"], ["T(1)"]],
    ("worlds", 21, 0): [
        ["T(1)"], ["T(1)"], ["R(1)", "R(2)", "T(1)"], ["R(2)"], ["R(1)", "T(1)"],
        ["R(1)", "T(1)"]],
    ("worlds", 22, 3): [
        ["R(1)", "T(1)"], ["R(2)"], ["R(1)", "R(2)"], ["R(2)", "T(1)"],
        ["R(1)", "T(1)"], ["R(1)", "R(2)", "T(1)"]],
}

SAMPLES_FROM_RNG = {
    "ti": [
        ["S(1, 1)", "S(3, 1)", "S(3, 2)", "T(1)", "T(2)"], ["R(2)", "R(3)", "S(3, 2)"],
        ["T(1)", "T(2)"], ["S(1, 2)", "S(2, 1)", "S(3, 2)", "T(1)", "T(2)"]],
    "bid": [["T(1)"], ["T(2)"], ["R(2)", "T(2)"], ["R(1)", "R(3)", "T(2)"]],
    "worlds": [
        ["R(1)", "R(2)", "T(1)"], ["R(1)", "R(2)", "T(1)"],
        ["R(1)", "R(2)", "T(1)"], []],
}

MAKERS = {"ti": ti_join, "bid": bid, "worlds": worlds}


@pytest.mark.parametrize("kind,seed,batch_index", sorted(SAMPLES))
def test_sample_instances_from_seed_and_batch_index(kind, seed, batch_index):
    assert drawn(MAKERS[kind](), 6, seed=seed, batch_index=batch_index) == (
        SAMPLES[kind, seed, batch_index])


@pytest.mark.parametrize("kind", sorted(SAMPLES_FROM_RNG))
def test_sample_instances_from_a_caller_rng(kind):
    assert drawn(MAKERS[kind](), 4, rng=random.Random(23)) == (
        SAMPLES_FROM_RNG[kind])


def test_sampled_strategy():
    assert float(query_probability(
        q(H0), ti_join(), strategy="sampled")).hex() == "0x1.040b780346dc6p-2"
    assert float(query_probability(
        q("EXISTS x. R(x)"), bid(), strategy="sampled")).hex() == (
        "0x1.dc2f837b4a234p-1")


def test_sampled_truncation():
    unary = Schema.of(R=1)
    countable = CountableTIPDB(unary, GeometricFactDistribution(
        FactSpace(unary, Naturals()), first=0.3, ratio=0.5))
    query = BooleanQuery(parse_formula("EXISTS x. R(x)", unary), unary)
    result = approximate_query_probability(
        query, countable, 0.01, strategy="sampled")
    assert result.truncation == 6
    assert hexes(result.value, result.sampling_error) == [
        "0x1.f374bc6a7ef9ep-2", "0x1.c601470ea0513p-8"]
