"""Tests for the BID extension of the Proposition 6.1 approximation."""

import pytest

from repro.core.approx import approximate_query_probability_bid
from repro.core.bid import BlockFamily, CountableBIDPDB
from repro.errors import ApproximationError
from repro.finite.bid import Block
from repro.logic import BooleanQuery, parse_formula
from repro.relational import Schema

schema = Schema.of(R=2)
R = schema["R"]


def key_pdb(ratio=0.5):
    def make_block(i: int) -> Block:
        mass = 0.5 * ratio**i
        return Block(f"k{i + 1}", {
            R(i + 1, 1): mass / 2, R(i + 1, 2): mass / 2,
        })

    family = BlockFamily.geometric(
        make_block=make_block,
        block_mass=lambda i: 0.5 * ratio**i,
        first=0.5,
        ratio=ratio,
    )
    return CountableBIDPDB(schema, family)


def q(text):
    return BooleanQuery(parse_formula(text, schema), schema)


def exists_truth(pdb, depth=100):
    """Exact P(∃x,y R(x,y)) = 1 − Π blocks' p_⊥."""
    complement = 1.0
    for block in pdb.family.prefix(depth):
        complement *= block.bottom_mass
    return 1.0 - complement


class TestBIDApproximation:
    @pytest.mark.parametrize("epsilon", [0.2, 0.05, 0.01])
    def test_additive_guarantee(self, epsilon):
        pdb = key_pdb()
        truth = exists_truth(pdb)
        result = approximate_query_probability_bid(
            q("EXISTS x, y. R(x, y)"), pdb, epsilon)
        assert abs(result.value - truth) <= epsilon

    def test_key_specific_query(self):
        pdb = key_pdb()
        # Block k1 has alternatives R(1,1)/R(1,2), each 0.25.
        result = approximate_query_probability_bid(
            q("R(1, 1) OR R(1, 2)"), pdb, 0.01)
        assert result.value == pytest.approx(0.5, abs=0.01)

    def test_exclusivity_survives_truncation(self):
        pdb = key_pdb()
        result = approximate_query_probability_bid(
            q("R(1, 1) AND R(1, 2)"), pdb, 0.05)
        assert result.value == pytest.approx(0.0, abs=0.05)

    def test_truncation_grows_with_precision(self):
        pdb = key_pdb()
        coarse = approximate_query_probability_bid(
            q("EXISTS x, y. R(x, y)"), pdb, 0.2)
        fine = approximate_query_probability_bid(
            q("EXISTS x, y. R(x, y)"), pdb, 0.01)
        assert fine.truncation >= coarse.truncation

    def test_epsilon_validated(self):
        with pytest.raises(ApproximationError):
            approximate_query_probability_bid(
                q("EXISTS x, y. R(x, y)"), key_pdb(), 0.9)


class TestBIDCertificate:
    def test_block_truncation_stops_at_the_union_bound(self):
        """The smallest n whose certified block-mass tail is at most ε —
        block masses 0.5·0.5^i give tail(n) = 0.5^n."""
        pdb = key_pdb()
        result = approximate_query_probability_bid(
            q("EXISTS x, y. R(x, y)"), pdb, 0.1)
        assert result.truncation == 4
        assert result.tail <= 0.1 < pdb.family.tail(3)
        truth = exists_truth(pdb)
        assert result.low <= truth <= result.high
        assert result.high - result.low <= result.tail + 3 * result.fold_error

    def test_finite_block_tails_round_up(self):
        from fractions import Fraction

        blocks = [Block(f"b{i}", {R(i, 1): 0.1, R(i, 2): 0.2})
                  for i in range(5)]
        family = BlockFamily.finite(blocks)
        for n in range(6):
            exact = (5 - n) * (Fraction(0.1) + Fraction(0.2))
            assert Fraction(family.tail(n)) >= exact
        assert family.tail(5) == 0.0
