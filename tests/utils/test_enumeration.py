"""Tests for enumeration combinatorics: pairing functions and diagonal
products — the backbone of every countable object in the library."""

import itertools

import pytest

from repro.utils.enumeration import (
    cantor_pair,
    cantor_unpair,
    diagonal_product,
    interleave,
    kleene_star,
    paper_pair,
    paper_unpair,
    take,
)


class TestCantorPairing:
    def test_round_trip(self):
        for x in range(30):
            for y in range(30):
                assert cantor_unpair(cantor_pair(x, y)) == (x, y)

    def test_bijective_on_prefix(self):
        images = {cantor_pair(x, y) for x in range(40) for y in range(40)}
        assert len(images) == 1600

    def test_surjective_prefix(self):
        images = sorted(
            cantor_pair(x, y) for x in range(50) for y in range(50)
        )
        # Every integer 0..N appears for N below the anti-diagonal.
        assert images[:100] == list(range(100))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cantor_pair(-1, 0)
        with pytest.raises(ValueError):
            cantor_unpair(-1)


class TestPaperPairing:
    """⟨m, n⟩ from Proposition 6.2 — positive integers."""

    def test_base_case(self):
        assert paper_pair(1, 1) == 1

    def test_round_trip(self):
        for m in range(1, 25):
            for n in range(1, 25):
                assert paper_unpair(paper_pair(m, n)) == (m, n)

    def test_surjective_prefix(self):
        images = sorted(
            paper_pair(m, n) for m in range(1, 40) for n in range(1, 40)
        )
        assert images[:200] == list(range(1, 201))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            paper_pair(0, 1)
        with pytest.raises(ValueError):
            paper_unpair(0)


class TestDiagonalProduct:
    def test_two_infinite_streams_cover_all_pairs(self):
        pairs = take(210, diagonal_product(itertools.count(), itertools.count()))
        # First 20 diagonals complete: all (i, j) with i + j < 20 present.
        expected = {(i, j) for i in range(20) for j in range(20) if i + j < 20}
        assert expected <= set(pairs)

    def test_no_duplicates(self):
        pairs = take(500, diagonal_product(itertools.count(), itertools.count()))
        assert len(pairs) == len(set(pairs))

    def test_finite_inputs_terminate(self):
        result = list(diagonal_product([1, 2], "ab"))
        assert sorted(result) == [(1, "a"), (1, "b"), (2, "a"), (2, "b")]

    def test_mixed_finite_infinite(self):
        result = take(6, diagonal_product([0, 1], itertools.count()))
        assert set(result) >= {(0, 0), (0, 1), (1, 0)}

    def test_empty_factor_yields_nothing(self):
        assert list(diagonal_product([], [1, 2])) == []

    def test_three_factors(self):
        triples = take(100, diagonal_product(
            itertools.count(), itertools.count(), itertools.count()))
        assert (0, 0, 0) == triples[0]
        assert len(triples) == len(set(triples))

    def test_zero_factors(self):
        assert list(diagonal_product()) == [()]


def reference_diagonal_product(*iterables):
    """Reference enumeration for the differential test: it tests every
    composition of each total, growing a factor's cache one ``next`` at
    a time as the compositions reach for it."""
    if not iterables:
        yield ()
        return
    caches = [[] for _ in iterables]
    iterators = [iter(it) for it in iterables]
    exhausted = [False] * len(iterables)
    k = len(iterables)

    def ensure(i, n):
        while len(caches[i]) <= n and not exhausted[i]:
            try:
                caches[i].append(next(iterators[i]))
            except StopIteration:
                exhausted[i] = True
        return len(caches[i]) > n

    def compositions(total, k):
        if k == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, k - 1):
                yield (head,) + rest

    total = 0
    while True:
        produced = False
        for split in compositions(total, k):
            if all(ensure(i, split[i]) for i in range(k)):
                produced = True
                yield tuple(caches[i][split[i]] for i in range(k))
        if not produced:
            for i in range(k):
                ensure(i, total)
            if any(exhausted[i] and not caches[i] for i in range(k)):
                return
            if all(exhausted):
                max_total = sum(len(c) - 1 for c in caches)
                if total > max_total:
                    return
        total += 1


#: Factor makers for the differential test: fresh iterables per call.
FACTORS = {
    "empty": lambda: [],
    "one": lambda: ["a"],
    "three": lambda: "xyz",
    "seven": lambda: range(7),
    "infinite": itertools.count,
    "generator": lambda: (i * i for i in range(40)),
}

#: Factor combinations, arity 0 to 3.  A small finite factor beside an
#: infinite one leaves few tuples per anti-diagonal, and the oracle
#: walks every composition of each total, so those stay at size 7.
COMBINATIONS = [
    (),
    ("empty",), ("one",), ("three",), ("infinite",), ("generator",),
    ("empty", "infinite"), ("infinite", "empty"), ("one", "three"),
    ("three", "seven"), ("seven", "three"), ("infinite", "infinite"),
    ("infinite", "generator"), ("generator", "infinite"),
    ("seven", "infinite"), ("infinite", "seven"),
    ("infinite", "infinite", "infinite"),
    ("infinite", "generator", "infinite"),
    ("seven", "infinite", "infinite"), ("infinite", "three", "infinite"),
    ("generator", "seven", "infinite"), ("three", "seven", "generator"),
    ("one", "three", "seven"),
    ("empty", "infinite", "infinite"), ("infinite", "infinite", "empty"),
]


class TestDiagonalProductOracle:
    """Same tuples in the same order as the reference enumeration —
    finite, infinite and empty factors, arity 0 to 3, first 5000
    tuples."""

    @pytest.mark.parametrize(
        "names", COMBINATIONS, ids=lambda names: "-".join(names) or "none")
    def test_matches_reference(self, names):
        got = take(5000, diagonal_product(*(FACTORS[n]() for n in names)))
        want = take(
            5000, reference_diagonal_product(*(FACTORS[n]() for n in names)))
        assert got == want


class TestInterleave:
    def test_round_robin(self):
        assert list(interleave([1, 2, 3], "ab")) == [1, "a", 2, "b", 3]

    def test_single(self):
        assert list(interleave([1, 2])) == [1, 2]

    def test_empty_inputs_dropped(self):
        assert list(interleave([], [1], [])) == [1]


class TestKleeneStar:
    def test_shortlex_order(self):
        words = ["".join(w) for w in take(7, kleene_star("ab"))]
        assert words == ["", "a", "b", "aa", "ab", "ba", "bb"]

    def test_counts_per_length(self):
        words = take(1 + 3 + 9 + 27, kleene_star("xyz"))
        by_length = {}
        for w in words:
            by_length[len(w)] = by_length.get(len(w), 0) + 1
        assert by_length == {0: 1, 1: 3, 2: 9, 3: 27}

    def test_empty_alphabet(self):
        assert list(kleene_star("")) == [()]
