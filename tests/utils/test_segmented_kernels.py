"""Segmented log-space fold kernels: per-segment complement products,
disjunctions, and log-complements over a flat value buffer with offset
boundaries — the primitives the batched lifted executor folds separator
groups with.

The pure-Python leg must be *bit-identical* to folding each segment
through :class:`~repro.utils.probability.ComplementAccumulator` (it is
the same hybrid policy, segment at a time), and the numpy leg must agree
with the Python leg to float tolerance everywhere and bit-for-bit on
dyadic marginals (exact products, no rounding).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.probability import (
    ComplementAccumulator,
    numpy_or_none,
    segmented_complement_product,
    segmented_disjunction,
    segmented_fold,
    segmented_log_complement,
)

numpy = numpy_or_none()
needs_numpy = pytest.mark.skipif(numpy is None, reason="numpy unavailable")


def segments_to_layout(segments):
    """Flatten a list of segments into the (values, offsets) layout."""
    values, offsets = [], [0]
    for segment in segments:
        values.extend(segment)
        offsets.append(len(values))
    return values, offsets


def accumulate(segment):
    acc = ComplementAccumulator()
    for p in segment:
        acc.add(p)
    return acc


probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
segments_strategy = st.lists(
    st.lists(probabilities, max_size=12), max_size=8)
dyadic_segments = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=64).map(lambda k: k / 64),
        max_size=10,
    ),
    max_size=6,
)

#: Edge-case layouts the random strategies rarely hit all at once:
#: leading/trailing empty segments, certain events, tiny log-space
#: marginals, and an underflowing segment.
EDGE_SEGMENTS = [
    [],
    [[]],
    [[], [0.5], []],
    [[1.0], [0.0], [1.0, 0.3]],
    [[1e-17, 1e-18], [0.5, 1e-19]],
    [[0.99999] * 200, [0.5]],
]


class TestPythonLegMatchesAccumulator:
    @given(segments_strategy)
    @settings(max_examples=150, deadline=None)
    def test_complement_product_bit_identical(self, segments):
        values, offsets = segments_to_layout(segments)
        out = segmented_complement_product(None, values, offsets)
        assert out == [accumulate(s).complement() for s in segments]

    @given(segments_strategy)
    @settings(max_examples=150, deadline=None)
    def test_disjunction_bit_identical(self, segments):
        values, offsets = segments_to_layout(segments)
        out = segmented_disjunction(None, values, offsets)
        assert out == [accumulate(s).disjunction() for s in segments]

    @pytest.mark.parametrize("segments", EDGE_SEGMENTS)
    def test_edge_layouts(self, segments):
        values, offsets = segments_to_layout(segments)
        comp = segmented_complement_product(None, values, offsets)
        disj = segmented_disjunction(None, values, offsets)
        assert comp == [accumulate(s).complement() for s in segments]
        assert disj == [accumulate(s).disjunction() for s in segments]

    def test_log_complement(self):
        segments = [[0.5, 0.25], [], [1.0, 0.5], [1e-18]]
        values, offsets = segments_to_layout(segments)
        out = segmented_log_complement(None, values, offsets)
        assert out[0] == pytest.approx(math.log1p(-0.5) + math.log1p(-0.25))
        assert out[1] == 0.0
        assert out[2] == float("-inf")
        assert out[3] == pytest.approx(math.log1p(-1e-18))


@needs_numpy
class TestNumpyLegMatchesPython:
    @given(segments_strategy)
    @settings(max_examples=150, deadline=None)
    def test_complement_and_disjunction_close(self, segments):
        values, offsets = segments_to_layout(segments)
        array = numpy.asarray(values, dtype=float)
        reference_c = segmented_complement_product(None, values, offsets)
        reference_d = segmented_disjunction(None, values, offsets)
        out_c = segmented_complement_product(numpy, array, offsets)
        out_d = segmented_disjunction(numpy, array, offsets)
        for got, want in zip(out_c, reference_c):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
        for got, want in zip(out_d, reference_d):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    @given(dyadic_segments)
    @settings(max_examples=150, deadline=None)
    def test_dyadic_segments_bit_exact(self, segments):
        """Dyadic marginals multiply exactly in both legs, so the fold
        must agree bit-for-bit — the regime the exact strategies'
        differential tests pin down."""
        values, offsets = segments_to_layout(segments)
        array = numpy.asarray(values, dtype=float)
        assert list(
            segmented_complement_product(numpy, array, offsets)
        ) == segmented_complement_product(None, values, offsets)
        assert list(
            segmented_disjunction(numpy, array, offsets)
        ) == segmented_disjunction(None, values, offsets)

    @pytest.mark.parametrize("segments", EDGE_SEGMENTS)
    def test_edge_layouts(self, segments):
        values, offsets = segments_to_layout(segments)
        array = numpy.asarray(values, dtype=float)
        out_c = segmented_complement_product(numpy, array, offsets)
        out_d = segmented_disjunction(numpy, array, offsets)
        for got, want in zip(
            out_c, segmented_complement_product(None, values, offsets)
        ):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
        for got, want in zip(
            out_d, segmented_disjunction(None, values, offsets)
        ):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_underflowing_segment_rescued(self):
        """A segment whose complement product underflows the float
        range re-folds in log space instead of collapsing to 0.0."""
        segments = [[0.5] * 1020]
        values, offsets = segments_to_layout(segments)
        array = numpy.asarray(values, dtype=float)
        (out,) = segmented_complement_product(numpy, array, offsets)
        assert out > 0.0
        assert out == pytest.approx(2.0 ** -1020, rel=1e-9)

    def test_log_complement_matches_python(self):
        segments = [[0.5, 0.25], [], [1.0], [1e-18, 0.875]]
        values, offsets = segments_to_layout(segments)
        array = numpy.asarray(values, dtype=float)
        out = segmented_log_complement(numpy, array, offsets)
        reference = segmented_log_complement(None, values, offsets)
        for got, want in zip(out, reference):
            if math.isinf(want):
                assert math.isinf(got) and got < 0
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


#: Probabilities that fold by plain multiplication: never tiny, never 1.
ordinary = st.floats(min_value=1e-16, max_value=0.999999, allow_nan=False)
LEGS = ["python"] + (["numpy"] if numpy is not None else [])


class TestFoldState:
    """``segmented_fold``'s per-segment state, which the lifted
    executor keeps to resume bound-segment folds: on the Python leg it
    is the accumulator's, and on both legs a clean product continued
    factor by factor gives the bits of the longer segment's fold."""

    @given(segments_strategy)
    @settings(max_examples=150, deadline=None)
    def test_python_leg_state_is_the_accumulators(self, segments):
        values, offsets = segments_to_layout(segments)
        disjunctions, products, residuals, zeros = segmented_fold(
            None, values, offsets)
        assert disjunctions == segmented_disjunction(None, values, offsets)
        accs = [accumulate(s) for s in segments]
        assert zeros == [acc.is_zero for acc in accs]
        # A zero state absorbs every factor, whatever its product.
        assert [
            (product, residual)
            for product, residual, zero in zip(products, residuals, zeros)
            if not zero
        ] == [(acc.product, acc.residual_log) for acc in accs
              if not acc.is_zero]

    @pytest.mark.parametrize("leg", LEGS)
    @given(head=st.lists(ordinary, max_size=40),
           tail=st.lists(ordinary, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_clean_product_continues_to_the_longer_fold(self, leg, head, tail):
        np = numpy if leg == "numpy" else None
        whole = head + tail
        _, (product,), _, _ = segmented_fold(np, head, [0, len(head)])
        disjunctions, (full,), (residual,), _ = segmented_fold(
            np, whole, [0, len(whole)])
        product = float(product)
        for p in tail:
            product *= 1.0 - p
        if residual == 0.0:  # the longer fold stayed clean
            assert float(full) == product
            assert float(disjunctions[0]) == 1.0 - product
