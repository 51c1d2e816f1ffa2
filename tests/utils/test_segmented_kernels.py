"""Segmented log-space fold kernels: per-segment complement products,
disjunctions, and log-complements over a flat value buffer with offset
boundaries — the primitives the batched lifted executor folds separator
groups with.

The complement and disjunction folds must be *bit-identical* to folding
each segment through :class:`~repro.utils.probability.ComplementAccumulator`
(it is the same hybrid policy, segment at a time): on dyadic marginals,
whose products are exact, on tiny marginals that fold in log space, and
on segments whose product underflows.  Handed the numpy module in their
leading slot and a float64 array of values, they run that same fold
over the array's elements and return the list call's bits.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.probability import (
    ComplementAccumulator,
    segmented_complement_product,
    segmented_disjunction,
    segmented_fold,
    segmented_log_complement,
)

try:
    import numpy
except ImportError:
    numpy = None
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

    @given(dyadic_segments)
    @settings(max_examples=150, deadline=None)
    def test_dyadic_segments_bit_exact(self, segments):
        """Dyadic marginals multiply exactly, so each segment's
        complement is the exact product of its factors."""
        values, offsets = segments_to_layout(segments)
        assert segmented_complement_product(None, values, offsets) == [
            math.prod(1.0 - p for p in s) for s in segments]
        assert segmented_disjunction(None, values, offsets) == [
            accumulate(s).disjunction() for s in segments]

    def test_underflowing_segment_rescued(self):
        """A segment whose complement product underflows the float
        range folds on in log space instead of collapsing to 0.0."""
        values, offsets = segments_to_layout([[0.5] * 1020])
        (out,) = segmented_complement_product(None, values, offsets)
        assert out == accumulate([0.5] * 1020).complement()
        assert out == pytest.approx(2.0 ** -1020, rel=1e-9)

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
    """The kernels keep a leading ``np`` slot, so a caller may pass the
    numpy module and a float64 array of values.  No second fold sits
    behind that call: each segment still runs through
    ``ComplementAccumulator`` over the array's elements, so every
    result has the list call's bits — including the regimes a
    vectorized log-space fold would round differently."""

    @staticmethod
    def numpy_call(kernel, values, offsets):
        return list(kernel(numpy, numpy.asarray(values, dtype=float), offsets))

    @given(segments_strategy)
    @settings(max_examples=150, deadline=None)
    def test_complement_and_disjunction_close(self, segments):
        values, offsets = segments_to_layout(segments)
        for kernel in (segmented_complement_product, segmented_disjunction):
            assert self.numpy_call(kernel, values, offsets) == kernel(
                None, values, offsets)

    @given(dyadic_segments)
    @settings(max_examples=150, deadline=None)
    def test_dyadic_segments_bit_exact(self, segments):
        values, offsets = segments_to_layout(segments)
        assert self.numpy_call(
            segmented_complement_product, values, offsets) == [
                math.prod(1.0 - p for p in s) for s in segments]
        assert self.numpy_call(segmented_disjunction, values, offsets) == [
            accumulate(s).disjunction() for s in segments]

    @pytest.mark.parametrize("segments", EDGE_SEGMENTS)
    def test_edge_layouts(self, segments):
        values, offsets = segments_to_layout(segments)
        array = numpy.asarray(values, dtype=float)
        assert list(segmented_fold(numpy, array, offsets)) == list(
            segmented_fold(None, values, offsets))
        assert self.numpy_call(
            segmented_complement_product, values, offsets) == [
                accumulate(s).complement() for s in segments]

    def test_underflowing_segment_rescued(self):
        values, offsets = segments_to_layout([[0.5] * 1020])
        (out,) = self.numpy_call(segmented_complement_product, values, offsets)
        assert out == accumulate([0.5] * 1020).complement()
        assert out == pytest.approx(2.0 ** -1020, rel=1e-9)

    def test_log_complement_matches_python(self):
        segments = [[0.5, 0.25], [], [1.0], [1e-18, 0.875]]
        values, offsets = segments_to_layout(segments)
        assert self.numpy_call(
            segmented_log_complement, values, offsets) == (
                segmented_log_complement(None, values, offsets))


#: Probabilities that fold by plain multiplication: never tiny, never 1.
ordinary = st.floats(min_value=1e-16, max_value=0.999999, allow_nan=False)
LEGS = ["python"] + (["numpy"] if numpy is not None else [])


class TestFoldState:
    """``segmented_fold``'s per-segment state, which the lifted
    executor keeps to resume bound-segment folds: it is the
    accumulator's, and a clean product continued factor by factor gives
    the bits of the longer segment's fold, from a list or, on the numpy
    leg, from a float64 array."""

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
        convert = np.asarray if np is not None else list
        whole = head + tail
        _, (product,), _, _ = segmented_fold(
            np, convert(head), [0, len(head)])
        disjunctions, (full,), (residual,), _ = segmented_fold(
            np, convert(whole), [0, len(whole)])
        for p in tail:
            product *= 1.0 - p
        if residual == 0.0:  # the longer fold stayed clean
            assert full == product
            assert disjunctions[0] == 1.0 - product
