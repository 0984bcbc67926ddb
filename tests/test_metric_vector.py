"""Unit and property tests for the Lp-norm metrics."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.metric.vector import (
    ChebyshevMetric,
    EuclideanMetric,
    LpMetric,
    ManhattanMetric,
    WeightedEuclideanMetric,
)

_vec = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=3,
    max_size=3,
)


class TestKnownValues:
    def test_euclidean_345(self):
        assert EuclideanMetric()([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_manhattan(self):
        assert ManhattanMetric()([0, 0], [3, 4]) == pytest.approx(7.0)

    def test_chebyshev(self):
        assert ChebyshevMetric()([0, 0], [3, 4]) == pytest.approx(4.0)

    def test_l3(self):
        d = LpMetric(p=3)([0, 0], [1, 1])
        assert d == pytest.approx(2 ** (1 / 3))

    def test_weighted_euclidean(self):
        metric = WeightedEuclideanMetric([1.0, 0.0])
        assert metric([0, 5], [3, 100]) == pytest.approx(3.0)

    def test_names(self):
        assert EuclideanMetric().name == "euclidean"
        assert ManhattanMetric().name == "manhattan"
        assert ChebyshevMetric().name == "chebyshev"
        assert LpMetric(p=4).name == "l4"


class TestValidation:
    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            LpMetric(p=0.5)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EuclideanMetric()([1, 2], [1, 2, 3])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            WeightedEuclideanMetric([1.0, -1.0])

    def test_weight_dimension_enforced(self):
        metric = WeightedEuclideanMetric([1.0, 1.0])
        with pytest.raises(ValueError):
            metric([1, 2, 3], [1, 2, 3])


@pytest.mark.parametrize(
    "metric",
    [EuclideanMetric(), ManhattanMetric(), ChebyshevMetric(), LpMetric(p=3)],
    ids=lambda m: m.name,
)
class TestMetricAxiomsProperty:
    @settings(max_examples=50, deadline=None)
    @given(a=_vec, b=_vec)
    def test_symmetry_and_positivity(self, metric, a, b):
        dab = metric(a, b)
        assert dab >= 0
        assert dab == pytest.approx(metric(b, a))

    @settings(max_examples=50, deadline=None)
    @given(a=_vec)
    def test_reflexivity(self, metric, a):
        assert metric(a, a) == pytest.approx(0.0)

    @settings(max_examples=50, deadline=None)
    @given(a=_vec, b=_vec, c=_vec)
    def test_triangle_inequality(self, metric, a, b, c):
        assert metric(a, b) <= metric(a, c) + metric(c, b) + 1e-7


@settings(max_examples=50, deadline=None)
@given(a=_vec, b=_vec)
def test_lp_monotone_in_p(a, b):
    """L_p norms decrease (weakly) as p grows for the same vectors."""
    d1 = ManhattanMetric()(a, b)
    d2 = EuclideanMetric()(a, b)
    dinf = ChebyshevMetric()(a, b)
    assert d1 >= d2 - 1e-9 >= dinf - 2e-9


#: p = 1, 2, 3 and infinity: each branch of ``LpMetric.__call__``.
_LP_METRICS = [
    ManhattanMetric(), EuclideanMetric(), LpMetric(p=3), ChebyshevMetric()
]


@st.composite
def _row_pairs(draw):
    """Two equal-length float64 rows; lengths straddle the 8 elements
    from which numpy's sum switches to its unrolled order."""
    n = draw(st.integers(min_value=0, max_value=40))
    element = st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False
    )
    rows = st.lists(element, min_size=n, max_size=n)
    return np.array(draw(rows)), np.array(draw(rows))


def _reference(metric, a, b):
    """The Lp distance as a plain NumPy expression over converted copies
    (a second temporary per step, no ``out=``)."""
    diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    if math.isinf(metric.p):
        return float(diff.max(initial=0.0))
    if metric.p == 1.0:
        return float(diff.sum())
    if metric.p == 2.0:
        return float(np.sqrt(np.square(diff).sum()))
    return float(np.power(np.power(diff, metric.p).sum(), 1.0 / metric.p))


@pytest.mark.parametrize("metric", _LP_METRICS, ids=lambda m: m.name)
class TestInPlaceKernel:
    """``__call__`` uses float64 rows as they are and computes in place;
    it must agree bit for bit with the plain expression on every kind
    of payload."""

    @settings(max_examples=150, deadline=None)
    @given(pair=_row_pairs())
    def test_rows_equal_the_reference(self, metric, pair):
        a, b = pair
        got = metric(a, b)
        assert type(got) is float
        assert got == _reference(metric, a, b)
        assert got == metric(a.tolist(), b.tolist())
        assert got == metric(b, a)

    @settings(max_examples=60, deadline=None)
    @given(pair=_row_pairs())
    def test_strided_views_equal_contiguous_rows(self, metric, pair):
        a, b = pair
        wide = np.zeros((2, 2 * len(a)))
        wide[0, ::2] = a
        wide[1, 1::2] = b
        view_a, view_b = wide[0, ::2], wide[1, 1::2]
        assert not view_a.flags.c_contiguous or len(a) <= 1
        assert metric(view_a, view_b) == _reference(metric, a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(st.integers(0, 255), min_size=12, max_size=12),
        b=st.lists(st.integers(0, 255), min_size=12, max_size=12),
    )
    def test_int_arrays_and_lists_equal_float_rows(self, metric, a, b):
        expected = _reference(metric, a, b)
        for dtype in (np.int64, np.uint8):
            assert metric(np.array(a, dtype), np.array(b, dtype)) == expected
        assert metric(a, b) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        b=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_scalar_payloads_equal_the_reference(self, metric, a, b):
        expected = _reference(metric, a, b)
        assert metric(a, b) == expected
        assert metric(np.float64(a), np.array(b)) == expected

    def test_shape_mismatch_raises_for_every_payload_kind(self, metric):
        for a, b in (
            (np.zeros(3), np.zeros(4)),
            ([0.0] * 3, [0.0] * 4),
            (np.zeros(3, dtype=int), [0.0] * 4),
        ):
            with pytest.raises(ValueError, match=r"^dimension mismatch: "
                               r"\(3,\) vs \(4,\)$"):
                metric(a, b)
