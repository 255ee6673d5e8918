import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pednet import tensor as T
from pednet.errors import NumericError, ShapeError


class TestCreation:
    def test_zeros(self):
        out = T.zeros([2, 3])
        assert out.shape == (2, 3)
        assert np.all(out == 0.0)

    def test_he_normal_std(self):
        # fan_in of a 3x3x3x32 kernel is 27
        buf = T.he_normal([3, 3, 3, 32], seed=42)
        expected = math.sqrt(2 / 27)
        assert abs(buf.std() - expected) / expected < 0.20

    def test_he_normal_deterministic(self):
        a = T.he_normal([4, 5], seed=9)
        b = T.he_normal([4, 5], seed=9)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, T.he_normal([4, 5], seed=10))

    @pytest.mark.parametrize("shape", [[], [0, 3], [-1], [2, 0]])
    def test_bad_shapes(self, shape):
        with pytest.raises(ShapeError):
            T.zeros(shape)


class TestOutExtent:
    def test_same_preserving(self):
        spec = T.Shape2DSpec(99, 99, 3, 3, 1, T.SAME_PRESERVING)
        assert T.infer_out_extent(spec) == (99, 99)

    def test_valid_floor_chain(self):
        # pooling chain forced by the MP-head flatten width 3*3*256
        extent = 99
        chain = []
        for _ in range(5):
            spec = T.Shape2DSpec(extent, extent, 2, 2, 2, T.VALID_FLOOR)
            extent = T.infer_out_extent(spec)[0]
            chain.append(extent)
        assert chain == [49, 24, 12, 6, 3]

    def test_same_ceil(self):
        spec = T.Shape2DSpec(99, 99, 7, 7, 2, T.SAME_CEIL)
        assert T.infer_out_extent(spec) == (50, 50)

    def test_same_preserving_requires_stride_1(self):
        with pytest.raises(ShapeError):
            T.Shape2DSpec(9, 9, 3, 3, 2, T.SAME_PRESERVING)

    def test_window_does_not_fit(self):
        with pytest.raises(ShapeError):
            T.infer_out_extent(T.Shape2DSpec(2, 2, 4, 4, 1, T.VALID_FLOOR))

    @given(extent=st.integers(1, 300), stride=st.integers(1, 4),
           kernel=st.integers(1, 7))
    def test_same_ceil_rule(self, extent, stride, kernel):
        spec = T.Shape2DSpec(extent, extent, kernel, kernel, stride,
                             T.SAME_CEIL)
        assert T.infer_out_extent(spec)[0] == math.ceil(extent / stride)

    @given(extent=st.integers(4, 300), stride=st.integers(1, 4))
    def test_valid_floor_pooling_rule(self, extent, stride):
        # kernel == stride is the pooling case: floor(extent / stride)
        spec = T.Shape2DSpec(extent, extent, stride, stride, stride,
                             T.VALID_FLOOR)
        assert T.infer_out_extent(spec)[0] == extent // stride


class TestFiniteness:
    def test_nan_is_an_error(self):
        with pytest.raises(NumericError):
            T.check_finite(np.array([1.0, np.nan]))

    def test_inf_is_an_error(self):
        with pytest.raises(NumericError):
            T.check_finite(np.array([np.inf]))
