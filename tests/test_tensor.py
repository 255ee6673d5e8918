import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pednet import layers as L
from pednet import tensor as T
from pednet.errors import NumericError, ShapeError

from conftest import alone


class TestCreation:
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

    @pytest.mark.parametrize("shape", [(3, 3, 3, 32), (65537,),
                                       (2, 65536 + 3), (512, 300)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_he_normal_is_one_normal_draw(self, shape, dtype):
        # chunked filling draws the stream one rng.normal call would
        std = math.sqrt(2.0 / int(np.prod(shape[:-1])))
        want = np.random.Generator(np.random.PCG64(7)).normal(
            0.0, std, size=shape).astype(dtype)
        got = T.he_normal(shape, seed=7, dtype=dtype)
        assert got.dtype == dtype and got.shape == shape
        assert got.tobytes() == want.tobytes()

    def test_he_normal_without_seed_draws_nothing(self, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("random generator constructed")

        monkeypatch.setattr(T.np.random, "Generator", no_rng)
        buf = T.he_normal((3, 3, 8, 16), seed=None)
        assert buf.shape == (3, 3, 8, 16) and buf.dtype == np.float32


def _pool_extent(extent, kernel, stride, padding):
    """Output height a max-pool layer produces on an extent x extent map."""
    x = np.zeros((1, extent, extent, 1), np.float32)
    return alone(L.MaxPool2D(kernel, stride, padding), x)[0].shape[1]


class TestOutExtent:
    def test_same_preserving(self):
        # same_ceil at stride 1 keeps the extent
        assert T.pad_amounts(99, 99, 3, 1, T.SAME_CEIL) == ((1, 1), (1, 1))
        conv = L.Conv2D(2, 3, 1, stride=1)
        assert alone(conv, np.zeros((1, 99, 99, 1), np.float32))[0].shape \
            == (1, 99, 99, 2)

    def test_valid_floor_chain(self):
        # pooling chain forced by the MP-head flatten width 3*3*256
        assert T.pad_amounts(99, 99, 2, 2, T.VALID_FLOOR) == ((0, 0), (0, 0))
        extent = 99
        chain = []
        for _ in range(5):
            extent = _pool_extent(extent, 2, 2, T.VALID_FLOOR)
            chain.append(extent)
        assert chain == [49, 24, 12, 6, 3]

    def test_same_ceil(self):
        # the odd padding pixel goes after (bottom/right)
        assert T.pad_amounts(99, 98, 7, 2, T.SAME_CEIL) == ((3, 3), (2, 3))
        conv = L.Conv2D(2, 7, 1, stride=2)
        assert alone(conv, np.zeros((1, 99, 98, 1), np.float32))[0].shape \
            == (1, 50, 49, 2)

    @pytest.mark.parametrize("padding", ["same", "same_preserving"])
    def test_unknown_padding_mode(self, padding):
        with pytest.raises(ShapeError, match="unknown padding mode"):
            T.pad_amounts(9, 9, 3, 1, padding)

    def test_window_does_not_fit(self):
        with pytest.raises(ShapeError, match="does not fit"):
            T.pad_amounts(2, 2, 4, 1, T.VALID_FLOOR)
        with pytest.raises(ShapeError, match="does not fit"):
            _pool_extent(2, 4, 1, T.VALID_FLOOR)

    @given(extent=st.integers(1, 300), stride=st.integers(1, 4),
           kernel=st.integers(1, 7))
    def test_same_ceil_rule(self, extent, stride, kernel):
        assert _pool_extent(extent, kernel, stride, T.SAME_CEIL) == \
            math.ceil(extent / stride)

    @given(extent=st.integers(4, 300), stride=st.integers(1, 4))
    def test_valid_floor_pooling_rule(self, extent, stride):
        # kernel == stride is the pooling case: floor(extent / stride)
        assert _pool_extent(extent, stride, stride, T.VALID_FLOOR) == \
            extent // stride


class TestFiniteness:
    def test_nan_is_an_error(self):
        with pytest.raises(NumericError):
            T.check_finite(np.array([1.0, np.nan]))

    def test_inf_is_an_error(self):
        with pytest.raises(NumericError):
            T.check_finite(np.array([np.inf]))
