import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from pednet import layers as L
from pednet import models, optim
from pednet import tensor as T
from pednet.errors import ShapeError, StateError

from conftest import alone, lone_views

RTOL = 1e-4
ATOL = 1e-6


def finite_difference_check(layer, x, dropout_seed=None, eps=1e-5):
    """Central finite differences (float64) against analytic backward,
    through train-mode forwards."""
    def run():
        rng = (np.random.default_rng(dropout_seed)
               if dropout_seed is not None else None)
        return alone(layer, x, train=True, rng=rng)

    y, backward = run()
    upstream = np.random.default_rng(7).random(y.shape)
    for g in layer.grads.values():
        g.fill(0)
    dx = backward(upstream)

    def assert_close(numeric, analytic, what):
        err = abs(numeric - analytic)
        tol = ATOL + RTOL * abs(numeric)
        assert err <= tol, f"{what}: numeric {numeric} vs analytic {analytic}"

    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        x[i] += eps
        up = run()[0]
        x[i] -= 2 * eps
        down = run()[0]
        x[i] += eps
        numeric = float(((up - down) * upstream).sum() / (2 * eps))
        assert_close(numeric, float(dx[i]), f"d/dx{i}")
    for pname, p in layer.params.items():
        grad = layer.grads[pname]
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            p[i] += eps
            up = run()[0]
            p[i] -= 2 * eps
            down = run()[0]
            p[i] += eps
            numeric = float(((up - down) * upstream).sum() / (2 * eps))
            assert_close(numeric, float(grad[i]), f"d/d{pname}{i}")


class TestForwardSemantics:
    def test_relu(self):
        out, _ = alone(L.ReLU(), np.array([-2.0, 0.0, 3.0]))
        assert out.tolist() == [0.0, 0.0, 3.0]

    def test_globalavgpool(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        assert alone(L.GlobalAvgPool(), x)[0].tolist() == [[2.5]]

    def test_dropout_eval_identity(self):
        x = np.random.default_rng(0).random((4, 7), dtype=np.float32)
        out, _ = alone(L.Dropout(0.3), x)
        assert np.array_equal(out, x)

    def test_softmax_uniform(self):
        out, _ = alone(L.Softmax(), np.zeros((1, 6)))
        assert np.allclose(out, 1 / 6, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(3).standard_normal((20, 6)) * 10
        out, _ = alone(L.Softmax(), x)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out > 0) and np.all(out < 1)

    def test_maxpool_values(self):
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        out, _ = alone(L.MaxPool2D(2, 2), x)
        assert out.reshape(2, 2).tolist() == [[5.0, 7.0], [13.0, 15.0]]

    def test_conv_shape_mismatch(self):
        conv = L.Conv2D(4, 3, in_channels=3, seed=0)
        with pytest.raises(ShapeError):
            alone(conv, np.zeros((1, 5, 5, 2)))


class TestBackwardSemantics:
    def test_relu_subgradient_zero_at_nonpositive(self):
        relu = L.ReLU()
        _, backward = alone(relu, np.array([-2.0, 0.0, 3.0]), train=True)
        assert backward(np.ones(3)).tolist() == [0.0, 0.0, 1.0]

    def test_dense_zero_upstream(self):
        dense = L.Dense(3, 4, seed=1, dtype=np.float64)
        x = np.random.default_rng(0).random((2, 4))
        _, backward = alone(dense, x, train=True)
        for g in dense.grads.values():
            g.fill(0)
        dx = backward(np.zeros((2, 3)))
        assert np.all(dx == 0)
        assert np.all(dense.grads["weight"] == 0)
        assert np.all(dense.grads["bias"] == 0)

    def test_maxpool_routes_to_argmax(self):
        pool = L.MaxPool2D(2, 2)
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        _, backward = alone(pool, x, train=True)
        dx = backward(np.ones((1, 2, 2, 1)))
        got = dx.reshape(4, 4)
        assert got.sum() == 4.0
        assert got[1, 1] == got[1, 3] == got[3, 1] == got[3, 3] == 1.0


def first_max_pool(x, kernel, stride, padding, upstream):
    """Loop oracle for max-pool: (pooled values, input gradient). Each
    window sends its upstream gradient to its first maximum in row-major
    order; padding cells hold -inf."""
    n, h, w, c = x.shape
    (pt, pb), (pl, pr) = T.pad_amounts(h, w, kernel, stride, padding)
    xp = np.full((n, h + pt + pb, w + pl + pr, c), -np.inf)
    xp[:, pt:pt + h, pl:pl + w] = x
    out = np.zeros(upstream.shape)
    dxp = np.zeros(xp.shape)
    for b, oi, oj, ch in np.ndindex(*upstream.shape):
        i0, j0 = oi * stride, oj * stride
        win = xp[b, i0:i0 + kernel, j0:j0 + kernel, ch]
        out[b, oi, oj, ch] = win.max()
        i, j = next((i, j) for i in range(kernel) for j in range(kernel)
                    if win[i, j] == win.max())
        dxp[b, i0 + i, j0 + j, ch] += upstream[b, oi, oj, ch]
    return out, dxp[:, pt:pt + h, pl:pl + w]


class TestMaxPoolWindows:
    GEOMETRIES = [(2, 2, T.VALID_FLOOR, (1, 6, 7, 2)),
                  (3, 2, T.SAME_CEIL, (1, 7, 6, 2))]

    @pytest.mark.parametrize("kernel,stride,padding,shape", GEOMETRIES,
                             ids=["2x2s2_valid_floor", "3x3s2_same_ceil"])
    @pytest.mark.parametrize("fill", ["ties", "constant_negative"])
    def test_ties_route_to_first_max(self, kernel, stride, padding, shape,
                                     fill):
        rng = np.random.default_rng(4)
        if fill == "ties":
            x = rng.integers(0, 2, shape).astype(np.float64)
        else:  # every cell ties; a zero-padded cell would win instead
            x = np.full(shape, -5.0)
        pool = L.MaxPool2D(kernel, stride, padding)
        out, backward = alone(pool, x, train=True)
        upstream = rng.random(out.shape)
        want_out, want_dx = first_max_pool(x, kernel, stride, padding,
                                           upstream)
        dx = backward(upstream)
        assert np.array_equal(out, want_out)
        assert np.array_equal(dx, want_dx)
        # no window's gradient is lost on a padded cell
        assert np.isclose(dx.sum(), upstream.sum(), rtol=0, atol=1e-12)


def scatter_windows(dcol, in_shape, stride, pads):
    """Reference scatter-add of an (N,Ho,Wo,k,k,C) window gradient onto the
    unpadded (N,H,W,C) input, one kernel cell at a time."""
    n, h, w, c = in_shape
    (pt, pb), (pl, pr) = pads
    _, ho, wo, kh, kw, _ = dcol.shape
    out = np.zeros((n, h + pt + pb, w + pl + pr, c), dcol.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, i:i + ho * stride:stride,
                j:j + wo * stride:stride] += dcol[:, :, :, i, j]
    return out[:, pt:pt + h, pl:pl + w]


def window_path_pool(x, kernel, stride, padding, upstream):
    """Max-pool through the (N,Ho,Wo,C,k,k) strided window view, with argmax
    and a scatter-add of the routed gradient: (values, first-max index, dx).
    """
    pads = T.pad_amounts(x.shape[1], x.shape[2], kernel, stride, padding)
    xp = np.pad(x, ((0, 0), *pads, (0, 0)), constant_values=-np.inf)
    win = sliding_window_view(xp, (kernel, kernel), axis=(1, 2))
    flat = win[:, ::stride, ::stride].reshape(*upstream.shape, -1)
    arg = flat.argmax(axis=-1)
    routed = np.where(arg[..., None] == np.arange(kernel * kernel),
                      upstream[..., None], 0)
    dcol = routed.reshape(*upstream.shape, kernel, kernel)
    dx = scatter_windows(dcol.transpose(0, 1, 2, 4, 5, 3), x.shape, stride,
                         pads)
    return flat.max(axis=-1), arg, dx


def _tied_input(fill, extent, dtype, rng):
    """(2, extent, extent, 3) map whose aligned 2x2 blocks, the windows of a
    2x2/2 pool, tie as `fill` says; a 3x3/2 window spans several blocks."""
    shape = (2, extent, extent, 3)
    if fill == "random":
        return rng.standard_normal(shape).astype(dtype)
    x = rng.integers(0, 4, shape).astype(dtype)
    e = extent // 2 * 2
    if fill == "row_ties":  # the two cells of each window's top row tie
        x[:, 0:e:2, 1:e:2] = x[:, 0:e:2, 0:e:2]
    elif fill == "column_ties":  # each window's left cells tie across rows
        x[:, 1:e:2, 0:e:2] = x[:, 0:e:2, 0:e:2]
    elif fill == "all_equal":  # every cell of each window is equal
        per_window = rng.standard_normal((2, e // 2, e // 2, 3))
        x[:, :e, :e] = per_window.repeat(2, axis=1).repeat(2, axis=2)
    return x


def _signed_zero_window(x):
    """Give x's first window maxima that are zeros of both signs, in each
    order: -0.0 then +0.0 in image 0, +0.0 then -0.0 in image 1."""
    x[:, :3, :3] = -1.0
    x[0, 0, :2] = [[-0.0], [0.0]]
    x[1, 0, :2] = [[0.0], [-0.0]]


def slice_cases(test):
    """The pool geometries, extents, tie patterns and dtypes of
    TestMaxPoolSlices."""
    for mark in (
            pytest.mark.parametrize("dtype", [np.float32, np.float64]),
            pytest.mark.parametrize("fill", ["row_ties", "column_ties",
                                             "all_equal", "random"]),
            pytest.mark.parametrize("extent", [99, 49, 25, 13]),
            pytest.mark.parametrize("kernel,stride,padding", [
                (2, 2, T.VALID_FLOOR), (3, 2, T.SAME_CEIL)])):
        test = mark(test)
    return test


class TestMaxPoolSlices:
    @slice_cases
    def test_matches_window_view(self, kernel, stride, padding, extent, fill,
                                 dtype):
        rng = np.random.default_rng(extent)
        x = _tied_input(fill, extent, dtype, rng)
        pool = L.MaxPool2D(kernel, stride, padding)
        fwd, bwd = lone_views(pool, x, train=True)
        out = pool.forward(x, train=True, out=fwd, keep=True)
        upstream = rng.standard_normal(out.shape).astype(dtype)
        upstream[0, 0, 0] = -0.0
        want, want_arg, want_dx = window_path_pool(x, kernel, stride, padding,
                                                   upstream)
        assert out.dtype == dtype and out.tobytes() == want.tobytes()
        # the same first maximum of every window
        assert np.array_equal(fwd["arg"], want_arg)
        dx = pool.backward(upstream, x, fwd=fwd, out=bwd)
        assert dx.dtype == dtype and dx.shape == x.shape
        assert dx.tobytes() == want_dx.tobytes()

    @staticmethod
    def _check_index_and_dx(x, kernel, stride, padding):
        """The first-max index and the input gradient bytes equal the
        window-view path's. The output is compared by value: the sign of a
        zero maximum depends on the order the maxima are folded in."""
        pool = L.MaxPool2D(kernel, stride, padding)
        fwd, bwd = lone_views(pool, x, train=True)
        out = pool.forward(x, train=True, out=fwd, keep=True)
        upstream = np.random.default_rng(1).standard_normal(
            out.shape).astype(x.dtype)
        want, want_arg, want_dx = window_path_pool(x, kernel, stride, padding,
                                                   upstream)
        assert np.array_equal(out, want)
        assert np.array_equal(fwd["arg"], want_arg)
        dx = pool.backward(upstream, x, fwd=fwd, out=bwd)
        assert dx.tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("extent", [12, 13])
    @pytest.mark.parametrize("kernel,stride,padding", [
        (2, 2, T.VALID_FLOOR), (3, 2, T.SAME_CEIL)])
    def test_signed_zero_maxima_route_to_first(self, kernel, stride, padding,
                                               extent, dtype):
        """+0.0 is not greater than -0.0 nor -0.0 than +0.0, so the first
        of the two zeros keeps the index in either order."""
        x = _tied_input("random", extent, dtype,
                        np.random.default_rng(extent))
        _signed_zero_window(x)
        self._check_index_and_dx(x, kernel, stride, padding)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("extent", [12, 13])
    def test_far_edge_beside_padding(self, extent, dtype):
        """3x3/2 same_ceil windows whose only finite cells are the last row
        and column, next to the -inf padding; the other windows tie at -inf
        and route to their first cell."""
        rng = np.random.default_rng(extent)
        x = np.full((2, extent, extent, 3), -np.inf, dtype)
        x[:, -1] = rng.integers(0, 2, (2, extent, 3))
        x[:, :, -1] = rng.integers(0, 2, (2, extent, 3))
        self._check_index_and_dx(x, 3, 2, T.SAME_CEIL)

    @slice_cases
    def test_eval_output_equals_train(self, kernel, stride, padding, extent,
                                      fill, dtype):
        x = _tied_input(fill, extent, dtype, np.random.default_rng(extent))
        _signed_zero_window(x)
        pool = L.MaxPool2D(kernel, stride, padding)
        train_out, _ = alone(pool, x, train=True)
        eval_out, _ = alone(pool, x)
        assert "arg" not in lone_views(pool, x)[0]  # no first-max index
        assert eval_out.dtype == dtype
        assert eval_out.tobytes() == train_out.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("extent", [12, 13])
    @pytest.mark.parametrize("padding", [T.VALID_FLOOR, T.SAME_CEIL])
    def test_tiling_pool_writes_every_gradient_value(self, padding, extent,
                                                     dtype):
        """A 2x2/2 pool's backward, handed an input gradient buffer that
        holds NaN as a reused arena may, writes all of it that it returns
        (the row and column past the last window of an odd extent too, or
        the interior of the padded buffer), with the window-view path's
        bytes: a negative gradient times a losing cell is +0.0."""
        rng = np.random.default_rng(extent)
        x = _tied_input("random", extent, dtype, rng)
        _signed_zero_window(x)
        pool = L.MaxPool2D(2, 2, padding)
        fwd, bwd = lone_views(pool, x, train=True)
        assert set(bwd) == {"hit", "dx"}  # no routed cell buffer
        bwd["dx"].fill(np.nan)
        out = pool.forward(x, train=True, out=fwd, keep=True)
        upstream = rng.standard_normal(out.shape).astype(dtype)
        upstream[0, 0, 0] = -0.0
        want_dx = window_path_pool(x, 2, 2, padding, upstream)[2]
        dx = pool.backward(upstream, x, fwd=fwd, out=bwd)
        assert np.shares_memory(dx, bwd["dx"])
        assert dx.dtype == dtype and dx.shape == x.shape
        assert dx.tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize("padding", [T.SAME_CEIL, T.VALID_FLOOR])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_one_cell_pool_output_is_fresh(self, padding, train):
        """A 1x1 pool's one slice is its input; its output is a copy."""
        x = np.random.default_rng(0).random((2, 5, 4, 3), np.float32)
        out, _ = alone(L.MaxPool2D(1, 1, padding), x, train=train)
        assert not np.may_share_memory(out, x)
        assert out.tobytes() == x.tobytes()


class TestConvWindows:
    @pytest.mark.parametrize("kernel,stride,padding", [
        (3, 1, T.SAME_CEIL), (7, 2, T.SAME_CEIL), (1, 1, T.VALID_FLOOR),
        (1, 2, T.VALID_FLOOR), (3, 2, T.SAME_CEIL)])
    def test_forward_matches_direct_loop(self, kernel, stride, padding):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 9, 8, 3))
        conv = L.Conv2D(4, kernel, in_channels=3, stride=stride, seed=3,
                        dtype=np.float64)
        out, _ = alone(conv, x)
        (pt, pb), (pl, pr) = T.pad_amounts(9, 8, kernel, stride, padding)
        xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
        want = np.empty(out.shape)
        for b, i, j in np.ndindex(*out.shape[:3]):
            win = xp[b, i * stride:i * stride + kernel,
                     j * stride:j * stride + kernel]
            want[b, i, j] = np.tensordot(win, conv.params["weight"], 3)
        want += conv.params["bias"]
        assert np.allclose(out, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("model_id", [8, 1])
    def test_eval_column_blocks_byte_equal(self, model_id, monkeypatch):
        """Every conv of a batch-8 forward gives the same bytes with one
        image per column block, with one block for the batch, in train
        mode, and as the whole-column product col @ w2 + bias."""
        forward = L.Conv2D.forward
        checked = []

        def check(conv, x, train=False, rng=None, *, out, keep):
            outs = []
            for budget in (1, 2 ** 40):
                monkeypatch.setattr(L, "COL_BUDGET", budget)
                outs.append(forward(conv, x, out=lone_views(conv, x)[0],
                                    keep=False))
            kept = lone_views(conv, x, train=True)[0]
            outs.append(forward(conv, x, train=True, out=kept, keep=True))
            outs.append(whole_columns(conv, kept.get("xp", x))
                        @ conv.params["weight"].reshape(-1, conv.filters)
                        + conv.params["bias"])
            assert all(out.dtype == np.float32
                       and out.tobytes() == outs[0].tobytes()
                       for out in outs), conv
            checked.append(conv)
            return outs[0]

        model = models.build_model(models.registry_lookup(model_id), seed=0)
        monkeypatch.setattr(L.Conv2D, "forward", check)
        x = np.random.default_rng(0).random((8, *models.INPUT_SPEC),
                                            np.float32)
        model.forward(x)
        assert len(checked) == sum(node.layer.kind == "conv2d"
                                   for node in model.nodes)

    def test_eval_columns_bounded(self):
        """Model 8's block2_conv at batch 8 builds one image's columns at a
        time (2.8 MB) instead of the batch's (22 MB)."""
        model = models.build_model(models.registry_lookup(8), seed=0)
        conv = next(node.layer for node in model.nodes
                    if node.name == "block2_conv")
        x = np.random.default_rng(0).random((8, 49, 49, conv.in_channels),
                                            np.float32)
        tracemalloc.start()
        try:
            alone(conv, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6, peak

    def test_pointwise_conv_caches_view_of_input(self):
        """A 1x1 conv's train plan keeps its input itself for backward, not
        a padded copy."""
        conv = L.Conv2D(4, 1, in_channels=3, seed=0)
        spec = conv.buffers((2, 5, 5, 3), np.float32, True, True)
        assert spec.holds and "xp" not in spec.fwd

    def test_pointwise_conv_backward_skips_scatter(self, monkeypatch):
        conv = L.Conv2D(4, 1, in_channels=3, seed=0)
        rng = np.random.default_rng(1)
        x = rng.random((2, 5, 5, 3), np.float32)
        _, backward = alone(conv, x, train=True)
        upstream = rng.standard_normal((2, 5, 5, 4)).astype(np.float32)
        upstream[0, 0, 0] = -0.0
        dcol = upstream.reshape(-1, 4) @ conv.params["weight"].reshape(3, 4).T
        want = scatter_windows(dcol.reshape(2, 5, 5, 1, 1, 3), x.shape, 1,
                               ((0, 0), (0, 0)))
        monkeypatch.setattr(L, "_col2im", None)  # must not be called
        dx = backward(upstream)
        assert dx.dtype == np.float32
        assert dx.tobytes() == want.tobytes()  # the sign of zeros too


def whole_columns(conv, xp):
    """The conv's whole (N*Ho*Wo, k*k*C_in) column matrix, rebuilt from its
    padded input xp by a strided window view of its own."""
    k, s = conv.kernel, conv.stride
    win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, k * k * xp.shape[3])


def column_count(conv, y):
    """The number of values in the column matrix of the conv's output y."""
    return y.size // conv.filters * conv.kernel ** 2 * conv.in_channels


def column_weight_grad(conv, xp, upstream):
    """Reference weight gradient: the whole-column product col.T @ g2 over
    the padded input xp, added onto the gradient buffer as backward adds
    it."""
    g2 = upstream.reshape(-1, conv.filters)
    return conv.grads["weight"] + (whole_columns(conv, xp).T @ g2).reshape(
        conv.params["weight"].shape)


def column_input_grad(conv, in_shape, upstream):
    """Reference conv input gradient for an input of shape `in_shape`: the
    full column gradient g2 @ w2.T, whose columns run over (i, j, c),
    scattered cell by cell by _col2im."""
    n, h, w, c = in_shape
    pads = T.pad_amounts(h, w, conv.kernel, conv.stride, T.SAME_CEIL)
    w2 = conv.params["weight"].reshape(-1, conv.filters)
    dcol = upstream.reshape(-1, conv.filters) @ w2.T
    cells = np.moveaxis(dcol.reshape(*upstream.shape[:3], -1,
                                     conv.in_channels), 3, 0)
    (pt, pb), (pl, pr) = pads
    return L._col2im(cells, in_shape, conv.kernel, conv.stride, pads,
                     np.empty((n, h + pt + pb, w + pl + pr, c), dcol.dtype))


class TestConvInputGradient:
    @pytest.mark.parametrize("model_id", [8, 1])
    def test_cell_by_cell_byte_equal_to_columns(self, model_id, monkeypatch):
        """Every conv of a batch-8 train step gives the weight gradient
        bytes of the whole-column product and, unless it is the frontier,
        the input gradient bytes of the full column gradient's scatter, in
        float32."""
        backward = L.Conv2D.backward
        checked, weights = [], []

        def check(conv, upstream, x, input_grad=True, *, fwd, out):
            want_w = column_weight_grad(conv, fwd.get("xp", x), upstream)
            want = (column_input_grad(conv, x.shape, upstream) if input_grad
                    else None)
            dx = backward(conv, upstream, x, input_grad, fwd=fwd, out=out)
            assert conv.grads["weight"].tobytes() == want_w.tobytes(), conv
            weights.append(conv)
            if input_grad:
                assert dx.dtype == np.float32, conv
                assert dx.tobytes() == want.tobytes(), conv
                checked.append(conv)
            return dx

        model = models.build_model(models.registry_lookup(model_id), seed=0)
        for node in model.nodes:  # model 1 builds with a frozen backbone
            node.layer.trainable = True
        monkeypatch.setattr(L.Conv2D, "backward", check)
        rng = np.random.default_rng(0)
        x = rng.random((8, *models.INPUT_SPEC), np.float32)
        probs = model.forward(x, train=True, rng=rng)
        model.backward(rng.standard_normal(probs.shape).astype(np.float32))
        convs = sum(node.layer.kind == "conv2d" for node in model.nodes)
        assert len(weights) == convs
        # every conv but the frontier (the first node) scatters
        assert len(checked) == convs - 1

    # the geometries of the registry models; ResNet's 7x7 stem is node 0,
    # which computes no input gradient
    @pytest.mark.parametrize("kernel,stride", [(3, 1), (1, 2), (1, 1),
                                               (7, 2)])
    def test_float64_shadow_byte_equal_to_columns(self, kernel, stride):
        conv = L.Conv2D(5, kernel, in_channels=4, stride=stride, seed=2,
                        dtype=np.float64)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 9, 8, 4))
        fwd, bwd = lone_views(conv, x, train=True)
        y = conv.forward(x, train=True, out=fwd, keep=True)
        upstream = rng.standard_normal(y.shape)
        upstream[0, 0, 0] = -0.0
        want_w = column_weight_grad(conv, fwd.get("xp", x), upstream)
        input_grad = kernel != 7
        want = (column_input_grad(conv, x.shape, upstream) if input_grad
                else None)
        dx = conv.backward(upstream, x, input_grad, fwd=fwd, out=bwd)
        assert conv.grads["weight"].dtype == np.float64
        assert conv.grads["weight"].tobytes() == want_w.tobytes()
        if input_grad:
            assert dx.dtype == np.float64
            assert dx.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel,stride", [(3, 1), (1, 2), (7, 2)])
    def test_wider_weights_fit_cells_in_column_buffer(self, kernel, stride):
        """float64 weights on a float32 input: the column buffer, which
        holds one kernel row's columns and then each cell's float64
        gradient, is float64, and the gradients keep the whole-column
        bytes. As in the float64 shadow test, the 7x7 stem, a frontier,
        computes no input gradient."""
        conv = L.Conv2D(5, kernel, in_channels=4, stride=stride, seed=2,
                        dtype=np.float64)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 9, 8, 4)).astype(np.float32)
        fwd, bwd = lone_views(conv, x, train=True)
        assert bwd["col"].dtype == np.float64
        assert bwd["col"].shape[1] == kernel * 4
        y = conv.forward(x, train=True, out=fwd, keep=True)
        upstream = rng.standard_normal(y.shape)
        upstream[0, 0, 0] = -0.0
        want_w = column_weight_grad(conv, fwd.get("xp", x), upstream)
        input_grad = kernel != 7
        want = (column_input_grad(conv, x.shape, upstream) if input_grad
                else None)
        dx = conv.backward(upstream, x, input_grad, fwd=fwd, out=bwd)
        assert conv.grads["weight"].tobytes() == want_w.tobytes()
        if input_grad:
            assert dx.dtype == np.float64 and dx.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel,stride,extent", [
        (3, 1, 7), (7, 2, 8), (1, 1, 7), (1, 2, 7), (1, 2, 8)])
    def test_train_cache_is_padded_input(self, kernel, stride, extent):
        """What a train forward keeps for backward is its padded input: the
        input itself, which the plan holds, when nothing is padded, else a
        padded copy in its `xp` view."""
        conv = L.Conv2D(4, kernel, in_channels=3, stride=stride, seed=0)
        x = np.random.default_rng(0).random((2, extent, extent, 3),
                                            np.float32)
        spec = conv.buffers(x.shape, x.dtype, True, True)
        pads = T.pad_amounts(extent, extent, kernel, stride, T.SAME_CEIL)
        padded = any(p for pair in pads for p in pair)
        assert spec.holds == (not padded)
        assert [role for name, (_, _, role) in spec.fwd.items()
                if name == "xp"] == ([L.CACHE] if padded else [])
        fwd, _ = lone_views(conv, x, train=True)
        conv.forward(x, train=True, out=fwd, keep=True)
        xp = fwd.get("xp", x)
        assert xp.tobytes() == np.pad(x, ((0, 0), *pads, (0, 0))).tobytes()

    def test_no_column_matrix_survives(self):
        """Model 8's block2_conv at batch 8 keeps its 2.7 MB padded input
        from forward to backward, not its 22 MB column matrix, and its
        backward returns a view of the padded input gradient it is handed.
        Beyond the views a plan hands it, neither call leaves anything
        behind."""
        conv = L.Conv2D(64, 3, in_channels=32, seed=0)
        rng = np.random.default_rng(0)
        x = rng.random((8, 49, 49, 32), np.float32)
        upstream = rng.standard_normal((8, 49, 49, 64)).astype(np.float32)
        fwd, bwd = lone_views(conv, x, train=True)
        conv.forward(x, train=True, out=fwd, keep=True)
        # what a first call allocates
        conv.backward(upstream, x, fwd=fwd, out=bwd)
        kept = [name for name, (_, _, role)
                in conv.buffers(x.shape, x.dtype, True, True).fwd.items()
                if role == L.CACHE]
        tracemalloc.start()
        try:
            y = conv.forward(x, train=True, out=fwd, keep=True)
            after_forward = tracemalloc.get_traced_memory()[0]
            cached = sum(fwd[name].nbytes for name in kept)
            dx = conv.backward(upstream, x, fwd=fwd, out=bwd)
            after_backward = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        padded = 8 * 51 * 51 * 32 * 4  # the cache, then dx's base
        assert column_count(conv, y) * y.itemsize > 22e6
        assert cached == padded
        assert dx.base is bwd["dx"] and dx.base.nbytes == padded
        assert after_forward < 0.1e6, after_forward
        assert after_backward < 0.1e6, after_backward

    def test_train_backward_memory_bounded(self):
        """Model 8's block2_conv at batch 8 allocates next to nothing
        beyond the buffers it is handed (as a model's plan hands them):
        one kernel row of its column matrix (7.4 MB), which also holds one
        cell's gradient at a time, and the padded input gradient, not the
        full 22 MB column gradient."""
        model = models.build_model(models.registry_lookup(8), seed=0)
        conv = next(node.layer for node in model.nodes
                    if node.name == "block2_conv")
        rng = np.random.default_rng(0)
        x = rng.random((8, 49, 49, conv.in_channels), np.float32)
        fwd, bwd = lone_views(conv, x, train=True)
        upstream = rng.standard_normal(conv.forward(
            x, train=True, out=fwd, keep=True).shape).astype(np.float32)
        conv.backward(upstream, x, fwd=fwd, out=bwd)
        conv.forward(x, train=True, out=fwd, keep=True)
        tracemalloc.start()
        try:
            conv.backward(upstream, x, fwd=fwd, out=bwd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak


class TestForwardMemory:
    def test_eval_forward_memory_bounded(self):
        """Model 8's batch-8 eval forward peaks at about 14 MB, its arena
        and what it allocates beside it: batch norm and relu write the conv
        output they alone read (20 MB when every layer allocated its
        output). The arena is a memory mapping tracemalloc does not see, so
        its bytes are added."""
        model = models.build_model(models.registry_lookup(8), seed=0)
        x = np.random.default_rng(0).random((8, *models.INPUT_SPEC),
                                            np.float32)
        tracemalloc.start()
        try:
            model.forward(x)
            peak = tracemalloc.get_traced_memory()[1] + model._arena.nbytes
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak

    def test_frozen_train_forward_costs_what_eval_costs(self):
        """Model 1's phase-1 batch-8 train forward, whose backbone convs are
        all below the frontier, peaks within a few MB of its eval forward:
        a conv builds the same column blocks in either mode (the train
        forward peaked 11 MB higher when a conv copied its whole column
        matrix in train mode). Each peak counts the arena the model holds
        after the forward, which tracemalloc does not see."""
        cfg = models.registry_lookup(1)
        model = models.build_model(cfg, seed=0)
        optim.apply_phase(cfg, model, optim.make_optimizer(cfg), 1)
        x = np.random.default_rng(0).random((8, *models.INPUT_SPEC),
                                            np.float32)
        peaks = {}
        for train in (False, True):
            model.forward(x, train=train, rng=np.random.default_rng(0))
            tracemalloc.start()
            try:
                model.forward(x, train=train, rng=np.random.default_rng(0))
                peaks[train] = (tracemalloc.get_traced_memory()[1]
                                + model._arena.nbytes)
            finally:
                tracemalloc.stop()
        assert peaks[True] - peaks[False] < 5e6, peaks


class TestGradients:
    def test_conv2d(self):
        conv = L.Conv2D(3, 3, in_channels=2, stride=1, seed=1,
                        dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((1, 4, 4, 2))
        finite_difference_check(conv, x)

    def test_conv2d_strided_ceil(self):
        conv = L.Conv2D(2, 3, in_channels=2, stride=2, seed=2,
                        dtype=np.float64)
        x = np.random.default_rng(1).standard_normal((2, 5, 5, 2))
        finite_difference_check(conv, x)

    def test_batchnorm_train(self):
        bn = L.BatchNorm(3, dtype=np.float64)
        rng = np.random.default_rng(2)
        bn.params["scale"] = rng.standard_normal(3)
        bn.params["shift"] = rng.standard_normal(3)
        x = rng.standard_normal((2, 3, 3, 3))
        finite_difference_check(bn, x)

    def test_dense(self):
        dense = L.Dense(5, 7, seed=3, dtype=np.float64)
        x = np.random.default_rng(4).standard_normal((3, 7))
        finite_difference_check(dense, x)

    def test_maxpool(self):
        x = np.random.default_rng(5).standard_normal((2, 5, 5, 2))
        finite_difference_check(L.MaxPool2D(2, 2), x)

    def test_globalavgpool(self):
        x = np.random.default_rng(6).standard_normal((2, 4, 4, 3))
        finite_difference_check(L.GlobalAvgPool(), x)

    def test_relu(self):
        x = np.random.default_rng(7).standard_normal((3, 5)) + 0.1
        finite_difference_check(L.ReLU(), x)

    def test_softmax(self):
        x = np.random.default_rng(8).standard_normal((2, 6))
        finite_difference_check(L.Softmax(), x)

    def test_dropout(self):
        x = np.random.default_rng(9).standard_normal((3, 5))
        finite_difference_check(L.Dropout(0.3), x, dropout_seed=11)

    def test_add(self):
        add = L.Add()
        a = np.random.default_rng(10).standard_normal((2, 3))
        _, backward = alone(add, a, a + 1.0, train=True)
        upstream = np.ones((2, 3))
        da, db = backward(upstream)
        assert da is upstream
        assert np.array_equal(db, upstream)
        # each input's gradient has one owner
        assert not np.shares_memory(da, db)


class TestParamCounts:
    def test_conv_example(self):
        conv = L.Conv2D(32, 3, in_channels=3, seed=0)
        assert conv.param_count() == (896, 0)

    def test_batchnorm_blocks_sum(self):
        # 32+64+128+256 channels across the four custom-CNN blocks
        tr = ntr = 0
        for c in (32, 64, 128, 256):
            a, b = L.BatchNorm(c).param_count()
            tr += a
            ntr += b
        assert (tr, ntr) == (960, 960)

    def test_dense_example(self):
        dense = L.Dense(512, 2304, seed=0)
        assert dense.param_count() == (1_180_160, 0)

    def test_freeze_moves_counts(self):
        dense = L.Dense(4, 8, seed=0)
        tr, ntr = dense.param_count()
        dense.trainable = False
        assert dense.param_count() == (0, tr + ntr)
        dense.trainable = True
        assert dense.param_count() == (tr, ntr)


class TestBatchNormStatistics:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_keeps_dtype(self, dtype):
        bn = L.BatchNorm(4, dtype=dtype)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 3, 4)).astype(dtype)
        _, backward = alone(bn, x, train=True)
        dx = backward(rng.standard_normal(x.shape).astype(dtype))
        assert dx.dtype == dtype
        assert all(g.dtype == dtype for g in bn.grads.values())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_builds_dx_in_its_cache(self, dtype):
        """dx is made in the centred input the forward cached, which only
        the layer holds and the backward consumes."""
        bn = L.BatchNorm(4, dtype=dtype)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 3, 4)).astype(dtype)
        fwd, bwd = lone_views(bn, x, train=True)
        bn.forward(x, train=True, out=fwd, keep=True)
        dx = bn.backward(rng.standard_normal(x.shape).astype(dtype), x,
                         fwd=fwd, out=bwd)
        assert dx.dtype == dtype
        assert np.shares_memory(dx, fwd["xc"])
        assert not np.shares_memory(dx, x)

    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_recomputes_forward_inv_std(self, dtype, batch,
                                                 monkeypatch):
        """Backward recomputes inv_std from the centred input the forward
        kept, with the forward's own expression, so it gets the forward's
        bytes, and dscale, dshift and dx are the bytes of the backward
        formula evaluated with the forward's inv_std."""
        inv_stds, real = [], L.BatchNorm._inv_std

        def record(self, var, dtype):
            inv_stds.append(real(self, var, dtype))
            return inv_stds[-1]

        monkeypatch.setattr(L.BatchNorm, "_inv_std", record)
        rng = np.random.default_rng(batch)
        bn = L.BatchNorm(4, dtype=dtype)
        bn.params["scale"] = rng.standard_normal(4).astype(dtype)
        x = (rng.standard_normal((batch, 5, 5, 4)) * 3 + 1).astype(dtype)
        upstream = rng.standard_normal(x.shape).astype(dtype)
        fwd, bwd = lone_views(bn, x, train=True)
        bn.forward(x, train=True, out=fwd, keep=True)
        inv_std, xc = inv_stds[0], fwd["xc"].copy()
        dx = bn.backward(upstream, x, fwd=fwd, out=bwd)
        assert inv_stds[1].tobytes() == inv_std.tobytes()
        count = x.dtype.type(x.size // 4)
        dscale = L._channel_sum(upstream, xc) * inv_std
        dshift = L._channel_sum(upstream)
        want = ((upstream - xc * (inv_std * dscale / count) - dshift / count)
                * (bn.params["scale"] * inv_std))
        zero = np.zeros(4, dtype)  # the gradient buffers it adds onto
        assert bn.grads["scale"].tobytes() == (zero + dscale).tobytes()
        assert bn.grads["shift"].tobytes() == (zero + dshift).tobytes()
        assert dx.dtype == dtype and dx.tobytes() == want.tobytes()

    def test_no_backward_after_eval_forward(self):
        """An eval forward writes the arena bytes of the centred input that
        the train forward before it kept for backward, so a model refuses
        a backward until its next train forward."""
        model = models.Model("GAP")
        model.add("bn", L.BatchNorm(3))
        model.add("gap", L.GlobalAvgPool())
        model.add("dense", L.Dense(models.NUM_CLASSES, 3, seed=0))
        model.add("softmax", L.Softmax())
        x = np.random.default_rng(0).random((2, *models.INPUT_SPEC),
                                            np.float32)
        model.forward(x, train=True)
        xc = model._backward_plan[0].fwd[0]["xc"]
        model.forward(x)
        y = model._plans[False, 0, x.shape, x.dtype].fwd[0]["y"]
        assert np.shares_memory(y, xc)
        with pytest.raises(StateError, match="backward called before"):
            model.backward(np.ones((2, models.NUM_CLASSES), np.float32))

    def test_train_output_normalized(self):
        bn = L.BatchNorm(4, dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((8, 5, 5, 4)) * 3 + 2
        out, _ = alone(bn, x, train=True)
        # unit scale / zero shift: per-channel mean ~ 0, var ~ 1
        assert np.all(np.abs(out.mean(axis=(0, 1, 2))) < 1e-5)
        assert np.all(np.abs(out.var(axis=(0, 1, 2)) - 1.0) < 1e-2)

    def test_moving_average_update(self):
        bn = L.BatchNorm(2, dtype=np.float64)
        x = np.full((4, 1, 1, 2), 10.0)
        alone(bn, x, train=True)
        assert np.allclose(bn.state["moving_mean"],
                           (1.0 - L.BN_MOMENTUM) * 10.0)

    def test_eval_uses_moving_stats(self):
        bn = L.BatchNorm(2, dtype=np.float64)
        bn.state["moving_mean"] = np.array([1.0, 2.0])
        bn.state["moving_var"] = np.array([4.0, 9.0])
        x = np.array([[[[1.0, 2.0]]]])
        out, _ = alone(bn, x)
        assert np.allclose(out, 0.0, atol=1e-3)


def reference_batchnorm(bn, x, upstream, train):
    """BatchNorm by its textbook formulas, each sum over axes (0, 1, 2):
    (output, moving_mean, moving_var, dscale, dshift, dx), the first three
    only in eval mode, which has no backward."""
    axes = tuple(range(x.ndim - 1))
    moving_mean, moving_var = bn.state["moving_mean"], bn.state["moving_var"]
    if train:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        m = np.asarray(L.BN_MOMENTUM, dtype=x.dtype)
        one = np.asarray(1.0, dtype=x.dtype)
        moving_mean = m * moving_mean + (one - m) * mean
        moving_var = m * moving_var + (one - m) * var
    else:
        mean, var = moving_mean, moving_var
    inv_std = 1.0 / np.sqrt(var + np.asarray(L.BN_EPSILON, dtype=x.dtype))
    xhat = (x - mean) * inv_std
    out = bn.params["scale"] * xhat + bn.params["shift"]
    if not train:
        return out, moving_mean, moving_var
    dscale = (upstream * xhat).sum(axis=axes)
    dshift = upstream.sum(axis=axes)
    g = upstream * bn.params["scale"]
    m = xhat.dtype.type(np.prod([x.shape[a] for a in axes]))
    dx = (inv_std / m) * (m * g - g.sum(axis=axes)
                          - xhat * (g * xhat).sum(axis=axes))
    return out, moving_mean, moving_var, dscale, dshift, dx


def channel_sum_shapes(model_id, batch=8):
    """The distinct (N,H,W,C) shapes whose per-channel sums a registry
    model's train step takes: BatchNorm inputs and conv outputs, whose
    gradients sum into the conv bias."""
    model = models.build_model(models.registry_lookup(model_id), seed=0)
    bn, conv = set(), set()
    x = np.zeros((1, *models.INPUT_SPEC), np.float32)
    outs = []
    for node in model.nodes:
        args = [x if i == -1 else outs[i] for i in node.inputs]
        outs.append(alone(node.layer, *args)[0])
        if node.layer.kind == "batchnorm":
            bn.add((batch, *args[0].shape[1:]))
        elif node.layer.kind == "conv2d":
            conv.add((batch, *outs[-1].shape[1:]))
    return sorted(bn), sorted(conv)


def random_batchnorm(shape):
    """A float32 BatchNorm for `shape` with random parameters and moving
    statistics, an input x and an upstream gradient, seeded by the shape."""
    rng = np.random.default_rng(shape[1] * shape[3])
    c = shape[3]
    bn = L.BatchNorm(c)
    bn.params["scale"] = rng.standard_normal(c).astype(np.float32)
    bn.params["shift"] = rng.standard_normal(c).astype(np.float32)
    bn.state["moving_mean"] = rng.standard_normal(c).astype(np.float32)
    bn.state["moving_var"] = (rng.random(c) + 0.5).astype(np.float32)
    x = (rng.standard_normal(shape) * 3 + 1).astype(np.float32)
    upstream = rng.standard_normal(shape).astype(np.float32)
    return bn, x, upstream


def run_batchnorm(bn, x, upstream, train):
    """The layer's values in `reference_batchnorm`'s order."""
    out, backward = alone(bn, x, train=train)
    stats = (out, bn.state["moving_mean"], bn.state["moving_var"])
    if not train:
        return stats
    dx = backward(upstream)
    return (*stats, bn.grads["scale"], bn.grads["shift"], dx)


class TestBatchNormNumerics:
    """BatchNorm's two-level channel sums against a float64 oracle: no less
    accurate than the textbook float32 formulas, and byte-deterministic."""

    NAMES = ("out", "moving_mean", "moving_var", "dscale", "dshift", "dx")

    @pytest.mark.parametrize("model_id", [8, 1])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_matches_float64_oracle(self, model_id, train):
        shapes, _ = channel_sum_shapes(model_id)
        assert len(shapes) == (4 if model_id == 8 else 9)
        for shape in shapes:
            bn, x, upstream = random_batchnorm(shape)
            bn64 = L.BatchNorm(shape[3], dtype=np.float64)
            for mine, theirs in ((bn64.params, bn.params),
                                 (bn64.state, bn.state)):
                for k, v in theirs.items():
                    mine[k] = v.astype(np.float64)
            oracle = reference_batchnorm(bn64, x.astype(np.float64),
                                         upstream.astype(np.float64), train)
            textbook = reference_batchnorm(bn, x, upstream, train)
            got = run_batchnorm(bn, x, upstream, train)
            assert len(got) == len(textbook) == len(oracle)
            for name, a, b, want in zip(self.NAMES, got, textbook, oracle):
                assert a.dtype == np.float32, (shape, name)
                err = np.abs(a - want).max()
                bound = np.abs(b - want).max()
                # the summed gradients are at least as accurate; the rest
                # within twice the textbook error
                factor = 1 if name in ("dscale", "dshift") else 2
                assert err <= factor * bound, (shape, name, err, bound)

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_reruns_byte_identical(self, train):
        shape = (8, 49, 49, 64)
        runs = [run_batchnorm(*random_batchnorm(shape), train)
                for _ in range(2)]
        for name, a, b in zip(self.NAMES, *runs):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("model_id", [8, 1])
    def test_channel_sum_matches_float64_oracle(self, model_id):
        bn_shapes, conv_shapes = channel_sum_shapes(model_id)
        for shape in sorted(set(bn_shapes) | set(conv_shapes)):
            rng = np.random.default_rng(shape[1] * shape[3])
            a = (rng.standard_normal(shape) * 3 + 1).astype(np.float32)
            b = rng.standard_normal(shape).astype(np.float32)
            a64, b64 = a.astype(np.float64), b.astype(np.float64)
            for got, flat, want in (
                    (L._channel_sum(a), a.sum(axis=(0, 1, 2)),
                     a64.sum(axis=(0, 1, 2))),
                    (L._channel_sum(a, b), (a * b).sum(axis=(0, 1, 2)),
                     (a64 * b64).sum(axis=(0, 1, 2)))):
                assert got.dtype == np.float32 and got.shape == (shape[3],)
                assert (np.abs(got - want).max()
                        <= np.abs(flat - want).max()), shape


class TestDropout:
    def test_train_preserves_expectation(self):
        x = np.ones((50, 50), dtype=np.float64)
        drop = L.Dropout(0.3)
        means = [alone(drop, x, train=True,
                       rng=np.random.default_rng(s))[0].mean()
                 for s in range(50)]
        assert abs(np.mean(means) - 1.0) < 0.02

    def test_survivors_scaled(self):
        x = np.ones((100, 100))
        out, _ = alone(L.Dropout(0.5), x, train=True,
                       rng=np.random.default_rng(0))
        surviving = out[out != 0]
        assert np.allclose(surviving, 2.0)
