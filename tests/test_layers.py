import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from pednet import layers as L
from pednet import models, optim
from pednet import tensor as T
from pednet.errors import ShapeError, StateError

RTOL = 1e-4
ATOL = 1e-6


def finite_difference_check(layer, x, dropout_seed=None, eps=1e-5):
    """Central finite differences (float64) against analytic backward,
    through train-mode forwards."""
    def run():
        rng = (np.random.default_rng(dropout_seed)
               if dropout_seed is not None else None)
        return layer.forward(x, train=True, rng=rng)

    y = run()
    upstream = np.random.default_rng(7).random(y.shape)
    layer.zero_grads()
    dx = layer.backward(upstream)

    def assert_close(numeric, analytic, what):
        err = abs(numeric - analytic)
        tol = ATOL + RTOL * abs(numeric)
        assert err <= tol, f"{what}: numeric {numeric} vs analytic {analytic}"

    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        x[i] += eps
        up = run()
        x[i] -= 2 * eps
        down = run()
        x[i] += eps
        numeric = float(((up - down) * upstream).sum() / (2 * eps))
        assert_close(numeric, float(dx[i]), f"d/dx{i}")
    for pname, p in layer.params.items():
        grad = layer.grads[pname]
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            p[i] += eps
            up = run()
            p[i] -= 2 * eps
            down = run()
            p[i] += eps
            numeric = float(((up - down) * upstream).sum() / (2 * eps))
            assert_close(numeric, float(grad[i]), f"d/d{pname}{i}")


class TestForwardSemantics:
    def test_relu(self):
        out = L.ReLU().forward(np.array([-2.0, 0.0, 3.0]))
        assert out.tolist() == [0.0, 0.0, 3.0]

    def test_globalavgpool(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        assert L.GlobalAvgPool().forward(x).tolist() == [[2.5]]

    def test_dropout_eval_identity(self):
        x = np.random.default_rng(0).random((4, 7), dtype=np.float32)
        out = L.Dropout(0.3).forward(x, train=False)
        assert np.array_equal(out, x)

    def test_softmax_uniform(self):
        out = L.Softmax().forward(np.zeros((1, 6)))
        assert np.allclose(out, 1 / 6, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(3).standard_normal((20, 6)) * 10
        out = L.Softmax().forward(x)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out > 0) and np.all(out < 1)

    def test_maxpool_values(self):
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        out = L.MaxPool2D(2, 2).forward(x)
        assert out.reshape(2, 2).tolist() == [[5.0, 7.0], [13.0, 15.0]]

    def test_conv_shape_mismatch(self):
        conv = L.Conv2D(4, 3, in_channels=3, seed=0)
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((1, 5, 5, 2)))

    def test_backward_before_forward(self):
        with pytest.raises(StateError):
            L.ReLU().backward(np.ones(3))

    @pytest.mark.parametrize("kind", ["conv2d", "relu", "maxpool2d", "dense",
                                      "dropout"])
    def test_no_backward_after_eval_forward(self, kind):
        layer, x = {
            "conv2d": (L.Conv2D(4, 3, 2, seed=0), np.ones((1, 5, 5, 2))),
            "relu": (L.ReLU(), np.ones((1, 4, 4, 2))),
            "maxpool2d": (L.MaxPool2D(2, 2), np.ones((1, 4, 4, 2))),
            "dense": (L.Dense(3, 2, seed=0), np.ones((2, 2))),
            "dropout": (L.Dropout(0.3), np.ones((2, 2))),
        }[kind]
        y = layer.forward(x, train=True, rng=np.random.default_rng(0))
        layer.forward(x, train=False)  # drops the train-mode cache
        assert layer.cache is None
        with pytest.raises(StateError):
            layer.backward(np.ones_like(y))


class TestBackwardSemantics:
    def test_relu_subgradient_zero_at_nonpositive(self):
        relu = L.ReLU()
        relu.forward(np.array([-2.0, 0.0, 3.0]), train=True)
        assert relu.backward(np.ones(3)).tolist() == [0.0, 0.0, 1.0]

    def test_dense_zero_upstream(self):
        dense = L.Dense(3, 4, seed=1, dtype=np.float64)
        x = np.random.default_rng(0).random((2, 4))
        dense.forward(x, train=True)
        dense.zero_grads()
        dx = dense.backward(np.zeros((2, 3)))
        assert np.all(dx == 0)
        assert np.all(dense.grads["weight"] == 0)
        assert np.all(dense.grads["bias"] == 0)

    def test_maxpool_routes_to_argmax(self):
        pool = L.MaxPool2D(2, 2)
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        pool.forward(x, train=True)
        dx = pool.backward(np.ones((1, 2, 2, 1)))
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
        out = pool.forward(x, train=True)
        upstream = rng.random(out.shape)
        want_out, want_dx = first_max_pool(x, kernel, stride, padding,
                                           upstream)
        dx = pool.backward(upstream)
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
        out = pool.forward(x, train=True)
        upstream = rng.standard_normal(out.shape).astype(dtype)
        upstream[0, 0, 0] = -0.0
        want, want_arg, want_dx = window_path_pool(x, kernel, stride, padding,
                                                   upstream)
        assert out.dtype == dtype and out.tobytes() == want.tobytes()
        # the same first maximum of every window
        assert np.array_equal(pool.cache[0], want_arg)
        dx = pool.backward(upstream)
        assert dx.dtype == dtype and dx.shape == x.shape
        assert dx.tobytes() == want_dx.tobytes()

    @slice_cases
    def test_eval_output_equals_train(self, kernel, stride, padding, extent,
                                      fill, dtype):
        x = _tied_input(fill, extent, dtype, np.random.default_rng(extent))
        # a first window whose maxima are zeros of both signs, in each order
        x[:, :3, :3] = -1.0
        x[0, 0, :2] = [[-0.0], [0.0]]
        x[1, 0, :2] = [[0.0], [-0.0]]
        pool = L.MaxPool2D(kernel, stride, padding)
        train_out = pool.forward(x, train=True)
        eval_out = pool.forward(x, train=False)
        assert pool.cache is None  # no first-max index
        assert eval_out.dtype == dtype
        assert eval_out.tobytes() == train_out.tobytes()

    @pytest.mark.parametrize("padding", [T.SAME_CEIL, T.VALID_FLOOR])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_one_cell_pool_output_is_fresh(self, padding, train):
        """A 1x1 pool's one slice is its input; its output is a copy."""
        x = np.random.default_rng(0).random((2, 5, 4, 3), np.float32)
        out = L.MaxPool2D(1, 1, padding).forward(x, train=train)
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
        out = conv.forward(x)
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

        def check(conv, x, train=False, rng=None, out=None, keep=True):
            outs = []
            for budget in (1, 2 ** 40):
                monkeypatch.setattr(L, "COL_BUDGET", budget)
                outs.append(forward(conv, x))
            outs.append(forward(conv, x, train=True))
            outs.append(whole_columns(conv) @ conv.params["weight"].reshape(
                -1, conv.filters) + conv.params["bias"])
            conv.cache = None
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
            conv.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6, peak

    def test_pointwise_conv_caches_view_of_input(self):
        conv = L.Conv2D(4, 1, in_channels=3, seed=0)
        x = np.random.default_rng(0).random((2, 5, 5, 3), np.float32)
        conv.forward(x, train=True)
        assert np.shares_memory(conv.cache[0], x)

    def test_pointwise_conv_backward_skips_scatter(self, monkeypatch):
        conv = L.Conv2D(4, 1, in_channels=3, seed=0)
        rng = np.random.default_rng(1)
        x = rng.random((2, 5, 5, 3), np.float32)
        conv.forward(x, train=True)
        upstream = rng.standard_normal((2, 5, 5, 4)).astype(np.float32)
        upstream[0, 0, 0] = -0.0
        dcol = upstream.reshape(-1, 4) @ conv.params["weight"].reshape(3, 4).T
        want = scatter_windows(dcol.reshape(2, 5, 5, 1, 1, 3), x.shape, 1,
                               ((0, 0), (0, 0)))
        monkeypatch.setattr(L, "_col2im", None)  # must not be called
        dx = conv.backward(upstream)
        assert dx.dtype == np.float32
        assert dx.tobytes() == want.tobytes()  # the sign of zeros too


def whole_columns(conv):
    """The conv's whole (N*Ho*Wo, k*k*C_in) column matrix, rebuilt from its
    train cache by a strided window view of its own."""
    xp = conv.cache[0]
    k, s = conv.kernel, conv.stride
    win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, k * k * xp.shape[3])


def column_count(conv, y):
    """The number of values in the column matrix of the conv's output y."""
    return y.size // conv.filters * conv.kernel ** 2 * conv.in_channels


def column_weight_grad(conv, upstream):
    """Reference weight gradient: the whole-column product col.T @ g2,
    added onto the gradient buffer as backward adds it."""
    g2 = upstream.reshape(-1, conv.filters)
    return conv.grads["weight"] + (whole_columns(conv).T @ g2).reshape(
        conv.params["weight"].shape)


def column_input_grad(conv, upstream):
    """Reference conv input gradient: the full column gradient g2 @ w2.T,
    whose columns run over (i, j, c), scattered cell by cell by _col2im."""
    _, in_shape, pads = conv.cache
    w2 = conv.params["weight"].reshape(-1, conv.filters)
    dcol = upstream.reshape(-1, conv.filters) @ w2.T
    cells = np.moveaxis(dcol.reshape(*upstream.shape[:3], -1,
                                     conv.in_channels), 3, 0)
    n, h, w, c = in_shape
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

        def check(conv, upstream, input_grad=True, out=None):
            want_w = column_weight_grad(conv, upstream)
            want = column_input_grad(conv, upstream) if input_grad else None
            dx = backward(conv, upstream, input_grad, out)
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
        y = conv.forward(rng.standard_normal((2, 9, 8, 4)), train=True)
        upstream = rng.standard_normal(y.shape)
        upstream[0, 0, 0] = -0.0
        want_w = column_weight_grad(conv, upstream)
        input_grad = kernel != 7
        want = column_input_grad(conv, upstream) if input_grad else None
        dx = conv.backward(upstream, input_grad)
        assert conv.grads["weight"].dtype == np.float64
        assert conv.grads["weight"].tobytes() == want_w.tobytes()
        if input_grad:
            assert dx.dtype == np.float64
            assert dx.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel,stride,extent", [
        (3, 1, 7), (7, 2, 8), (1, 1, 7), (1, 2, 7), (1, 2, 8)])
    def test_train_cache_is_padded_input(self, kernel, stride, extent):
        """A train forward caches (padded input, input shape, pads): the
        input itself when nothing is padded, else a padded copy."""
        conv = L.Conv2D(4, kernel, in_channels=3, stride=stride, seed=0)
        x = np.random.default_rng(0).random((2, extent, extent, 3),
                                            np.float32)
        conv.forward(x, train=True)
        xp, in_shape, pads = conv.cache
        assert in_shape == x.shape
        assert pads == T.pad_amounts(extent, extent, kernel, stride,
                                     T.SAME_CEIL)
        padded = any(p for pair in pads for p in pair)
        assert (xp is not x) == padded
        assert np.shares_memory(xp, x) == (not padded)
        assert xp.tobytes() == np.pad(x, ((0, 0), *pads, (0, 0))).tobytes()

    def test_no_column_matrix_survives(self):
        """Model 8's block2_conv at batch 8 keeps its 2.7 MB padded input
        from forward to backward, not its 22 MB column matrix, and its
        backward leaves nothing behind but the padded input gradient it
        returns a view of. Called without a plan's views, the conv
        allocates its own and drops its scratch when it returns."""
        conv = L.Conv2D(64, 3, in_channels=32, seed=0)
        rng = np.random.default_rng(0)
        x = rng.random((8, 49, 49, 32), np.float32)
        upstream = rng.standard_normal((8, 49, 49, 64)).astype(np.float32)
        conv.forward(x, train=True)
        conv.backward(upstream)  # what a first call allocates for good
        tracemalloc.start()
        try:
            y = conv.forward(x, train=True)
            after_forward = tracemalloc.get_traced_memory()[0]
            dx = conv.backward(upstream)
            conv.cache = None
            after_backward = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        padded = 8 * 51 * 51 * 32 * 4  # the cache, then dx's base
        assert column_count(conv, y) * y.itemsize > 22e6
        assert dx.base.nbytes == padded
        assert after_forward < y.nbytes + padded + 0.1e6, after_forward
        assert after_backward < y.nbytes + padded + 0.1e6, after_backward

    def test_train_backward_memory_bounded(self):
        """Model 8's block2_conv at batch 8 holds one cell's gradient (2.5
        MB) and the padded input gradient at a time, not the full 22 MB
        column gradient, beyond the buffers it is handed (as a model's plan
        hands them), its column matrix among them."""
        model = models.build_model(models.registry_lookup(8), seed=0)
        conv = next(node.layer for node in model.nodes
                    if node.name == "block2_conv")
        rng = np.random.default_rng(0)
        x = rng.random((8, 49, 49, conv.in_channels), np.float32)
        upstream = rng.standard_normal(
            conv.forward(x, train=True).shape).astype(np.float32)
        conv.backward(upstream)
        conv.forward(x, train=True)
        out = {name: np.empty(shape, dtype) for name, (shape, dtype) in
               conv.buffers(x.shape, x.dtype, True, True).bwd.items()}
        tracemalloc.start()
        try:
            conv.backward(upstream, out=out)
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
        add.forward(a, a + 1.0)
        da, db = add.backward(np.ones((2, 3)))
        assert np.array_equal(da, np.ones((2, 3)))
        assert np.array_equal(db, np.ones((2, 3)))


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
        bn.forward(x, train=True)
        dx = bn.backward(rng.standard_normal(x.shape).astype(dtype))
        assert dx.dtype == dtype
        assert all(g.dtype == dtype for g in bn.grads.values())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_builds_dx_in_its_cache(self, dtype):
        """dx is made in the centred input the forward cached, which only
        the layer holds and the backward consumes."""
        bn = L.BatchNorm(4, dtype=dtype)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 3, 4)).astype(dtype)
        bn.forward(x, train=True)
        xc = bn.cache[0]
        dx = bn.backward(rng.standard_normal(x.shape).astype(dtype))
        assert dx.dtype == dtype
        assert np.shares_memory(dx, xc)
        assert not np.shares_memory(dx, x)

    def test_no_backward_after_eval_forward(self):
        bn = L.BatchNorm(2)
        x = np.random.default_rng(0).random((2, 3, 3, 2), np.float32)
        bn.forward(x, train=True)
        bn.forward(x, train=False)  # must not leave the train cache behind
        with pytest.raises(StateError, match="backward called before"):
            bn.backward(np.ones_like(x))

    def test_train_output_normalized(self):
        bn = L.BatchNorm(4, dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((8, 5, 5, 4)) * 3 + 2
        out = bn.forward(x, train=True)
        # unit scale / zero shift: per-channel mean ~ 0, var ~ 1
        assert np.all(np.abs(out.mean(axis=(0, 1, 2))) < 1e-5)
        assert np.all(np.abs(out.var(axis=(0, 1, 2)) - 1.0) < 1e-2)

    def test_moving_average_update(self):
        bn = L.BatchNorm(2, dtype=np.float64)
        x = np.full((4, 1, 1, 2), 10.0)
        bn.forward(x, train=True)
        assert np.allclose(bn.state["moving_mean"],
                           (1.0 - L.BN_MOMENTUM) * 10.0)

    def test_eval_uses_moving_stats(self):
        bn = L.BatchNorm(2, dtype=np.float64)
        bn.state["moving_mean"] = np.array([1.0, 2.0])
        bn.state["moving_var"] = np.array([4.0, 9.0])
        x = np.array([[[[1.0, 2.0]]]])
        out = bn.forward(x, train=False)
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
        outs.append(node.layer.forward(*args))
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
    out = bn.forward(x, train=train)
    stats = (out, bn.state["moving_mean"], bn.state["moving_var"])
    if not train:
        return stats
    dx = bn.backward(upstream)
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
        means = [drop.forward(x, train=True,
                              rng=np.random.default_rng(s)).mean()
                 for s in range(50)]
        assert abs(np.mean(means) - 1.0) < 0.02

    def test_survivors_scaled(self):
        x = np.ones((100, 100))
        out = L.Dropout(0.5).forward(x, train=True,
                                     rng=np.random.default_rng(0))
        surviving = out[out != 0]
        assert np.allclose(surviving, 2.0)
