"""Layer vocabulary: conv, batchnorm, relu, pooling, dense, dropout, softmax.

Every layer carries its parameters, gradient buffers, a trainable flag, and a
forward cache used by backward. Only a train-mode forward fills the arrays a
backward reads; an eval forward keeps none of them. `Model` releases a cache
as soon as nothing will read it: `_run` below the frontier, `backward` once
the layer's backward has returned. A conv caches its padded input, not its
column matrix; its backward rebuilds the columns in one workspace per dtype,
which every conv shares and the process keeps. Feature maps are (N, H, W, C)
float arrays.

A forward never writes its inputs unless `own=True` says that the caller
hands it its first input: nothing else reads that array. BatchNorm, ReLU,
Add (its first operand) and train-mode Dropout then make their output in
it; every other layer ignores `own`. Flatten and eval-mode Dropout return a
view of their input; every other output is a fresh array or the owned one.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as T
from .errors import ShapeError, StateError

# Keras BatchNormalization defaults, which the paper's models train with
BN_MOMENTUM = 0.99
BN_EPSILON = 1e-3
# bytes of im2col columns a conv forward builds at a time (whole images)
COL_BUDGET = 4 * 2 ** 20
# one flat scratch array per dtype that every conv backward rebuilds its
# column matrix in, grown to the largest request and kept for the process
_WORKSPACE: dict[np.dtype, np.ndarray] = {}


def _pad(x, pads, value):
    """x with `pads` cells of `value` around its two spatial axes."""
    (pt, pb), (pl, pr) = pads
    if pt or pb or pl or pr:
        x = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)),
                   constant_values=value)
    return x


def _windows(xp, k, stride, writeable=False):
    """The (N,Ho,Wo,k,k,C) view of the k x k windows of a padded (N,H,W,C)
    map at `stride`; no copy."""
    win = sliding_window_view(xp, (k, k), axis=(1, 2), writeable=writeable)
    return win[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)


def _in_workspace(a):
    """A copy of `a` in the shared workspace of its dtype, which grows only
    for a larger request (dropping the smaller array first)."""
    if a.dtype not in _WORKSPACE or _WORKSPACE[a.dtype].size < a.size:
        _WORKSPACE.pop(a.dtype, None)
        _WORKSPACE[a.dtype] = np.empty(a.size, a.dtype)
    out = _WORKSPACE[a.dtype][:a.size].reshape(a.shape)
    np.copyto(out, a)
    return out


def _col2im(cell_grads, in_shape, k, stride, pads, dtype):
    """Sum the gradients of the k*k window cells, given in row-major order
    as (N,Ho,Wo,C) arrays, onto the (unpadded) input the windows read. The
    one scatter of conv and max-pool backward; each cell is added as it is
    drawn, so `cell_grads` may yield one reused buffer."""
    n, h, w, c = in_shape
    (pt, pb), (pl, pr) = pads
    out = np.zeros((n, h + pt + pb, w + pl + pr, c), dtype)
    # one cell of every window never aliases itself; overlapping windows
    # add where their cells coincide
    win = _windows(out, k, stride, writeable=True)
    for t, g in enumerate(cell_grads):
        cell = win[:, :, :, t // k, t % k]
        cell += g
    return out[:, pt:pt + h, pl:pl + w]


def _channel_sum(a, b=None):
    """Per-channel sum of an (N,H,W,C) map, or of the product a * b of two,
    in two levels: the N*H rows of W*C values, then the W rows of C values.
    Each level adds whole rows, so numpy runs it at memory speed, and two
    short running sums lose less than one of N*H*W terms."""
    n, h, w, c = a.shape
    rows = a.reshape(n * h, w * c)
    # einsum adds the rows of products in the order a.sum(0) adds rows,
    # without a product map in memory
    first = (rows.sum(0) if b is None else
             np.einsum("ij,ij->j", rows, b.reshape(n * h, w * c)))
    return first.reshape(w, c).sum(0)


def _first_max(arrays, index=True):
    """Elementwise max of equal-shaped arrays, in a fresh array, and, if
    `index`, the uint8 position of the first maximum (else None): a later
    array takes the position only where it is strictly greater. The max is
    the same np.maximum fold either way, into one buffer."""
    best = arrays[0]
    arg = np.zeros(best.shape, np.uint8) if index else None
    for i, a in enumerate(arrays[1:], 1):
        if index:
            later = a > best
            arg += later * (np.uint8(i) - arg)  # wraps mod 256: i where later
        # the first maximum makes the output, the later ones fold into it
        best = np.maximum(best, a, out=None if i == 1 else best)
    return (best.copy() if len(arrays) == 1 else best), arg


class Layer:
    """Base: parameter registry, gradient buffers, trainable flag, cache.
    Each kind defines forward(x, train, rng, own) and backward(upstream)."""

    kind = "layer"

    def __init__(self, **params):
        self.params: dict[str, np.ndarray] = params
        # np.zeros leaves pages unmapped until written (frozen layers' never)
        self.grads = {k: np.zeros(p.shape, p.dtype) for k, p in params.items()}
        self.state: dict[str, np.ndarray] = {}
        self.trainable = True
        self.cache = None

    def _require_cache(self):
        if self.cache is None:
            raise StateError(f"{self.kind}: backward called before forward")

    def zero_grads(self):
        """Zero the gradient buffers in place, keeping their dtype."""
        for g in self.grads.values():
            g.fill(0)

    def param_count(self):
        """(trainable, non_trainable) scalar counts for the ledger."""
        p = sum(v.size for v in self.params.values())
        s = sum(v.size for v in self.state.values())
        return (p, s) if self.trainable else (0, p + s)


class Conv2D(Layer):
    kind = "conv2d"

    def __init__(self, filters, kernel, in_channels, stride=1, seed=0,
                 dtype=T.DEFAULT_DTYPE):
        super().__init__(
            weight=T.he_normal((kernel, kernel, in_channels, filters), seed,
                               dtype),
            bias=np.zeros((filters,), dtype))
        self.filters = filters
        self.kernel = kernel
        self.in_channels = in_channels
        self.stride = stride

    def forward(self, x, train=False, rng=None, own=False):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ShapeError(f"conv2d expects (N,H,W,{self.in_channels}), got {x.shape}")
        pads = T.pad_amounts(x.shape[1], x.shape[2], self.kernel,
                             self.stride, T.SAME_CEIL)
        xp = _pad(x, pads, 0.0)
        # backward rebuilds the columns from the padded input: x itself when
        # nothing is padded, which stays intact because only an array's sole
        # reader writes it and a conv writes nothing
        self.cache = (xp, x.shape, pads) if train else None
        col = _windows(xp, self.kernel, self.stride)
        w2 = self.params["weight"].reshape(-1, self.filters)
        bias = self.params["bias"]
        # the columns and GEMM of a block of whole images at a time, so that
        # the columns in memory fit COL_BUDGET (or are one image's)
        y = np.empty((*col.shape[:3], self.filters),
                     np.result_type(x, w2, bias))
        image_bytes = col[0].size * col.itemsize
        step = max(1, COL_BUDGET // image_bytes)
        for i in range(0, len(x), step):
            block = y[i:i + step]
            np.matmul(col[i:i + step].reshape(-1, w2.shape[0]), w2,
                      out=block.reshape(-1, self.filters))
            block += bias
        return y

    def backward(self, upstream, input_grad=True):
        self._require_cache()
        xp, in_shape, pads = self.cache
        weight = self.params["weight"]
        k = self.kernel
        pointwise = k == 1 and self.stride == 1
        g2 = upstream.reshape(-1, self.filters)
        # the column matrix: the input itself for 1x1 stride 1, else its
        # windows copied into the workspace
        col = xp if pointwise else _in_workspace(_windows(xp, k, self.stride))
        col2 = col.reshape(len(g2), -1)
        self.grads["weight"] += (col2.T @ g2).reshape(weight.shape)
        self.grads["bias"] += _channel_sum(upstream)
        if not input_grad:
            return None
        if pointwise:
            # the one cell's gradient is the input gradient; + 0 turns -0.0
            # into +0.0 as _col2im's sum onto zeros does
            dx = g2 @ weight[0, 0].T
            dx += 0
            return dx.reshape(in_shape)
        # cell (i, j)'s gradient is g2 @ weight[i, j].T, built into one
        # reused buffer just before _col2im adds it on
        tmp = np.empty((len(g2), self.in_channels),
                       np.result_type(upstream, weight))
        cells = (np.matmul(g2, weight[i, j].T, out=tmp).reshape(
                     *upstream.shape[:3], self.in_channels)
                 for i in range(k) for j in range(k))
        return _col2im(cells, in_shape, k, self.stride, pads, tmp.dtype)


class BatchNorm(Layer):
    """Batch normalisation over the (N, H, W) axes of each channel.

    Every per-channel sum is `_channel_sum`'s two-level order. Train mode
    caches the centred input x - mean; x-hat is never stored, since
    scale * inv_std folds into one coefficient. Eval mode normalises with
    the moving statistics and caches nothing: training backpropagates only
    through train-mode forwards. An owned x becomes the centred input
    (train) or the output (eval), and backward builds dx in that centred
    input, so one forward's cache serves one backward.
    """

    kind = "batchnorm"

    def __init__(self, channels, dtype=T.DEFAULT_DTYPE):
        super().__init__(scale=np.ones((channels,), dtype),
                         shift=np.zeros((channels,), dtype))
        self.channels = channels
        self.state["moving_mean"] = np.zeros((channels,), dtype)
        self.state["moving_var"] = np.ones((channels,), dtype)

    def _inv_std(self, var, dtype):
        return 1.0 / np.sqrt(var + np.asarray(BN_EPSILON, dtype=dtype))

    def forward(self, x, train=False, rng=None, own=False):
        if x.ndim != 4 or x.shape[3] != self.channels:
            raise ShapeError(f"batchnorm expects (N,H,W,{self.channels}), got {x.shape}")
        into = x if own else None
        if not train:
            self.cache = None
            out = np.subtract(x, self.state["moving_mean"], out=into)
            out *= self.params["scale"] * self._inv_std(
                self.state["moving_var"], x.dtype)
            out += self.params["shift"]
            return out
        # in the data dtype: a numpy int64 count would promote float32
        count = x.dtype.type(x.size // self.channels)
        mean = _channel_sum(x) / count
        xc = np.subtract(x, mean, out=into)
        var = _channel_sum(xc, xc) / count
        m = np.asarray(BN_MOMENTUM, dtype=x.dtype)
        one = np.asarray(1.0, dtype=x.dtype)
        self.state["moving_mean"] = (m * self.state["moving_mean"]
                                     + (one - m) * mean)
        self.state["moving_var"] = (m * self.state["moving_var"]
                                    + (one - m) * var)
        inv_std = self._inv_std(var, x.dtype)
        self.cache = (xc, inv_std)
        out = xc * (self.params["scale"] * inv_std)
        out += self.params["shift"]
        return out

    def backward(self, upstream, input_grad=True):
        self._require_cache()
        xc, inv_std = self.cache
        # sum(up * xhat) with xhat = xc * inv_std
        dscale = _channel_sum(upstream, xc) * inv_std
        dshift = _channel_sum(upstream)
        self.grads["scale"] += dscale
        self.grads["shift"] += dshift
        if not input_grad:
            return None
        count = xc.dtype.type(xc.size // self.channels)
        # the batch-statistics derivative in the consumed cache, which only
        # this layer holds (an owned input or its own array):
        # dx = coef * (up - sum(up) / m - xhat * sum(up * xhat) / m)
        dx = np.multiply(xc, inv_std * dscale / count, out=xc)
        np.subtract(upstream, dx, out=dx)
        dx -= dshift / count
        dx *= self.params["scale"] * inv_std
        return dx


class ReLU(Layer):
    kind = "relu"

    def forward(self, x, train=False, rng=None, own=False):
        self.cache = x > 0 if train else None  # subgradient at 0 is 0
        return np.maximum(x, 0, out=x if own else None)

    def backward(self, upstream):
        self._require_cache()
        return upstream * self.cache


class MaxPool2D(Layer):
    """Max-pool with first-max routing: each window sends its gradient to its
    first maximum in row-major order. Padding cells hold -inf.

    Cell (i, j) of every window is one strided slice of the padded input, so
    the pool compares kernel*kernel slices elementwise. Overlapping windows
    (the ResNet stem's 3x3/2) only make backward add where cells coincide.
    An eval forward folds the same maxima without the first-max index. The
    output is always a fresh array, a 1x1 pool's too.
    """

    kind = "maxpool2d"

    def __init__(self, kernel=2, stride=2, padding=T.VALID_FLOOR):
        super().__init__()
        self.kernel = kernel
        self.stride = stride
        self.padding = padding

    def forward(self, x, train=False, rng=None, own=False):
        if x.ndim != 4:
            raise ShapeError(f"maxpool2d expects rank-4 input, got {x.shape}")
        k, s = self.kernel, self.stride
        pads = T.pad_amounts(x.shape[1], x.shape[2], k, s, self.padding)
        win = _windows(_pad(x, pads, -np.inf), k, s)
        y, arg = _first_max([win[:, :, :, i, j]
                             for i in range(k) for j in range(k)], train)
        self.cache = (arg, x.shape, pads) if train else None
        return y

    def backward(self, upstream):
        self._require_cache()
        arg, in_shape, pads = self.cache
        routed = np.empty_like(upstream)
        # the sum onto zeros also turns the -0.0 of a negative gradient
        # times a losing cell into +0.0
        return _col2im((np.multiply(upstream, arg == t, out=routed)
                        for t in range(self.kernel ** 2)),
                       in_shape, self.kernel, self.stride, pads,
                       upstream.dtype)


class GlobalAvgPool(Layer):
    kind = "globalavgpool"

    def forward(self, x, train=False, rng=None, own=False):
        if x.ndim != 4:
            raise ShapeError(f"globalavgpool expects rank-4 input, got {x.shape}")
        self.cache = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, upstream):
        self._require_cache()
        n, h, w, c = self.cache
        g = upstream / np.asarray(h * w, dtype=upstream.dtype)
        return np.broadcast_to(g[:, None, None, :], self.cache).copy()


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x, train=False, rng=None, own=False):
        self.cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, upstream):
        self._require_cache()
        return upstream.reshape(self.cache)


class Dense(Layer):
    kind = "dense"

    def __init__(self, units, in_features, seed=0, dtype=T.DEFAULT_DTYPE):
        super().__init__(weight=T.he_normal((in_features, units), seed, dtype),
                         bias=np.zeros((units,), dtype))
        self.units = units
        self.in_features = in_features

    def forward(self, x, train=False, rng=None, own=False):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"dense expects (N,{self.in_features}), got {x.shape}")
        self.cache = x if train else None
        return x @ self.params["weight"] + self.params["bias"]

    def backward(self, upstream, input_grad=True):
        self._require_cache()
        x = self.cache
        self.grads["weight"] += x.T @ upstream
        self.grads["bias"] += upstream.sum(axis=0)
        if not input_grad:
            return None
        return upstream @ self.params["weight"].T


class Dropout(Layer):
    kind = "dropout"

    def __init__(self, rate):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ShapeError(f"dropout rate must be in [0,1), got {rate}")
        self.rate = rate

    def forward(self, x, train=False, rng=None, own=False):
        if not train:
            self.cache = None
            return x
        if rng is None:
            raise StateError("dropout in train mode requires an rng")
        keep = (rng.random(x.shape) >= self.rate)
        mask = keep.astype(x.dtype) / np.asarray(1.0 - self.rate, dtype=x.dtype)
        self.cache = mask
        return np.multiply(x, mask, out=x if own else None)

    def backward(self, upstream):
        self._require_cache()
        return upstream * self.cache


class Softmax(Layer):
    kind = "softmax"

    def forward(self, x, train=False, rng=None, own=False):
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=-1, keepdims=True)
        self.cache = (p, x)
        return p

    def backward(self, upstream):
        self._require_cache()
        p, _ = self.cache
        return p * (upstream - (upstream * p).sum(axis=-1, keepdims=True))

    @property
    def logits(self):
        """Pre-softmax activations from the last forward call."""
        self._require_cache()
        return self.cache[1]


class Add(Layer):
    """Residual merge; the one layer with two inputs."""

    kind = "add"

    def forward(self, a, b=None, train=False, rng=None, own=False):
        if b is None or a.shape != b.shape:
            raise ShapeError("add expects two equal-shaped inputs")
        self.cache = a.shape
        return np.add(a, b, out=a if own else None)

    def backward(self, upstream):
        self._require_cache()
        return upstream, upstream
