"""Layer vocabulary: conv, batchnorm, relu, pooling, dense, dropout, softmax.

Every layer carries its parameters, gradient buffers, statistics and a
trainable flag, and no state of a step. A forward fills the arrays a
backward reads only when told to `keep` them, and `Model`'s plan decides
that: a train forward at or above the frontier keeps, any other forward
keeps none. A backward is handed what it reads: the inputs its forward was
called with and that forward's views of the plan. A conv keeps its padded
input, not its column matrix; its backward rebuilds the columns one kernel
row at a time. A max-pool whose windows do not overlap writes each cell of
its input gradient once; only overlapping windows go through `_col2im`'s
sum. Feature maps are (N, H, W, C) float arrays.

Each kind's `buffers` lists the arrays a forward and a backward write for an
input shape: outputs, caches, scratch and input gradients. `Model` lays them
out in its arena and hands each call its views through `out=` (a backward
its forward's too, through `fwd=`), the one way a layer gets them. A
forward writes its input only where the plan made a buffer that
`Buffers.inplace` names the input's memory.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as T
from .errors import ShapeError, StateError

# Keras BatchNormalization defaults, which the paper's models train with
BN_MOMENTUM = 0.99
BN_EPSILON = 1e-3
# bytes of im2col columns a conv forward builds at a time (whole images)
COL_BUDGET = 4 * 2 ** 20
# the lifetime of a forward buffer: the output (read by later nodes), a
# cache (read by this node's backward) or scratch of the one call
OUT, CACHE, TEMP = "out", "cache", "temp"


class Buffers(NamedTuple):
    """The arrays one forward and one backward of a layer write, for an
    input of shape `shape` (see `Layer.buffers`).

    out: the output shape. fwd: name -> (shape, dtype, role) of what the
    forward writes; the OUT buffer is the output, and with none the output
    is the first input, a view of it, or the softmax's fresh array. bwd:
    name -> (shape, dtype) of what the backward writes. inplace: the
    forward buffer that may be the first input's memory, when nothing
    reads that input later. holds: the plan keeps the first input intact
    until the backward, which reads its values; a backward reads only the
    shape of any other input. grad: the buffer the input gradient is or
    views (of bwd, or a forward cache), one per input; None: the upstream
    gradient itself.
    """
    out: tuple
    fwd: dict
    bwd: dict
    inplace: str | None = None
    holds: bool = False
    grad: tuple = (None,)


def _pad(x, pads, value, out):
    """x with `pads` cells of `value` around its two spatial axes, written
    into `out`; x itself when nothing is padded."""
    (pt, pb), (pl, pr) = pads
    if not (pt or pb or pl or pr):
        return x
    h, w = x.shape[1:3]
    out[:, :pt] = value
    out[:, pt + h:] = value
    out[:, pt:pt + h, :pl] = value
    out[:, pt:pt + h, pl + w:] = value
    out[:, pt:pt + h, pl:pl + w] = x
    return out


def _window_geometry(shape, k, stride, padding, channels):
    """(pads, padded shape, output shape) of the k x k windows at `stride`
    over an (N,H,W,C) input, for an output of `channels` channels: the one
    place a windowed layer's forward and `buffers` take their shapes from."""
    n, h, w, c = shape
    pads = T.pad_amounts(h, w, k, stride, padding)
    (pt, pb), (pl, pr) = pads
    padded = (n, h + pt + pb, w + pl + pr, c)
    return pads, padded, (n, (padded[1] - k) // stride + 1,
                          (padded[2] - k) // stride + 1, channels)


def _images_per_block(n, image_bytes):
    """Whole images a conv forward builds the columns of at a time, so that
    the columns in memory fit COL_BUDGET (or are one image's)."""
    return min(n, max(1, COL_BUDGET // image_bytes))


def _windows(xp, k, stride, writeable=False):
    """The (N,Ho,Wo,k,k,C) view of the k x k windows of a padded (N,H,W,C)
    map at `stride`; no copy."""
    win = sliding_window_view(xp, (k, k), axis=(1, 2), writeable=writeable)
    return win[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)


def _col2im(cell_grads, in_shape, k, stride, pads, out):
    """Sum the gradients of the k*k window cells, given in row-major order
    as (N,Ho,Wo,C) arrays, onto the (unpadded) input the windows read, in
    the padded array `out`. The one scatter of conv and overlapping
    max-pool backward; each cell is added as it is drawn, so `cell_grads`
    may yield one reused buffer."""
    n, h, w, c = in_shape
    (pt, pb), (pl, pr) = pads
    out.fill(0)
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


def _first_max(arrays, out, arg=None, later=None):
    """Elementwise max of equal-shaped arrays into `out`, and, if `arg` is
    given, the uint8 position of the first maximum into it, with `later` a
    uint8 scratch of its shape. Array i takes the position only where it is
    strictly greater than the running max; every earlier position is below
    i, so the index is max(arg, i * won) with won = a > best as 0/1: two
    contiguous uint8 passes, where a masked copy (`where=`) was ten times
    slower. The max is the same np.maximum fold either way."""
    if arg is not None:
        arg.fill(0)
    if len(arrays) == 1:
        np.copyto(out, arrays[0])
    for i, a in enumerate(arrays[1:], 1):
        best = arrays[0] if i == 1 else out
        if arg is not None:
            won = np.greater(a, best, out=later)
            np.maximum(arg, np.multiply(won, np.uint8(i), out=won), out=arg)
        np.maximum(best, a, out=out)
    return out


class Layer:
    """Base: parameter registry, gradient buffers, statistics, trainable
    flag. Each kind defines buffers(shape, dtype, train, keep),
    forward(x, train, rng, *, out, keep) and backward(upstream, *inputs,
    [input_grad,] *, fwd, out), whose inputs and `fwd` views are its
    forward's. `train` picks the arithmetic (batch statistics, dropout);
    `keep`, which only a train forward is given, alone decides whether the
    forward fills the caches backward reads. Neither call sets an
    attribute of the layer, but for the softmax's `logits`."""

    kind = "layer"

    def __init__(self, **params):
        self.params: dict[str, np.ndarray] = params
        # np.zeros leaves pages unmapped until written (frozen layers' never)
        self.grads = {k: np.zeros(p.shape, p.dtype) for k, p in params.items()}
        self.state: dict[str, np.ndarray] = {}
        self.trainable = True

    def param_count(self):
        """(trainable, non_trainable) scalar counts for the ledger."""
        p = sum(v.size for v in self.params.values())
        s = sum(v.size for v in self.state.values())
        return (p, s) if self.trainable else (0, p + s)


class Conv2D(Layer):
    """`same_ceil` convolution as im2col and GEMM. The forward builds its
    columns in blocks of whole images (COL_BUDGET), the backward one kernel
    row at a time: each GEMM fills k*C_in rows of the weight gradient over
    all N*Ho*Wo columns, so the bytes are the whole-column product's. That
    row buffer then holds each window cell's input gradient for `_col2im`.
    A 1x1 stride-1 conv's columns are its input."""

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

    def _geometry(self, shape, dtype):
        """(pads, padded shape, output shape, images per column block) of
        an input shape and dtype."""
        pads, padded, y = _window_geometry(shape, self.kernel, self.stride,
                                           T.SAME_CEIL, self.filters)
        image = (y[1] * y[2] * self.kernel ** 2 * shape[3]
                 * np.dtype(dtype).itemsize)
        return pads, padded, y, _images_per_block(shape[0], image)

    def buffers(self, shape, dtype, train, keep):
        n, h, w, c = shape
        k, s = self.kernel, self.stride
        _, padded, y, step = self._geometry(shape, dtype)
        dt = np.result_type(dtype, self.params["weight"].dtype)
        fwd = {"y": (y, dt, OUT)}
        if padded != shape:
            fwd["xp"] = (padded, dtype, CACHE if keep else TEMP)
        kc, cells = k * c, n * y[1] * y[2]
        bwd = {"dw": ((k * kc, self.filters), dt)}
        if k == 1 and s == 1:
            bwd["dx"] = ((cells, c), dt)
        else:
            fwd["col"] = ((step * y[1] * y[2], k * kc), dtype, TEMP)
            # one kernel row's columns, then one cell's gradient in its
            # prefix: in the result dtype, which holds both
            bwd.update(col=((cells, kc), dt), dx=(padded, dt))
        return Buffers(y, fwd, bwd if keep else {},
                       holds=keep and padded == shape, grad=("dx",))

    def forward(self, x, train=False, rng=None, *, out, keep):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ShapeError(f"conv2d expects (N,H,W,{self.in_channels}), got {x.shape}")
        pads, _, _, step = self._geometry(x.shape, x.dtype)
        col = _windows(_pad(x, pads, 0.0, out.get("xp")), self.kernel,
                       self.stride)
        w2 = self.params["weight"].reshape(-1, self.filters)
        bias = self.params["bias"]
        y = out["y"]
        scratch = out.get("col")  # none for a 1x1 stride-1 conv: x is it
        # the columns and GEMM of a block of whole images at a time
        for i in range(0, len(x), step):
            win = col[i:i + step]
            if scratch is None:
                rows = win.reshape(-1, w2.shape[0])
            else:
                rows = scratch[:win[..., 0, 0, 0].size]
                np.copyto(rows.reshape(win.shape), win)
            block = y[i:i + step]
            np.matmul(rows, w2, out=block.reshape(-1, self.filters))
            block += bias
        return y

    def backward(self, upstream, x, input_grad=True, *, fwd, out):
        # the columns come from the padded input: x itself when nothing is
        # padded, which the plan keeps intact until then
        xp = fwd.get("xp", x)
        weight = self.params["weight"]
        k = self.kernel
        pointwise = k == 1 and self.stride == 1
        g2 = upstream.reshape(-1, self.filters)
        dw = out["dw"]
        if pointwise:  # the column matrix is the input itself
            np.matmul(xp.reshape(len(g2), -1).T, g2, out=dw)
        else:
            # kernel row i's columns give dw's rows i*k*C_in..(i+1)*k*C_in
            col = out["col"]
            win = _windows(xp, k, self.stride)
            rows = col.shape[1]
            for i in range(k):
                row = win[:, :, :, i]
                np.copyto(col.reshape(row.shape), row)
                np.matmul(col.T, g2, out=dw[i * rows:(i + 1) * rows])
        self.grads["weight"] += dw.reshape(weight.shape)
        self.grads["bias"] += _channel_sum(upstream)
        if not input_grad:
            return None
        if pointwise:
            # the one cell's gradient is the input gradient; + 0 turns -0.0
            # into +0.0 as _col2im's sum onto zeros does
            dx = np.matmul(g2, weight[0, 0].T, out=out["dx"])
            dx += 0
            return dx.reshape(x.shape)
        # cell (i, j)'s gradient is g2 @ weight[i, j].T, built into the
        # column buffer's first N*Ho*Wo*C_in values just before _col2im
        # adds it on
        tmp = col.reshape(-1)[:len(g2) * self.in_channels].reshape(len(g2), -1)
        cells = (np.matmul(g2, weight[i, j].T, out=tmp).reshape(
                     *upstream.shape[:3], self.in_channels)
                 for i in range(k) for j in range(k))
        pads = self._geometry(x.shape, x.dtype)[0]
        return _col2im(cells, x.shape, k, self.stride, pads, out["dx"])


class BatchNorm(Layer):
    """Batch normalisation over the (N, H, W) axes of each channel.

    Every per-channel sum is `_channel_sum`'s two-level order. Train mode
    caches the centred input x - mean, and neither x-hat, since
    scale * inv_std folds into one coefficient, nor inv_std: backward
    recomputes it from the centred input with the forward's expression on
    the same bytes, so it is the forward's. Eval mode normalises with the
    moving statistics and caches nothing: training backpropagates only
    through train-mode forwards. The centred input (train) or the output
    (eval) may be x's memory, and backward builds dx in the centred input,
    so one forward's cache serves one backward.
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

    def buffers(self, shape, dtype, train, keep):
        y = (shape, np.result_type(dtype, self.params["scale"].dtype), OUT)
        if not train:
            return Buffers(shape, {"y": y}, {}, inplace="y")
        xc = (shape, dtype, CACHE if keep else TEMP)
        return Buffers(shape, {"xc": xc, "y": y}, {}, inplace="xc",
                       grad=("xc",))

    def forward(self, x, train=False, rng=None, *, out, keep):
        if x.ndim != 4 or x.shape[3] != self.channels:
            raise ShapeError(f"batchnorm expects (N,H,W,{self.channels}), got {x.shape}")
        if not train:
            y = np.subtract(x, self.state["moving_mean"], out=out["y"])
            y *= self.params["scale"] * self._inv_std(
                self.state["moving_var"], x.dtype)
            y += self.params["shift"]
            return y
        # in the data dtype: a numpy int64 count would promote float32
        count = x.dtype.type(x.size // self.channels)
        mean = _channel_sum(x) / count
        xc = np.subtract(x, mean, out=out["xc"])
        var = _channel_sum(xc, xc) / count
        m = np.asarray(BN_MOMENTUM, dtype=x.dtype)
        one = np.asarray(1.0, dtype=x.dtype)
        self.state["moving_mean"] = (m * self.state["moving_mean"]
                                     + (one - m) * mean)
        self.state["moving_var"] = (m * self.state["moving_var"]
                                    + (one - m) * var)
        inv_std = self._inv_std(var, x.dtype)
        y = np.multiply(xc, self.params["scale"] * inv_std, out=out["y"])
        y += self.params["shift"]
        return y

    def backward(self, upstream, x, input_grad=True, *, fwd, out):
        xc = fwd["xc"]
        count = xc.dtype.type(xc.size // self.channels)
        # the forward's own expression on the same bytes: the same inv_std
        inv_std = self._inv_std(_channel_sum(xc, xc) / count, xc.dtype)
        # sum(up * xhat) with xhat = xc * inv_std
        dscale = _channel_sum(upstream, xc) * inv_std
        dshift = _channel_sum(upstream)
        self.grads["scale"] += dscale
        self.grads["shift"] += dshift
        if not input_grad:
            return None
        # the batch-statistics derivative in the consumed cache, which only
        # this backward reads:
        # dx = coef * (up - sum(up) / m - xhat * sum(up * xhat) / m)
        dx = np.multiply(xc, inv_std * dscale / count, out=xc)
        np.subtract(upstream, dx, out=dx)
        dx -= dshift / count
        dx *= self.params["scale"] * inv_std
        return dx


class ReLU(Layer):
    kind = "relu"

    def buffers(self, shape, dtype, train, keep):
        fwd = {"y": (shape, dtype, OUT)}
        if keep:
            fwd["mask"] = (shape, np.bool_, CACHE)
        return Buffers(shape, fwd, {"dx": (shape, dtype)} if keep else {},
                       inplace="y", grad=("dx",))

    def forward(self, x, train=False, rng=None, *, out, keep):
        if keep:  # subgradient at 0 is 0
            np.greater(x, 0, out=out["mask"])
        return np.maximum(x, 0, out=out["y"])

    def backward(self, upstream, x, *, fwd, out):
        return np.multiply(upstream, fwd["mask"], out=out["dx"])


class MaxPool2D(Layer):
    """Max-pool with first-max routing: each window sends its gradient to its
    first maximum in row-major order. Padding cells hold -inf.

    Cell (i, j) of every window is one strided slice of the padded input, so
    the pool compares kernel*kernel slices elementwise. A forward told to
    keep also builds the uint8 first-max index, with uint8 arithmetic
    on whole slices (see `_first_max`); one that keeps none folds the same
    maxima without it. The output never shares the input's memory.

    When kernel == stride the windows do not overlap, and backward writes
    each cell's routed gradient straight into its slice of the input
    gradient, once. Overlapping windows (the ResNet stem's 3x3/2) route
    each cell into a buffer that `_col2im` adds where cells coincide.
    """

    kind = "maxpool2d"

    def __init__(self, kernel=2, stride=2, padding=T.VALID_FLOOR):
        super().__init__()
        self.kernel = kernel
        self.stride = stride
        self.padding = padding

    def buffers(self, shape, dtype, train, keep):
        _, padded, y = _window_geometry(shape, self.kernel, self.stride,
                                        self.padding, shape[3])
        fwd = {"y": (y, dtype, OUT)}
        if padded != shape:
            fwd["xp"] = (padded, dtype, TEMP)
        if not keep:
            return Buffers(y, fwd, {})
        fwd.update(arg=(y, np.uint8, CACHE), later=(y, np.uint8, TEMP))
        bwd = {"hit": (y, np.bool_), "dx": (padded, dtype)}
        if self.kernel != self.stride:
            bwd["routed"] = (y, dtype)
        return Buffers(y, fwd, bwd, grad=("dx",))

    def forward(self, x, train=False, rng=None, *, out, keep):
        if x.ndim != 4:
            raise ShapeError(f"maxpool2d expects rank-4 input, got {x.shape}")
        k, s = self.kernel, self.stride
        pads = _window_geometry(x.shape, k, s, self.padding, x.shape[3])[0]
        win = _windows(_pad(x, pads, -np.inf, out.get("xp")), k, s)
        y = _first_max([win[:, :, :, i, j] for i in range(k) for j in range(k)],
                       out["y"], out.get("arg"), out.get("later"))
        return y

    def backward(self, upstream, x, *, fwd, out):
        k, s, arg = self.kernel, self.stride, fwd["arg"]
        pads = _window_geometry(x.shape, k, s, self.padding, x.shape[3])[0]
        hit, dx = out["hit"], out["dx"]
        if k != s:
            # the sum onto zeros also turns the -0.0 of a negative gradient
            # times a losing cell into +0.0
            return _col2im((np.multiply(upstream, np.equal(arg, t, out=hit),
                                        out=out["routed"])
                            for t in range(k * k)),
                           x.shape, k, s, pads, dx)
        # the windows tile the padded input from its top left corner: each
        # cell is written once, and what lies past the last window is zero
        _, ho, wo, _ = upstream.shape
        dx[:, ho * k:] = 0
        dx[:, :ho * k, wo * k:] = 0
        win = _windows(dx, k, k, writeable=True)
        for t in range(k * k):
            np.multiply(upstream, np.equal(arg, t, out=hit),
                        out=win[:, :, :, t // k, t % k])
        # + 0 turns the -0.0 of a negative gradient times a losing cell
        # into +0.0, as _col2im's sum onto zeros does
        np.add(dx, 0, out=dx)
        (pt, _), (pl, _) = pads
        return dx[:, pt:pt + x.shape[1], pl:pl + x.shape[2]]


class GlobalAvgPool(Layer):
    kind = "globalavgpool"

    def buffers(self, shape, dtype, train, keep):
        y = (shape[0], shape[3])
        return Buffers(y, {"y": (y, dtype, OUT)},
                       {"dx": (shape, dtype)} if keep else {},
                       grad=("dx",))

    def forward(self, x, train=False, rng=None, *, out, keep):
        if x.ndim != 4:
            raise ShapeError(f"globalavgpool expects rank-4 input, got {x.shape}")
        return x.mean(axis=(1, 2), out=out["y"])

    def backward(self, upstream, x, *, fwd, out):
        n, h, w, c = x.shape
        g = upstream / np.asarray(h * w, dtype=upstream.dtype)
        np.copyto(out["dx"], g[:, None, None, :])
        return out["dx"]


class Flatten(Layer):
    kind = "flatten"

    def buffers(self, shape, dtype, train, keep):
        return Buffers((shape[0], int(np.prod(shape[1:]))), {}, {})

    def forward(self, x, train=False, rng=None, *, out, keep):
        return x.reshape(x.shape[0], -1)

    def backward(self, upstream, x, *, fwd, out):
        return upstream.reshape(x.shape)


class Dense(Layer):
    kind = "dense"

    def __init__(self, units, in_features, seed=0, dtype=T.DEFAULT_DTYPE):
        super().__init__(weight=T.he_normal((in_features, units), seed, dtype),
                         bias=np.zeros((units,), dtype))
        self.units = units
        self.in_features = in_features

    def buffers(self, shape, dtype, train, keep):
        weight = self.params["weight"]
        dt = np.result_type(dtype, weight.dtype)
        y = (shape[0], self.units)
        return Buffers(y, {"y": (y, dt, OUT)},
                       {"dw": (weight.shape, dt), "dx": (shape, dt)}
                       if keep else {}, holds=keep, grad=("dx",))

    def forward(self, x, train=False, rng=None, *, out, keep):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"dense expects (N,{self.in_features}), got {x.shape}")
        y = np.matmul(x, self.params["weight"], out=out["y"])
        y += self.params["bias"]
        return y

    def backward(self, upstream, x, input_grad=True, *, fwd, out):
        self.grads["weight"] += np.matmul(x.T, upstream, out=out["dw"])
        self.grads["bias"] += upstream.sum(axis=0)
        if not input_grad:
            return None
        return np.matmul(upstream, self.params["weight"].T, out=out["dx"])


class Dropout(Layer):
    kind = "dropout"

    def __init__(self, rate):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ShapeError(f"dropout rate must be in [0,1), got {rate}")
        self.rate = rate

    def buffers(self, shape, dtype, train, keep):
        if not train:
            return Buffers(shape, {}, {})
        fwd = {"y": (shape, dtype, OUT),
               "mask": (shape, dtype, CACHE if keep else TEMP)}
        return Buffers(shape, fwd, {"dx": (shape, dtype)} if keep else {},
                       inplace="y", grad=("dx",))

    def forward(self, x, train=False, rng=None, *, out, keep):
        if not train:
            return x
        if rng is None:
            raise StateError("dropout in train mode requires an rng")
        kept = rng.random(x.shape) >= self.rate
        mask = np.divide(kept, np.asarray(1.0 - self.rate, dtype=x.dtype),
                         out=out["mask"])
        return np.multiply(x, mask, out=out["y"])

    def backward(self, upstream, x, *, fwd, out):
        return np.multiply(upstream, fwd["mask"], out=out["dx"])


def _softmax(x):
    """Row-wise softmax of x, from its max-shifted exponentials."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class Softmax(Layer):
    """The model's output layer. Its output and `logits`, a copy of the
    last forward's input, are fresh arrays that callers keep across calls;
    the plan reuses the logits' own buffer once the softmax has read it.
    No model walks its backward, which recomputes the output from x."""

    kind = "softmax"

    def buffers(self, shape, dtype, train, keep):
        return Buffers(shape, {}, {})

    def forward(self, x, train=False, rng=None, *, out, keep):
        self.logits = x.copy()
        return _softmax(x)

    def backward(self, upstream, x, *, fwd, out):
        p = _softmax(x)
        return p * (upstream - (upstream * p).sum(axis=-1, keepdims=True))


class Add(Layer):
    """Residual merge; the one layer with two inputs. Its backward hands
    the first input the upstream gradient itself and the second a copy in
    its own buffer, so each gradient in flight has one owner."""

    kind = "add"

    def buffers(self, shape, dtype, train, keep):
        return Buffers(shape, {"y": (shape, dtype, OUT)},
                       {"db": (shape, dtype)} if keep else {},
                       inplace="y", grad=(None, "db"))

    def forward(self, a, b=None, train=False, rng=None, *, out, keep):
        if b is None or a.shape != b.shape:
            raise ShapeError("add expects two equal-shaped inputs")
        return np.add(a, b, out=out["y"])

    def backward(self, upstream, a, b, *, fwd, out):
        np.copyto(out["db"], upstream)
        return upstream, out["db"]
