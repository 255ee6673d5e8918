"""Layer vocabulary: conv, batchnorm, relu, pooling, dense, dropout, softmax.

Every layer carries its parameters, gradient buffers, a trainable flag, and a
forward cache used by backward. Only a train-mode forward told to `keep` one
fills the arrays a backward reads; an eval forward keeps none of them. A conv
caches its padded input, not its column matrix; its backward rebuilds the
columns. Feature maps are (N, H, W, C) float arrays.

Each kind's `buffers` lists the arrays a forward and a backward write for an
input shape: outputs, caches, scratch and input gradients. `Model` lays them
out in its arena and hands each call its views through `out=`; a layer
called without `out=` allocates them itself. A forward writes its input only
where the plan made a buffer that `Buffers.inplace` names the input's memory.
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
    is the first input or a view of it. bwd: name -> (shape, dtype) of what
    the backward writes. inplace: the forward buffer that may be the first
    input's memory, when nothing reads that input later. holds: the train
    cache is the first input itself. grad: the buffer the input gradient
    is or views (of bwd, or a forward cache); None: the upstream gradient.
    """
    out: tuple
    fwd: dict
    bwd: dict
    inplace: str | None = None
    holds: bool = False
    grad: str | None = None


def _fresh(specs):
    """A fresh array for each (shape, dtype, ...) of `specs`."""
    return {name: np.empty(spec[0], spec[1]) for name, spec in specs.items()}


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
    the padded array `out`. The one scatter of conv and max-pool backward;
    each cell is added as it is drawn, so `cell_grads` may yield one reused
    buffer."""
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
    given, the uint8 position of the first maximum into it: a later array
    takes the position only where it is strictly greater (`later` is its
    scratch). The max is the same np.maximum fold either way."""
    if arg is not None:
        arg.fill(0)
    if len(arrays) == 1:
        np.copyto(out, arrays[0])
    for i, a in enumerate(arrays[1:], 1):
        best = arrays[0] if i == 1 else out
        if arg is not None:
            np.copyto(arg, np.uint8(i), where=np.greater(a, best, out=later))
        np.maximum(best, a, out=out)
    return out


class Layer:
    """Base: parameter registry, gradient buffers, trainable flag, cache.
    Each kind defines buffers(shape, dtype, train, keep), forward(x, train,
    rng, out, keep) and backward(upstream, out)."""

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
        kept = train and keep
        fwd = {"y": (y, dt, OUT)}
        if padded != shape:
            fwd["xp"] = (padded, dtype, CACHE if kept else TEMP)
        kkc, cells = k * k * c, n * y[1] * y[2]
        bwd = {"dw": ((kkc, self.filters), dt)}
        if k == 1 and s == 1:
            bwd["dx"] = ((cells, c), dt)
        else:
            fwd["col"] = ((step * y[1] * y[2], kkc), dtype, TEMP)
            bwd.update(col=((cells, kkc), dtype), cell=((cells, c), dt),
                       dx=(padded, dt))
        return Buffers(y, fwd, bwd if kept else {},
                       holds=kept and padded == shape, grad="dx")

    def forward(self, x, train=False, rng=None, out=None, keep=True):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ShapeError(f"conv2d expects (N,H,W,{self.in_channels}), got {x.shape}")
        if out is None:
            out = _fresh(self.buffers(x.shape, x.dtype, train, keep).fwd)
        pads, _, _, step = self._geometry(x.shape, x.dtype)
        xp = _pad(x, pads, 0.0, out.get("xp"))
        # backward rebuilds the columns from the padded input: x itself when
        # nothing is padded, which the plan keeps intact until then
        self.cache = (xp, x.shape, pads) if train and keep else None
        col = _windows(xp, self.kernel, self.stride)
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

    def backward(self, upstream, input_grad=True, out=None):
        self._require_cache()
        xp, in_shape, pads = self.cache
        if out is None:
            out = _fresh(self.buffers(in_shape, xp.dtype, True, True).bwd)
        weight = self.params["weight"]
        k = self.kernel
        pointwise = k == 1 and self.stride == 1
        g2 = upstream.reshape(-1, self.filters)
        # the column matrix: the input itself for 1x1 stride 1, else its
        # windows copied into the column buffer
        col = xp if pointwise else out["col"]
        if not pointwise:
            win = _windows(xp, k, self.stride)
            np.copyto(col.reshape(win.shape), win)
        col2 = col.reshape(len(g2), -1)
        dw = np.matmul(col2.T, g2, out=out["dw"])
        self.grads["weight"] += dw.reshape(weight.shape)
        self.grads["bias"] += _channel_sum(upstream)
        if not input_grad:
            return None
        if pointwise:
            # the one cell's gradient is the input gradient; + 0 turns -0.0
            # into +0.0 as _col2im's sum onto zeros does
            dx = np.matmul(g2, weight[0, 0].T, out=out["dx"])
            dx += 0
            return dx.reshape(in_shape)
        # cell (i, j)'s gradient is g2 @ weight[i, j].T, built into one
        # reused buffer just before _col2im adds it on
        tmp = out["cell"]
        cells = (np.matmul(g2, weight[i, j].T, out=tmp).reshape(
                     *upstream.shape[:3], self.in_channels)
                 for i in range(k) for j in range(k))
        return _col2im(cells, in_shape, k, self.stride, pads, out["dx"])


class BatchNorm(Layer):
    """Batch normalisation over the (N, H, W) axes of each channel.

    Every per-channel sum is `_channel_sum`'s two-level order. Train mode
    caches the centred input x - mean; x-hat is never stored, since
    scale * inv_std folds into one coefficient. Eval mode normalises with
    the moving statistics and caches nothing: training backpropagates only
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
                       grad="xc")

    def forward(self, x, train=False, rng=None, out=None, keep=True):
        if x.ndim != 4 or x.shape[3] != self.channels:
            raise ShapeError(f"batchnorm expects (N,H,W,{self.channels}), got {x.shape}")
        if out is None:
            out = _fresh(self.buffers(x.shape, x.dtype, train, keep).fwd)
        if not train:
            self.cache = None
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
        self.cache = (xc, inv_std) if keep else None
        y = np.multiply(xc, self.params["scale"] * inv_std, out=out["y"])
        y += self.params["shift"]
        return y

    def backward(self, upstream, input_grad=True, out=None):
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
        # this layer holds:
        # dx = coef * (up - sum(up) / m - xhat * sum(up * xhat) / m)
        dx = np.multiply(xc, inv_std * dscale / count, out=xc)
        np.subtract(upstream, dx, out=dx)
        dx -= dshift / count
        dx *= self.params["scale"] * inv_std
        return dx


class ReLU(Layer):
    kind = "relu"

    def buffers(self, shape, dtype, train, keep):
        kept = train and keep
        fwd = {"y": (shape, dtype, OUT)}
        if kept:
            fwd["mask"] = (shape, np.bool_, CACHE)
        return Buffers(shape, fwd, {"dx": (shape, dtype)} if kept else {},
                       inplace="y", grad="dx")

    def forward(self, x, train=False, rng=None, out=None, keep=True):
        if out is None:
            out = _fresh(self.buffers(x.shape, x.dtype, train, keep).fwd)
        # subgradient at 0 is 0
        self.cache = (np.greater(x, 0, out=out["mask"]) if train and keep
                      else None)
        return np.maximum(x, 0, out=out["y"])

    def backward(self, upstream, out=None):
        self._require_cache()
        if out is None:
            out = _fresh(self.buffers(upstream.shape, upstream.dtype, True,
                                      True).bwd)
        return np.multiply(upstream, self.cache, out=out["dx"])


class MaxPool2D(Layer):
    """Max-pool with first-max routing: each window sends its gradient to its
    first maximum in row-major order. Padding cells hold -inf.

    Cell (i, j) of every window is one strided slice of the padded input, so
    the pool compares kernel*kernel slices elementwise. Overlapping windows
    (the ResNet stem's 3x3/2) only make backward add where cells coincide.
    A forward that keeps no cache folds the same maxima without the
    first-max index. The output never shares the input's memory.
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
        if not (train and keep):
            return Buffers(y, fwd, {})
        fwd.update(arg=(y, np.uint8, CACHE), later=(y, np.bool_, TEMP))
        return Buffers(y, fwd, {"routed": (y, dtype), "hit": (y, np.bool_),
                                "dx": (padded, dtype)}, grad="dx")

    def forward(self, x, train=False, rng=None, out=None, keep=True):
        if x.ndim != 4:
            raise ShapeError(f"maxpool2d expects rank-4 input, got {x.shape}")
        if out is None:
            out = _fresh(self.buffers(x.shape, x.dtype, train, keep).fwd)
        k, s = self.kernel, self.stride
        pads = _window_geometry(x.shape, k, s, self.padding, x.shape[3])[0]
        win = _windows(_pad(x, pads, -np.inf, out.get("xp")), k, s)
        y = _first_max([win[:, :, :, i, j] for i in range(k) for j in range(k)],
                       out["y"], out.get("arg"), out.get("later"))
        self.cache = (out["arg"], x.shape, pads) if train and keep else None
        return y

    def backward(self, upstream, out=None):
        self._require_cache()
        arg, in_shape, pads = self.cache
        if out is None:
            out = _fresh(self.buffers(in_shape, upstream.dtype, True,
                                      True).bwd)
        routed, hit = out["routed"], out["hit"]
        # the sum onto zeros also turns the -0.0 of a negative gradient
        # times a losing cell into +0.0
        return _col2im((np.multiply(upstream, np.equal(arg, t, out=hit),
                                    out=routed)
                        for t in range(self.kernel ** 2)),
                       in_shape, self.kernel, self.stride, pads, out["dx"])


class GlobalAvgPool(Layer):
    kind = "globalavgpool"

    def buffers(self, shape, dtype, train, keep):
        y = (shape[0], shape[3])
        return Buffers(y, {"y": (y, dtype, OUT)},
                       {"dx": (shape, dtype)} if train and keep else {},
                       grad="dx")

    def forward(self, x, train=False, rng=None, out=None, keep=True):
        if x.ndim != 4:
            raise ShapeError(f"globalavgpool expects rank-4 input, got {x.shape}")
        if out is None:
            out = _fresh(self.buffers(x.shape, x.dtype, train, keep).fwd)
        self.cache = x.shape if keep else None
        return x.mean(axis=(1, 2), out=out["y"])

    def backward(self, upstream, out=None):
        self._require_cache()
        if out is None:
            out = _fresh(self.buffers(self.cache, upstream.dtype, True,
                                      True).bwd)
        n, h, w, c = self.cache
        g = upstream / np.asarray(h * w, dtype=upstream.dtype)
        np.copyto(out["dx"], g[:, None, None, :])
        return out["dx"]


class Flatten(Layer):
    kind = "flatten"

    def buffers(self, shape, dtype, train, keep):
        return Buffers((shape[0], int(np.prod(shape[1:]))), {}, {})

    def forward(self, x, train=False, rng=None, out=None, keep=True):
        self.cache = x.shape if keep else None
        return x.reshape(x.shape[0], -1)

    def backward(self, upstream, out=None):
        self._require_cache()
        return upstream.reshape(self.cache)


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
        kept = train and keep
        return Buffers(y, {"y": (y, dt, OUT)},
                       {"dw": (weight.shape, dt), "dx": (shape, dt)}
                       if kept else {}, holds=kept, grad="dx")

    def forward(self, x, train=False, rng=None, out=None, keep=True):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"dense expects (N,{self.in_features}), got {x.shape}")
        if out is None:
            out = _fresh(self.buffers(x.shape, x.dtype, train, keep).fwd)
        self.cache = x if train and keep else None
        y = np.matmul(x, self.params["weight"], out=out["y"])
        y += self.params["bias"]
        return y

    def backward(self, upstream, input_grad=True, out=None):
        self._require_cache()
        x = self.cache
        if out is None:
            out = _fresh(self.buffers(x.shape, x.dtype, True, True).bwd)
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
                       inplace="y", grad="dx")

    def forward(self, x, train=False, rng=None, out=None, keep=True):
        if not train:
            self.cache = None
            return x
        if rng is None:
            raise StateError("dropout in train mode requires an rng")
        if out is None:
            out = _fresh(self.buffers(x.shape, x.dtype, train, keep).fwd)
        kept = rng.random(x.shape) >= self.rate
        mask = np.divide(kept, np.asarray(1.0 - self.rate, dtype=x.dtype),
                         out=out["mask"])
        self.cache = mask if keep else None
        return np.multiply(x, mask, out=out["y"])

    def backward(self, upstream, out=None):
        self._require_cache()
        if out is None:
            out = _fresh(self.buffers(upstream.shape, upstream.dtype, True,
                                      True).bwd)
        return np.multiply(upstream, self.cache, out=out["dx"])


class Softmax(Layer):
    """The model's output layer; its output and its input, the logits,
    are fresh arrays that callers keep across calls."""

    kind = "softmax"

    def buffers(self, shape, dtype, train, keep):
        return Buffers(shape, {}, {})

    def forward(self, x, train=False, rng=None, out=None, keep=True):
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=-1, keepdims=True)
        self.cache = (p, x)
        return p

    def backward(self, upstream, out=None):
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

    def buffers(self, shape, dtype, train, keep):
        return Buffers(shape, {"y": (shape, dtype, OUT)}, {}, inplace="y")

    def forward(self, a, b=None, train=False, rng=None, out=None, keep=True):
        if b is None or a.shape != b.shape:
            raise ShapeError("add expects two equal-shaped inputs")
        if out is None:
            out = _fresh(self.buffers(a.shape, a.dtype, train, keep).fwd)
        self.cache = a.shape if keep else None
        return np.add(a, b, out=out["y"])

    def backward(self, upstream, out=None):
        self._require_cache()
        return upstream, upstream
