"""Dense tensor primitives: padding rules, initializers, finiteness check.

Tensors are numpy arrays in row-major order; feature maps use (batch, height,
width, channels) layout. Training buffers are float32; the float64 "shadow"
mode for finite-difference gradient checks is the `dtype` argument of the
parameterised layers' constructors.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ShapeError

DEFAULT_DTYPE = np.float32

# Padding modes for 2-d sliding-window ops.
SAME_CEIL = "same_ceil"      # output extent == ceil(input / stride)
VALID_FLOOR = "valid_floor"  # no padding, floor arithmetic

_CHUNK = 65536  # values per he_normal draw


def pad_amounts(h: int, w: int, kernel: int, stride: int,
                padding: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """((top, bottom), (left, right)) zero-padding of an (h, w) map for a
    square kernel/stride window; the odd pixel goes after (TF convention).

    same_ceil gives ceil(extent / stride), so stride 1 keeps the extent;
    valid_floor pads nothing and floors.
    """
    if padding not in (SAME_CEIL, VALID_FLOOR):
        raise ShapeError(f"unknown padding mode {padding!r}")
    pads = []
    for extent in (h, w):
        if padding == VALID_FLOOR:
            if extent < kernel:
                raise ShapeError(f"valid_floor window {kernel}/{stride} "
                                 f"does not fit extent {extent}")
            pads.append((0, 0))
            continue
        out = -(-extent // stride)
        total = max((out - 1) * stride + kernel - extent, 0)
        pads.append((total // 2, total - total // 2))
    return pads[0], pads[1]


def check_finite(x: np.ndarray, context: str = "tensor") -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values in {context}")
    return x


def he_normal(shape, seed: int | None, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """He-normal weights, std sqrt(2 / fan-in). Conv kernels are stored
    (kh, kw, c_in, filters) and dense kernels (inputs, units), so the fan-in
    is the product of all axes but the last (output) one in both. Draws are
    cast in `_CHUNK`-value pieces: the stream of one `rng.normal` call
    without its full float64 copy. Seed None draws nothing and leaves the
    array uninitialised, for a restore that assigns every tensor.
    """
    out = np.empty(shape, dtype)
    if seed is None:
        return out
    std = math.sqrt(2.0 / int(np.prod(shape[:-1])))
    rng = np.random.Generator(np.random.PCG64(seed))
    flat = out.reshape(-1)
    for start in range(0, flat.size, _CHUNK):
        flat[start:start + _CHUNK] = rng.normal(
            0.0, std, size=min(_CHUNK, flat.size - start))
    return out
