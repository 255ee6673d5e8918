"""Dense tensor primitives: creation, shape inference, padding, initializers.

Tensors are numpy arrays in row-major order; feature maps use (batch, height,
width, channels) layout. Training buffers are float32; a float64 "shadow"
dtype is threaded through every constructor for finite-difference gradient
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError

DEFAULT_DTYPE = np.float32

# Padding modes for 2-d sliding-window ops.
SAME_PRESERVING = "same_preserving"  # stride 1, output extent == input extent
SAME_CEIL = "same_ceil"              # output extent == ceil(input / stride)
VALID_FLOOR = "valid_floor"          # no padding, floor arithmetic

_PADDING_MODES = (SAME_PRESERVING, SAME_CEIL, VALID_FLOOR)


@dataclass(frozen=True)
class Shape2DSpec:
    """Geometry of one spatial axis pair for a conv/pool layer."""

    in_h: int
    in_w: int
    kernel_h: int
    kernel_w: int
    stride: int
    padding: str

    def __post_init__(self):
        if self.padding not in _PADDING_MODES:
            raise ShapeError(f"unknown padding mode {self.padding!r}")
        if min(self.in_h, self.in_w, self.kernel_h, self.kernel_w, self.stride) < 1:
            raise ShapeError(f"non-positive extent in {self}")
        if self.padding == SAME_PRESERVING and self.stride != 1:
            raise ShapeError("same_preserving requires stride 1")


def _out_extent_1d(extent: int, kernel: int, stride: int, padding: str) -> int:
    if padding == SAME_PRESERVING:
        return extent
    if padding == SAME_CEIL:
        return -(-extent // stride)
    out = (extent - kernel) // stride + 1
    if out < 1:
        raise ShapeError(
            f"valid_floor window {kernel}/{stride} does not fit extent {extent}"
        )
    return out


def _pad_1d(extent: int, kernel: int, stride: int, padding: str) -> tuple[int, int]:
    """(before, after) zero-padding; after gets the odd pixel (TF convention)."""
    if padding == VALID_FLOOR:
        return 0, 0
    out = _out_extent_1d(extent, kernel, stride, padding)
    total = max((out - 1) * stride + kernel - extent, 0)
    before = total // 2
    return before, total - before


def infer_out_extent(spec: Shape2DSpec) -> tuple[int, int]:
    """Output (height, width) for the given window geometry."""
    return (
        _out_extent_1d(spec.in_h, spec.kernel_h, spec.stride, spec.padding),
        _out_extent_1d(spec.in_w, spec.kernel_w, spec.stride, spec.padding),
    )


def pad_amounts(spec: Shape2DSpec) -> tuple[tuple[int, int], tuple[int, int]]:
    """((top, bottom), (left, right)) padding for the given geometry."""
    return (
        _pad_1d(spec.in_h, spec.kernel_h, spec.stride, spec.padding),
        _pad_1d(spec.in_w, spec.kernel_w, spec.stride, spec.padding),
    )


def check_finite(x: np.ndarray, context: str = "tensor") -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values in {context}")
    return x


def _validate_shape(shape) -> tuple[int, ...]:
    shape = tuple(int(s) for s in shape)
    if not shape:
        raise ShapeError("shape must be non-empty")
    if any(s < 1 for s in shape):
        raise ShapeError(f"all extents must be >= 1, got {shape}")
    return shape


def zeros(shape, dtype=DEFAULT_DTYPE) -> np.ndarray:
    return np.zeros(_validate_shape(shape), dtype=dtype)


def ones(shape, dtype=DEFAULT_DTYPE) -> np.ndarray:
    return np.ones(_validate_shape(shape), dtype=dtype)


def he_fan_in(shape: tuple[int, ...]) -> int:
    """Fan-in for He initialization: all axes but the last (output) one.

    Conv kernels are stored (kh, kw, c_in, filters) and dense kernels
    (inputs, units), so the product of leading axes is the fan-in in both.
    """
    return int(np.prod(shape[:-1])) if len(shape) > 1 else int(shape[0])


def he_normal(shape, seed: int, dtype=DEFAULT_DTYPE) -> np.ndarray:
    shape = _validate_shape(shape)
    std = math.sqrt(2.0 / he_fan_in(shape))
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.normal(0.0, std, size=shape).astype(dtype)
