import numpy as np
import pytest

from pednet.data import (CLASS_COLORS, make_synthetic_corpus,  # noqa: F401
                         one_hot)
from pednet.models import CLASS_NAMES


def synthetic_arrays(per_class=20, seed=42, noise=20.0):
    """Class-coded solid-color 99x99 images with seeded noise, in [0,1]."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for c in range(len(CLASS_NAMES)):
        for _ in range(per_class):
            img = (np.ones((99, 99, 3), np.float32) * CLASS_COLORS[c]
                   + rng.normal(0, noise, (99, 99, 3)).astype(np.float32))
            xs.append(np.clip(img, 0, 255))
            ys.append(c)
    x = np.stack(xs) / np.float32(255.0)
    return x, one_hot(ys), np.asarray(ys)


@pytest.fixture(scope="session")
def synthetic_120():
    return synthetic_arrays(per_class=20, seed=42)


def lone_views(layer, x, train=False, keep=None):
    """(forward, backward) arrays of `layer` for an input like x: one
    fresh array per buffer its `buffers()` lists, as a one-node plan hands
    them, so none is x's memory. `keep` defaults to `train`, as a model
    with every layer trainable passes it."""
    spec = layer.buffers(x.shape, x.dtype, train,
                         train if keep is None else keep)
    return ({name: np.empty(shape, dtype)
             for name, (shape, dtype, _) in spec.fwd.items()},
            {name: np.empty(shape, dtype)
             for name, (shape, dtype) in spec.bwd.items()})


def alone(layer, *inputs, train=False, rng=None):
    """Run layer.forward(*inputs) into the arrays of `lone_views`, keeping
    what backward reads in train mode: (output, backward), where
    backward(upstream, ...) runs layer.backward on the same inputs and
    forward arrays, into the same plan's backward arrays, as a model's
    backward hands them."""
    fwd, bwd = lone_views(layer, inputs[0], train)
    y = layer.forward(*inputs, train=train, rng=rng, out=fwd, keep=train)

    def backward(upstream, *args):
        return layer.backward(upstream, *inputs, *args, fwd=fwd, out=bwd)
    return y, backward


# Acceptance criteria record one verdict line each; the hook prints them in
# a dedicated section even when stdout capture is on.
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(line)
