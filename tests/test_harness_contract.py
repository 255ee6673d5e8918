"""The benchmark's tracer still fits the program.

`perfbench/spans.py` wraps each layer kind's `forward`/`backward` in its
class dict and the `Model`/`Optimizer` entry points by name. This runs one
model-8 train step and one eval forward under its `Tracer`, reading
`perfbench/` and changing nothing there, so that a change of a layer's
signature or of those names cannot silently break `--trace 1`.
"""

import importlib
import importlib.util
import os

import numpy as np

from pednet import layers, models, optim
from pednet.data import one_hot
from pednet.train import cross_entropy_loss

SPANS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "spans.py")


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _entry_points():
    """(owner, name) -> function of every method the tracer rebinds."""
    owners = [cls for cls in vars(layers).values()
              if isinstance(cls, type) and issubclass(cls, layers.Layer)
              and "forward" in vars(cls)]
    out = {(cls, m): vars(cls)[m] for cls in owners
           for m in ("forward", "backward")}
    out.update({(models.Model, m): vars(models.Model)[m]
                for m in ("forward", "backward", "zero_grads")})
    out[optim.Optimizer, "step"] = vars(optim.Optimizer)["step"]
    return out


def test_tracer_spans_model8_step_and_uninstalls():
    spans = _spans_module()
    before = _entry_points()
    cfg = models.registry_lookup(8)
    model = models.build_model(cfg, seed=0)
    opt = optim.make_optimizer(cfg)
    x = np.random.default_rng(0).random((2, *models.INPUT_SPEC), np.float32)
    tracer = spans.Tracer()
    tracer.install({name: importlib.import_module(f"pednet.{name}")
                    for name in spans.MODULES})
    try:
        probs = model.forward(x, train=True, rng=np.random.default_rng(0))
        _, g = cross_entropy_loss(probs, one_hot([0, 3]),
                                  logits=model.nodes[-1].layer.logits)
        model.zero_grads()
        model.backward(g)
        opt.step(model)
        model.forward(x, train=False)
    finally:
        tracer.uninstall()
    names = {s[0] for s in tracer.spans}
    kinds = {node.layer.kind for node in model.nodes}
    assert kinds <= set(spans.LAYER_KINDS)
    for kind in kinds:
        assert f"layers.{kind}.fwd" in names, kind
        if kind != "softmax":  # backward starts at the logits
            assert f"layers.{kind}.bwd" in names, kind
    for name in ("models.Model.forward", "models.Model.backward",
                 "models.Model.zero_grads", "optim.Optimizer.step"):
        assert name in names, name
    metrics, _ = spans.summarize(
        [["bench.job", 0, 1, -1, 0, None]]
        + [[s[0], s[1], s[2], s[3] + 1 if s[3] >= 0 else 0, s[4], s[5]]
           for s in tracer.spans], reps=1)
    assert metrics["layers.conv2d.gflop"]["value"] > 0
    assert metrics["optim.params_updated"]["value"] == sum(
        layer.params[p].size for _, layer, p in model.named_params())
    assert _entry_points() == before
