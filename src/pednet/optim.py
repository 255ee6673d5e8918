"""SGD-with-momentum and Adam, plus the two-phase fine-tuning switch."""

from __future__ import annotations

import numpy as np

from .models import Model, ModelConfig

SGD_MOMENTUM = 0.9
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-7
FINETUNE_LAYER_COUNT = 100
# elements per update block: six float32 block arrays (param, grad, two
# slots, two scratch) of 256 KB fit a 2 MiB L2 cache
BLOCK = 65536


class Optimizer:
    """Holds per-parameter slots keyed by qualified parameter name.

    Slots are allocated lazily so newly unfrozen parameters (phase 2) get
    fresh zero state. Each kind defines `_update(param, grad, *slots, a, b)`,
    which updates one block of the flat parameter and its slots in place;
    `a` and `b` are scratch arrays of the block's length.
    """

    kind = "optimizer"
    slot_names: tuple[str, ...] = ()

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.slots: dict[str, dict[str, np.ndarray]] = {}

    def _slot(self, name: str, param: np.ndarray) -> dict[str, np.ndarray]:
        slot = self.slots.get(name)
        if slot is None:
            slot = {s: np.zeros(param.shape, param.dtype)
                    for s in self.slot_names}
            self.slots[name] = slot
        return slot

    def step(self, model: Model):
        """Apply one update to every trainable parameter of the model, in
        place, over blocks of BLOCK elements of its flat arrays."""
        self.t += 1
        scratch = {}  # two BLOCK-element arrays per parameter dtype
        for name, layer, pname in model.named_params(trainable_only=True):
            param, grad = layer.params[pname], layer.grads[pname]
            if param.dtype not in scratch:
                scratch[param.dtype] = (np.empty(BLOCK, param.dtype),
                                        np.empty(BLOCK, param.dtype))
            a, b = scratch[param.dtype]
            slot = self._slot(name, param)
            flat = [param.reshape(-1), grad.reshape(-1),
                    *(slot[s].reshape(-1) for s in self.slot_names)]
            for lo in range(0, param.size, BLOCK):
                n = min(BLOCK, param.size - lo)
                self._update(*(f[lo:lo + n] for f in flat), a[:n], b[:n])


class SGDMomentum(Optimizer):
    kind = "sgd_momentum"
    slot_names = ("velocity",)

    def _update(self, param, grad, v, a, b):
        dt = param.dtype.type
        v *= dt(SGD_MOMENTUM)
        v -= np.multiply(dt(self.lr), grad, out=a)
        param += v


class Adam(Optimizer):
    kind = "adam"
    slot_names = ("m", "v")

    def _update(self, param, grad, m, v, a, b):
        dt = param.dtype.type
        b1, b2 = dt(ADAM_BETA1), dt(ADAM_BETA2)
        m *= b1
        m += np.multiply(dt(1.0) - b1, grad, out=a)
        v *= b2
        np.multiply(dt(1.0) - b2, grad, out=a)
        v += np.multiply(a, grad, out=a)
        # lr * mhat / (sqrt(vhat) + eps)
        np.divide(m, dt(1.0 - ADAM_BETA1 ** self.t), out=a)
        np.multiply(dt(self.lr), a, out=a)
        np.divide(v, dt(1.0 - ADAM_BETA2 ** self.t), out=b)
        np.sqrt(b, out=b)
        b += dt(ADAM_EPSILON)
        param -= np.divide(a, b, out=a)


def make_optimizer(config: ModelConfig, lr: float | None = None) -> Optimizer:
    cls = Adam if config.optimizer == "adam" else SGDMomentum
    return cls(config.lr_initial if lr is None else lr)


def apply_phase(config: ModelConfig, model: Model, opt: Optimizer,
                phase: int) -> Optimizer:
    """Phase 1: backbone frozen at the initial learning rate. Phase 2
    (which `train` runs for resnet50 only): unfreeze the last 100 backbone
    layer objects and drop the learning rate to the fine-tune value with
    fresh optimizer slots for the newly trainable parameters."""
    if phase == 1:
        for node in model.nodes[:model.backbone_len]:
            node.layer.trainable = False
        opt.lr = config.lr_initial
        return opt
    start = max(model.backbone_len - FINETUNE_LAYER_COUNT, 0)
    for node in model.nodes[start:model.backbone_len]:
        node.layer.trainable = True
    opt.lr = config.lr_finetune
    return opt
