"""SGD-with-momentum and Adam, plus the two-phase fine-tuning switch."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, OptimizerError
from .models import Model, ModelConfig

SGD_MOMENTUM = 0.9
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-7
FINETUNE_LAYER_COUNT = 100


class Optimizer:
    """Holds per-parameter slots keyed by qualified parameter name.

    Slots are allocated lazily so newly unfrozen parameters (phase 2) get
    fresh zero state. Each kind defines `_update(name, param, grad)`.
    """

    kind = "optimizer"
    slot_names: tuple[str, ...] = ()

    def __init__(self, lr: float):
        if lr <= 0:
            raise OptimizerError(f"learning rate must be positive, got {lr}")
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
        """Apply one update to every trainable parameter of the model."""
        self.t += 1
        for name, layer, pname in model.named_params(trainable_only=True):
            self._update(name, layer.params[pname], layer.grads[pname])


class SGDMomentum(Optimizer):
    kind = "sgd_momentum"
    slot_names = ("velocity",)

    def _update(self, name, param, grad):
        if grad.shape != param.shape:
            raise OptimizerError(f"gradient shape mismatch for {name}")
        v = self._slot(name, param)["velocity"]
        v *= param.dtype.type(SGD_MOMENTUM)
        v -= param.dtype.type(self.lr) * grad
        param += v


class Adam(Optimizer):
    kind = "adam"
    slot_names = ("m", "v")

    def _update(self, name, param, grad):
        if grad.shape != param.shape:
            raise OptimizerError(f"gradient shape mismatch for {name}")
        dt = param.dtype.type
        slot = self._slot(name, param)
        m, v = slot["m"], slot["v"]
        b1, b2 = dt(ADAM_BETA1), dt(ADAM_BETA2)
        m *= b1
        m += (dt(1.0) - b1) * grad
        v *= b2
        v += (dt(1.0) - b2) * grad * grad
        mhat = m / dt(1.0 - ADAM_BETA1 ** self.t)
        vhat = v / dt(1.0 - ADAM_BETA2 ** self.t)
        param -= dt(self.lr) * mhat / (np.sqrt(vhat) + dt(ADAM_EPSILON))


def make_optimizer(config: ModelConfig, lr: float | None = None) -> Optimizer:
    lr = config.lr_initial if lr is None else lr
    if config.optimizer == "adam":
        return Adam(lr)
    if config.optimizer == "sgd_momentum":
        return SGDMomentum(lr)
    raise ConfigError(f"unknown optimizer {config.optimizer!r}")


def apply_phase(config: ModelConfig, model: Model, opt: Optimizer,
                phase: int) -> Optimizer:
    """Phase 1: backbone frozen at the initial learning rate. Phase 2
    (resnet50 only): unfreeze the last 100 backbone layer objects and drop
    the learning rate to the fine-tune value with fresh optimizer slots for
    the newly trainable parameters."""
    if phase == 1:
        for node in model.nodes[:model.backbone_len]:
            node.layer.trainable = False
        opt.lr = config.lr_initial
        return opt
    if phase != 2:
        raise ConfigError(f"phase must be 1 or 2, got {phase}")
    if config.architecture != "resnet50":
        raise ConfigError("phase 2 applies only to resnet50 configurations")
    start = max(model.backbone_len - FINETUNE_LAYER_COUNT, 0)
    for node in model.nodes[start:model.backbone_len]:
        node.layer.trainable = True
    opt.lr = config.lr_finetune
    return opt
