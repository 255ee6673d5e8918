"""Mini-batch training loop: cross-entropy, early stopping, two phases."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint, optim
from .errors import DataError, NumericError, ShapeError
from .models import Model, ModelConfig


@dataclass
class TrainConfig:
    seed: int = 0
    batch_size: int = 8
    max_epochs_phase1: int = 70
    max_epochs_phase2: int = 30
    patience: int = 10

    def __post_init__(self):
        for name, value, least in (
                ("batch size", self.batch_size, 1),
                ("patience", self.patience, 1),
                ("phase-1 epoch cap", self.max_epochs_phase1, 1),
                ("phase-2 epoch cap", self.max_epochs_phase2, 0)):
            if value < least:
                raise DataError(f"{name} must be >= {least}, got {value}")


@dataclass
class EpochRecord:
    epoch: int
    phase: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    wall_seconds: float


@dataclass
class History:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    stop_reasons: list[str] = field(default_factory=list)  # one per phase
    optimizer: optim.Optimizer | None = None  # the one that trained

    def to_csv(self) -> str:
        lines = ["epoch,phase,train_loss,train_acc,val_loss,val_acc,wall_seconds"]
        for r in self.records:
            lines.append(f"{r.epoch},{r.phase},{r.train_loss:.9g},"
                         f"{r.train_acc:.9g},{r.val_loss:.9g},{r.val_acc:.9g},"
                         f"{r.wall_seconds:.3f}")
        lines.append(f"# best_epoch={self.best_epoch} "
                     f"stop_reasons={','.join(self.stop_reasons)}")
        return "\n".join(lines) + "\n"


class EarlyStopper:
    """Patience counter over the monitored validation quantity."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = np.inf
        self.bad_epochs = 0

    def update(self, value: float) -> bool:
        """Record one epoch; returns True when training should stop."""
        if value < self.best:
            self.best = value
            self.bad_epochs = 0
            return False
        self.bad_epochs += 1
        return self.bad_epochs >= self.patience


def cross_entropy_loss(probs, labels, logits):
    """Mean categorical cross-entropy, by a stable log-sum-exp of the logits,
    and its gradient (probs - labels) / N w.r.t. the logits."""
    if probs.shape != labels.shape or probs.ndim != 2:
        raise ShapeError(f"probs/labels shapes differ: {probs.shape} vs {labels.shape}")
    n = probs.shape[0]
    row_sums = probs.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-5):
        raise ShapeError("probability rows must sum to 1 within 1e-5")
    ones = np.abs(labels - 1.0) < 1e-9
    if np.any(ones.sum(axis=1) != 1) or np.any((labels != 0) & ~ones):
        raise DataError("labels must be one-hot rows")
    true_idx = labels.argmax(axis=1)
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(n), true_idx].mean()
    grad = (probs - labels) / np.asarray(n, dtype=probs.dtype)
    return float(loss), grad.astype(probs.dtype)


def _sub_rng(seed, *path):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, *path])))


def _batches(n, batch_size):
    for start in range(0, n, batch_size):
        yield slice(start, min(start + batch_size, n))


def predict(model: Model, x, batch_size=8):
    """Eval-mode forward over x in batches: (softmax rows, logits)."""
    probs, logits = [], []
    for sl in _batches(len(x), batch_size):
        probs.append(model.forward(x[sl], train=False))
        logits.append(model.nodes[-1].layer.logits)
    return np.concatenate(probs), np.concatenate(logits)


def evaluate_arrays(model: Model, x, y_onehot, batch_size=8):
    """(mean loss, accuracy) over a split, batch-size independent."""
    if len(x) == 0:
        raise DataError("cannot evaluate an empty split")
    probs, logits = predict(model, x, batch_size)
    loss, _ = cross_entropy_loss(probs, y_onehot, logits=logits)
    correct = int((probs.argmax(axis=1) == y_onehot.argmax(axis=1)).sum())
    return loss, correct / len(x)


def train(model: Model, model_config: ModelConfig, config: TrainConfig,
          x_train, y_train, x_val, y_val) -> History:
    """Run the full (two-phase for resnet50) protocol on in-memory arrays.

    Inputs are (N,99,99,3) arrays already scaled to [0,1] plus one-hot labels.
    Early stopping monitors validation loss and restores the best weights.
    """
    if len(x_train) == 0 or len(x_val) == 0:
        raise DataError("train and validation splits must be non-empty")
    history = History()
    opt = optim.make_optimizer(model_config)
    phases = [(1, config.max_epochs_phase1)]
    if model_config.architecture == "resnet50":
        phases.append((2, config.max_epochs_phase2))
    best_loss = np.inf
    # the best epoch's tensors, allocated once and refilled on each
    # improvement, so that two snapshots are never alive together
    best_snap = {k: np.empty_like(v) for k, v in
                 checkpoint.model_tensors(model).items()}
    epoch = 0
    for phase, max_epochs in phases:
        opt = optim.apply_phase(model_config, model, opt, phase)
        stopper = EarlyStopper(config.patience)
        reason = "max_epochs"
        for _ in range(max_epochs):
            epoch += 1
            t0 = time.monotonic()
            order = _sub_rng(config.seed, 1, phase, epoch).permutation(len(x_train))
            drop_rng = _sub_rng(config.seed, 2, phase, epoch)
            run_loss = 0.0
            correct = 0
            for bi, sl in enumerate(_batches(len(x_train), config.batch_size)):
                xb, yb = x_train[order[sl]], y_train[order[sl]]
                try:
                    probs = model.forward(xb, train=True, rng=drop_rng)
                    logits = model.nodes[-1].layer.logits
                    loss, dlogits = cross_entropy_loss(probs, yb,
                                                       logits=logits)
                    if not np.isfinite(loss):
                        raise NumericError("non-finite loss")
                    model.zero_grads()
                    model.backward(dlogits)
                    opt.step(model)
                except NumericError as e:
                    raise NumericError(
                        f"{e} at epoch {epoch}, batch {bi}") from e
                run_loss += loss * (sl.stop - sl.start)
                correct += int((probs.argmax(axis=1)
                                == yb.argmax(axis=1)).sum())
            val_loss, val_acc = evaluate_arrays(model, x_val, y_val,
                                                config.batch_size)
            history.records.append(EpochRecord(
                epoch, phase, run_loss / len(x_train), correct / len(x_train),
                val_loss, val_acc, time.monotonic() - t0))
            if val_loss < best_loss:
                best_loss = val_loss
                for k, v in checkpoint.model_tensors(model).items():
                    np.copyto(best_snap[k], v)
                history.best_epoch = epoch
            if stopper.update(val_loss):
                reason = "early_stop"
                break
        history.stop_reasons.append(reason)
    if history.best_epoch > 0:
        checkpoint.assign_tensors(model, best_snap)
    history.optimizer = opt
    return history
