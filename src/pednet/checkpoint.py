"""Binary checkpoint format: magic "PDCN", version, JSON metadata block,
then a named tensor table (little-endian raw values).

Writing is fully deterministic: metadata is canonical JSON and tensors are
emitted in a fixed order, so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CheckpointError, ConfigError
from .models import CLASS_NAMES, build_model, registry_lookup
from .optim import make_optimizer

MAGIC = b"PDCN"
VERSION = 1
_DTYPE_TAGS = {"<f4": 0, "<f8": 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


@dataclass
class CheckpointData:
    meta: dict
    tensors: dict[str, np.ndarray]


def _write_tensor(f, name: str, arr: np.ndarray):
    """One tensor table entry: the header, then the little-endian values
    straight from the array's buffer."""
    arr = np.ascontiguousarray(arr)
    le = arr.dtype.newbyteorder("<")
    key = le.str.lstrip("|")
    if key not in _DTYPE_TAGS:
        raise CheckpointError(f"unsupported dtype {arr.dtype} for tensor {name}")
    nb = name.encode("utf-8")
    f.write(struct.pack("<H", len(nb)) + nb
            + struct.pack("<BB", _DTYPE_TAGS[key], arr.ndim)
            + struct.pack(f"<{arr.ndim}I", *arr.shape))
    f.write(np.ascontiguousarray(arr, le).data)


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.path = path
        self.off = 0

    def error(self, message: str) -> CheckpointError:
        return CheckpointError(f"{self.path}: {message}")

    def take(self, n: int, section: str) -> bytes:
        if self.off + n > len(self.buf):
            raise self.error(f"truncated checkpoint in {section}")
        out = self.buf[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str, section: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), section))


def write_checkpoint(path, meta: dict, tensors: dict[str, np.ndarray]):
    meta_bytes = json.dumps(meta, sort_keys=True,
                            separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(meta_bytes)))
        f.write(meta_bytes)
        f.write(struct.pack("<I", len(tensors)))
        for name in tensors:  # insertion order is the canonical order
            _write_tensor(f, name, tensors[name])


def read_checkpoint(path) -> CheckpointData:
    """The metadata and tensors of a checkpoint file; every CheckpointError
    names the file."""
    with open(path, "rb") as f:
        r = _Reader(f.read(), path)
    if r.take(4, "magic") != MAGIC:
        raise r.error("bad magic: not a PDCN checkpoint")
    (version,) = r.unpack("<I", "version")
    if version != VERSION:
        raise r.error(f"unsupported checkpoint version {version}")
    (meta_len,) = r.unpack("<I", "metadata")
    try:
        meta = json.loads(r.take(meta_len, "metadata").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise r.error(f"malformed metadata block: {e}") from e
    (count,) = r.unpack("<I", "tensor table")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = r.unpack("<H", "tensor table")
        name = r.take(nlen, "tensor table").decode("utf-8")
        tag, ndim = r.unpack("<BB", f"tensor {name}")
        if tag not in _TAG_DTYPES:
            raise r.error(f"unknown dtype tag {tag} for tensor {name}")
        shape = r.unpack(f"<{ndim}I", f"tensor {name}")
        dtype = _TAG_DTYPES[tag]
        n = int(np.prod(shape)) if ndim else 1
        raw = r.take(n * dtype.itemsize, f"tensor {name}")
        tensors[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if r.off != len(r.buf):
        raise r.error("trailing bytes after tensor table")
    return CheckpointData(meta=meta, tensors=tensors)


def history_digest(records) -> str:
    """Digest over the reproducible history fields (wall time excluded)."""
    canon = [[r.epoch, r.phase, round(r.train_loss, 9), round(r.train_acc, 9),
              round(r.val_loss, 9), round(r.val_acc, 9)] for r in records]
    blob = json.dumps(canon, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def model_tensors(model, optimizer=None) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {}
    for name, layer, pname in model.named_params():
        tensors[f"param:{name}"] = layer.params[pname]
    for name, layer, sname in model.named_state():
        tensors[f"state:{name}"] = layer.state[sname]
    if optimizer is not None:
        for pname in sorted(optimizer.slots):
            for sname in optimizer.slot_names:
                tensors[f"slot:{pname}:{sname}"] = optimizer.slots[pname][sname]
    return tensors


def save_model(path, model, config, optimizer=None, history=None,
               extra_meta=None):
    meta = {
        "config": asdict(config),
        "class_order": list(CLASS_NAMES),
        "trainable_nodes": [n.name for n in model.nodes if n.layer.trainable],
        "epoch": history.records[-1].epoch if history and history.records else 0,
        "history_digest": history_digest(history.records) if history else None,
    }
    if optimizer is not None:
        meta["optimizer"] = {"kind": optimizer.kind, "lr": optimizer.lr,
                             "t": optimizer.t}
    if extra_meta:
        meta.update(extra_meta)
    write_checkpoint(path, meta, model_tensors(model, optimizer))


def restore_model(path):
    """Rebuild (model, config, optimizer-or-None, meta) from a checkpoint;
    metadata that does not describe a registry model, or optimizer state
    that does not fit it, is a CheckpointError that names the file."""
    data = read_checkpoint(path)
    cfg = _field(path, data.meta, "config", "metadata")
    try:
        config = registry_lookup(_field(path, cfg, "model_id",
                                        "metadata config"))
    except ConfigError as e:
        raise CheckpointError(f"{path}: metadata config: {e}") from None
    # older files carry a "pretrained" entry, always null
    stored = {k: v for k, v in cfg.items() if k != "pretrained"}
    want = asdict(config)
    for key in sorted(stored.keys() | want.keys()):
        if key not in stored or key not in want or stored[key] != want[key]:
            raise CheckpointError(f"{path}: metadata config: {key} differs "
                                  f"from registry model {config.model_id}: "
                                  f"{want}")
    # every tensor is assigned below, once _require has checked it
    model = build_model(config, seed=None)
    assign_tensors(model, _require(path, data.tensors, model_tensors(model)))
    trainable = data.meta.get("trainable_nodes", [])
    names = [node.name for node in model.nodes]
    if type(trainable) is not list or any(n not in names for n in trainable):
        raise CheckpointError(f"{path}: trainable_nodes must be a list of "
                              f"model {config.model_id}'s node names")
    for node in model.nodes:
        node.layer.trainable = node.name in trainable
    opt = None
    if "optimizer" in data.meta:
        block = data.meta["optimizer"]
        lr = _field(path, block, "lr", "optimizer metadata")
        t = _field(path, block, "t", "optimizer metadata")
        if type(lr) not in (int, float) or not 0 < lr < math.inf:
            raise CheckpointError(f"{path}: optimizer lr must be a positive "
                                  f"finite number, got {lr!r}")
        if type(t) is not int or t < 0:
            raise CheckpointError(f"{path}: optimizer t must be a "
                                  f"non-negative integer, got {t!r}")
        opt = make_optimizer(config, lr=lr)
        opt.t = t
        # each slot tensor is one of the optimizer's slots of a parameter
        slots = {f"slot:{name}:{s}": layer.params[pname]
                 for name, layer, pname in model.named_params()
                 for s in opt.slot_names}
        for key in [k for k in data.tensors if k.startswith("slot:")]:
            if key not in slots:
                raise CheckpointError(f"{path}: tensor {key} names no "
                                      f"{opt.kind} slot of a model parameter")
            _, pname, sname = key.split(":")
            opt.slots.setdefault(pname, {})[sname] = _require(
                path, data.tensors, {key: slots[key]})[key].copy()
    return model, config, opt, data.meta


def _field(path, block, key, where):
    """block[key] of checkpoint metadata; CheckpointError names the file."""
    if not isinstance(block, dict) or key not in block:
        raise CheckpointError(f"{path}: {where} has no {key!r}")
    return block[key]


def assign_tensors(model, tensors: dict[str, np.ndarray]):
    """Copy every parameter and statistic tensor of the model from
    `tensors` into its arrays in place, cast to their dtype."""
    for key, dst in model_tensors(model).items():
        dst[...] = tensors[key]
    model.zero_grads()


def _require(path, tensors, wanted):
    """The tensors of file `path` for the keys of `wanted`, each of the shape
    of the model array `wanted` maps it to; CheckpointError names the file
    and the first key that is absent or of another shape."""
    for key, dst in wanted.items():
        if key not in tensors:
            raise CheckpointError(f"{path}: missing tensor {key}")
        if tensors[key].shape != dst.shape:
            raise CheckpointError(
                f"{path}: tensor {key} has shape {tensors[key].shape}, "
                f"the model's is {dst.shape}")
    return {k: tensors[k] for k in wanted}
