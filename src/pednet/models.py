"""Model graph, the two architectures, and the eight-variant registry.

A Model is an ordered list of named layer nodes; each node lists the indices
of the nodes it consumes (-1 is the model input). Sequential networks are the
trivial case; the residual adds of ResNet50 use two-input nodes.

A Model owns one arena, a flat byte buffer that holds every node output,
train cache, gradient in flight, conv column matrix and large layer
temporary of a forward and backward. For each (train flag, frontier, input
shape, dtype) it lays out a plan once, from the node list's liveness:
a buffer lives from the call that writes it to the last call that reads
it, buffers whose lives do not overlap share bytes, and a layer writes its
input in place when no later call reads that input (so a residual block's
input, read by the block and by its shortcut, is never written). The plan
also decides which nodes keep a backward cache and the walk that
`backward` runs, so both follow the train forward that laid it out. Layers
keep no step state: a train forward records its plan and each node's
inputs, and `backward` hands each layer its part of that record. The
arena is an anonymous memory mapping, grown only when a larger plan needs
it and freed with the model. The softmax's output and its copy of the logits, the
parameters, gradients and optimizer slots stay outside it.
"""

from __future__ import annotations

import copy
import mmap
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import layers as L
from . import tensor as T
from .errors import ConfigError, NumericError, ShapeError, StateError

# Fixed alphabetical class order; shared by manifests, outputs, and reports.
CLASS_NAMES = (
    "Female Adult",
    "Female Child",
    "Female Teenager",
    "Male Adult",
    "Male Child",
    "Male Teenager",
)
NUM_CLASSES = len(CLASS_NAMES)
INPUT_SPEC = (99, 99, 3)
ALIGN = 64  # bytes: every arena buffer starts on a cache line


@dataclass(frozen=True)
class ParamLedgerEntry:
    index: int
    name: str
    kind: str
    trainable: int
    non_trainable: int


@dataclass(frozen=True)
class ModelConfig:
    model_id: int
    architecture: str          # "resnet50" | "custom"
    pooling: str               # "GAP" | "MP"
    optimizer: str             # "adam" | "sgd_momentum"
    lr_initial: float
    lr_finetune: float | None  # None for custom CNN


_REGISTRY = {
    1: ModelConfig(1, "resnet50", "GAP", "adam", 0.0001, 0.00001),
    2: ModelConfig(2, "resnet50", "MP", "adam", 0.0001, 0.00001),
    3: ModelConfig(3, "resnet50", "GAP", "sgd_momentum", 0.01, 0.001),
    4: ModelConfig(4, "resnet50", "MP", "sgd_momentum", 0.01, 0.001),
    5: ModelConfig(5, "custom", "GAP", "adam", 0.00001, None),
    6: ModelConfig(6, "custom", "MP", "adam", 0.00001, None),
    7: ModelConfig(7, "custom", "GAP", "sgd_momentum", 0.001, None),
    8: ModelConfig(8, "custom", "MP", "sgd_momentum", 0.001, None),
}


def registry_lookup(model_id: int) -> ModelConfig:
    if type(model_id) is not int or model_id not in _REGISTRY:
        raise ConfigError(f"model id must be 1..8, got {model_id!r}")
    return _REGISTRY[model_id]


def _layer_seed(root_seed: int | None, index: int) -> int | None:
    if root_seed is None:  # no weights drawn
        return None
    return int(np.random.SeedSequence([root_seed, index]).generate_state(1)[0])


class _Plan(NamedTuple):
    """A laid-out arena plan (see `Model._layout`): each node's forward and
    backward views, {name: array}, and the backward walk, one (node, to)
    per visited node in call order. `to` names the node each input
    gradient goes to, None for one that nothing reads; at the frontier it
    is None, and that backward computes no input gradient."""
    fwd: list
    bwd: list
    walk: list


@dataclass
class _Node:
    name: str
    layer: L.Layer
    inputs: list[int]


class Model:
    def __init__(self, pooling: str):
        self.pooling = pooling
        self.nodes: list[_Node] = []
        self.backbone_len = 0  # leading node count forming the frozen backbone
        self._arena = None
        self._plans = {}  # (train, frontier, shape, dtype) -> _Plan
        self._backward_plan = None  # the last train forward's plan, inputs

    # -- construction -----------------------------------------------------

    def add(self, name: str, layer: L.Layer, inputs=None) -> int:
        if inputs is None:
            inputs = [len(self.nodes) - 1]
        idx = len(self.nodes)
        self.nodes.append(_Node(name, layer, list(inputs)))
        return idx

    # -- execution --------------------------------------------------------

    def forward(self, x, train=False, rng=None):
        """The softmax output for the batch x. Finiteness is checked on the
        logits; when that fails, the batch runs again with the same dropout
        draws and a check after every node, so the error names the node."""
        if x.shape[1:] != INPUT_SPEC:
            raise ShapeError(f"expected input (N,{INPUT_SPEC}), got {x.shape}")
        replay = copy.deepcopy(rng)
        y = self._run(x, train, rng)
        try:
            T.check_finite(self.nodes[-1].layer.logits, "logits")
        except NumericError:
            self._run(x, train, replay, check_nodes=True)
            raise
        return y

    def _run(self, x, train, rng, check_nodes=False):
        """Run the nodes in order, each writing into its views of the plan.
        A node keeps a backward cache only in a train forward at or above
        the frontier: `backward` visits no other. A train forward records
        the plan and each node's inputs for `backward`; any other forward
        drops that record."""
        frontier = self._frontier() if train else 0
        plan = self._plan(train, frontier, x.shape, x.dtype)
        outs, inputs = [None] * len(self.nodes), []
        for j, node in enumerate(self.nodes):
            inputs.append([x if i == -1 else outs[i] for i in node.inputs])
            outs[j] = node.layer.forward(*inputs[j], train=train, rng=rng,
                                         out=plan.fwd[j],
                                         keep=train and j >= frontier)
            if check_nodes:
                T.check_finite(outs[j], node.name)
        self._backward_plan = (plan, inputs) if train else None
        return outs[-1]

    def backward(self, upstream):
        """Backpropagate the loss gradient at the logits (the softmax input)
        through the walk that the last train forward's plan laid out.

        The walk accumulates into the `grads` of every layer from the output
        down to the frontier, the lowest node whose layer was trainable and
        had parameters at that forward, and stops there: nodes below it are
        not visited and their `grads` are not written. Freezing is a prefix
        of the node list (see `build_resnet50` and `optim.apply_phase`), so
        no frozen layer's `grads` are written. The frontier computes no
        input gradient, which nothing reads: training never computes the
        gradient of the model input. Each layer is handed the inputs its
        forward was called with and its forward views of that plan
        (`fwd=`), and writes into its backward views (`out=`). The call
        consumes the forward's record, so a second one needs a new
        forward. The softmax is not walked: `logits` still reads. Each
        gradient in flight belongs to one pending input (see
        `Model._layout`), so a second gradient is added into it in place.
        """
        if self.nodes[-1].layer.kind != "softmax":
            raise ShapeError("backward requires a softmax output layer")
        record, self._backward_plan = self._backward_plan, None
        if record is None:
            raise StateError("backward called before a train forward")
        plan, inputs = record
        grads = {self.nodes[-1].inputs[0]: upstream}
        for idx, to in plan.walk:
            layer, g = self.nodes[idx].layer, grads.pop(idx)
            views = {"fwd": plan.fwd[idx], "out": plan.bwd[idx]}
            if to is None:
                layer.backward(g, *inputs[idx], input_grad=False, **views)
                continue
            down = layer.backward(g, *inputs[idx], **views)
            for i, gi in zip(to, down if isinstance(down, tuple) else (down,)):
                if i is None:
                    continue
                if i in grads:
                    grads[i] += gi
                else:
                    grads[i] = gi

    # -- the arena --------------------------------------------------------

    def _plan(self, train, frontier, shape, dtype):
        """The plan for this key, laid out on first use. A plan larger than
        the arena replaces it: the smaller arena, the plans on it and the
        train forward's record, which views it, are dropped first."""
        key = (train, frontier, shape, np.dtype(dtype))
        if key not in self._plans:
            fwd, bwd, walk, size = self._layout(train, frontier, shape, dtype)
            if self._arena is None or self._arena.size < size:
                self._plans.clear()
                self._backward_plan = self._arena = None
                # its own page-aligned mapping, returned to the system when
                # the model drops it, whatever the heap around it holds
                self._arena = np.frombuffer(mmap.mmap(-1, max(size, 1)),
                                            np.uint8)

            def views(entries):
                return {name: self._arena[at:at + int(np.prod(shp))
                                          * dt.itemsize].view(dt).reshape(shp)
                        for name, (at, shp, dt) in entries.items()}

            self._plans[key] = _Plan([views(e) for e in fwd],
                                     [views(e) for e in bwd], walk)
        return self._plans[key]

    def _layout(self, train, frontier, shape, dtype):
        """Arena offsets of every node's buffers, ([{name: (offset, shape,
        dtype)} per node] for forward and for backward), the backward walk
        (`_Plan.walk`) and the arena bytes: the one place that decides what
        a step runs and keeps. A node keeps its backward cache (`keep`) in
        a train forward at or above the frontier. The walk visits the nodes
        that the logits' gradient reaches, down to the frontier, and drops
        each input gradient headed below it: inputs precede their consumers
        in the node list, so such a gradient could only reach layers
        without trainable parameters.

        Time runs over the forwards in node order, then the backward walk.
        A buffer lives from the call that writes it to the last call that
        reads it: an output to its last reader's forward (its backward,
        when that layer's cache is its input), a cache to its layer's
        backward, a gradient to the backward that consumes it, scratch for
        its call. A layer's `inplace` buffer is its first input's buffer
        when no later call reads that buffer. Each input gradient a
        backward hands down is its own buffer or the gradient it consumed
        (`Buffers.grad`), so every gradient in flight belongs to one
        pending input; a second gradient for that input is read at the
        backward that adds it in. Offsets are greedy by size (Pisarchyk &
        Lee 2020): the largest buffer first, each into the smallest gap
        left by the buffers placed so far whose lives overlap its own. The
        model input and the upstream gradient are the caller's and take no
        bytes.
        """
        n = len(self.nodes)
        back = 2 * n - 1  # node j's backward runs at time back - j
        specs = []
        for j, node in enumerate(self.nodes):
            first = node.inputs[0]
            specs.append(node.layer.buffers(
                shape if first < 0 else specs[first].out, dtype, train,
                train and j >= frontier))
        last = list(range(n))  # the last call that reads each output
        for j, node in enumerate(self.nodes):
            for i in node.inputs:
                if i >= 0:
                    held = specs[j].holds and i == node.inputs[0]
                    last[i] = max(last[i], back - j if held else j)
        life = []  # [first call, last call, bytes or None (the caller's)]

        def buffer(t, nbytes):
            life.append([t, t, nbytes])
            return len(life) - 1

        def read(b, t):
            life[b][1] = max(life[b][1], t)

        def nbytes(shp, dt):
            return int(np.prod(shp)) * np.dtype(dt).itemsize

        fwd, bwd, walk = [{} for _ in range(n)], [{} for _ in range(n)], []
        outb = [None] * n
        model_input = buffer(0, None)
        for j, node in enumerate(self.nodes):
            spec, first = specs[j], node.inputs[0]
            src = model_input if first < 0 else outb[first]
            for name, (shp, dt, role) in spec.fwd.items():
                size = nbytes(shp, dt)
                if (name == spec.inplace and life[src][2] == size
                        and life[src][1] <= j):
                    b = src
                else:
                    b = buffer(j, size)
                read(b, last[j] if role == L.OUT else
                     back - j if role == L.CACHE else j)
                fwd[j][name] = b
                if role == L.OUT:
                    outb[j] = b
            if outb[j] is None:  # the output is the input or a view of it
                outb[j] = src
                read(src, last[j])
        if train:
            pending = {self.nodes[-1].inputs[0]: buffer(back - n + 1, None)}
            for idx in range(n - 1, frontier - 1, -1):
                g = pending.pop(idx, None)
                if g is None:
                    continue
                t, spec, node = back - idx, specs[idx], self.nodes[idx]
                read(g, t)
                bwd[idx] = {name: buffer(t, nbytes(shp, dt))
                            for name, (shp, dt) in spec.bwd.items()}
                if idx == frontier:
                    walk.append((idx, None))
                    break
                to = tuple(i if i >= frontier else None for i in node.inputs)
                walk.append((idx, to))
                for i, name in zip(to, spec.grad):
                    if i is None:
                        continue
                    d = (g if name is None else
                         bwd[idx].get(name, fwd[idx].get(name)))
                    read(d, t)
                    pending.setdefault(i, d)
        offsets = self._offsets(life)

        def entries(names, specs_of):
            return {name: (offsets.get(b, 0), specs_of[name][0],
                           np.dtype(specs_of[name][1]))
                    for name, b in names.items()}

        return ([entries(fwd[j], specs[j].fwd) for j in range(n)],
                [entries(bwd[j], specs[j].bwd) for j in range(n)], walk,
                max([o + life[b][2] for b, o in offsets.items()], default=0))

    @staticmethod
    def _offsets(life):
        """{buffer: byte offset}, greedy by size, each offset ALIGN-ed."""
        placed = []  # (offset, end offset, first call, last call)
        offsets = {}
        for b in sorted((b for b, (_, _, size) in enumerate(life) if size),
                        key=lambda b: -life[b][2]):
            first, last, size = life[b]
            size = -(-size // ALIGN) * ALIGN
            at, gap, prev = None, None, 0
            for lo, hi in sorted((lo, hi) for lo, hi, f, l in placed
                                 if f <= last and first <= l):
                if lo - prev >= size and (gap is None or lo - prev < gap):
                    at, gap = prev, lo - prev
                prev = max(prev, hi)
            offsets[b] = prev if at is None else at
            placed.append((offsets[b], offsets[b] + size, first, last))
        return offsets

    def _frontier(self):
        """The index of the lowest node whose layer is trainable and has
        parameters, or of the softmax if there is none."""
        return next((i for i, node in enumerate(self.nodes)
                     if node.layer.trainable and node.layer.params),
                    len(self.nodes) - 1)

    # -- parameters -------------------------------------------------------

    def zero_grads(self):
        """Zero the trainable layers' gradient buffers in place, keeping
        their dtype; the optimizer reads no other layer's `grads`."""
        for node in self.nodes:
            if node.layer.trainable:
                for g in node.layer.grads.values():
                    g.fill(0)

    def named_params(self, trainable_only=False):
        """Yield (qualified name, layer, param name) in topological order."""
        for node in self.nodes:
            if trainable_only and not node.layer.trainable:
                continue
            for pname in node.layer.params:
                yield f"{node.name}.{pname}", node.layer, pname

    def named_state(self):
        for node in self.nodes:
            for sname in node.layer.state:
                yield f"{node.name}.{sname}", node.layer, sname

    def summary(self):
        ledger = []
        for i, node in enumerate(self.nodes):
            tr, ntr = node.layer.param_count()
            ledger.append(ParamLedgerEntry(i, node.name, node.layer.kind, tr, ntr))
        total = sum(e.trainable + e.non_trainable for e in ledger)
        trainable = sum(e.trainable for e in ledger)
        return ledger, total, trainable


def _head(model: Model, seed: int, channels: int, spatial: int, start: int):
    """Pooling head + dense-512 + dropout + dense-6 + softmax."""
    if model.pooling == "GAP":
        model.add("head_gap", L.GlobalAvgPool())
        width = channels
    else:
        model.add("head_maxpool", L.MaxPool2D(2, 2, T.VALID_FLOOR))
        model.add("head_flatten", L.Flatten())
        width = (spatial // 2) ** 2 * channels
    model.add("head_dense1",
              L.Dense(512, width, seed=_layer_seed(seed, start)))
    model.add("head_relu", L.ReLU())
    model.add("head_dropout", L.Dropout(0.3))
    model.add("head_dense2",
              L.Dense(NUM_CLASSES, 512, seed=_layer_seed(seed, start + 1)))
    model.add("head_softmax", L.Softmax())


def build_custom_cnn(pooling: str, seed: int | None = 0) -> Model:
    """Four conv blocks (32/64/128/256) then the pooling-specific head."""
    m = Model(pooling)
    in_ch = 3
    for b, filters in enumerate((32, 64, 128, 256), start=1):
        m.add(f"block{b}_conv", L.Conv2D(filters, 3, in_ch, stride=1,
                                         seed=_layer_seed(seed, b)))
        m.add(f"block{b}_bn", L.BatchNorm(filters))
        m.add(f"block{b}_relu", L.ReLU())
        m.add(f"block{b}_pool", L.MaxPool2D(2, 2, T.VALID_FLOOR))
        in_ch = filters
    # spatial chain 99 -> 49 -> 24 -> 12 -> 6
    _head(m, seed, channels=256, spatial=6, start=100)
    return m


def _bottleneck(m: Model, name: str, in_idx: int, in_ch: int, width: int,
                stride: int, project: bool, seed: int, sidx: int) -> int:
    """Post-activation bottleneck: 1x1/s -> 3x3 -> 1x1 (x4), optional
    projection shortcut, elementwise add, relu. Returns the output node."""
    out_ch = width * 4
    a = m.add(f"{name}_conv1", L.Conv2D(width, 1, in_ch, stride=stride,
                                        seed=_layer_seed(seed, sidx)), [in_idx])
    a = m.add(f"{name}_bn1", L.BatchNorm(width), [a])
    a = m.add(f"{name}_relu1", L.ReLU(), [a])
    a = m.add(f"{name}_conv2", L.Conv2D(width, 3, width, stride=1,
                                        seed=_layer_seed(seed, sidx + 1)), [a])
    a = m.add(f"{name}_bn2", L.BatchNorm(width), [a])
    a = m.add(f"{name}_relu2", L.ReLU(), [a])
    a = m.add(f"{name}_conv3", L.Conv2D(out_ch, 1, width, stride=1,
                                        seed=_layer_seed(seed, sidx + 2)), [a])
    a = m.add(f"{name}_bn3", L.BatchNorm(out_ch), [a])
    if project:
        s = m.add(f"{name}_proj_conv", L.Conv2D(out_ch, 1, in_ch, stride=stride,
                                                seed=_layer_seed(seed, sidx + 3)),
                  [in_idx])
        s = m.add(f"{name}_proj_bn", L.BatchNorm(out_ch), [s])
    else:
        s = in_idx
    a = m.add(f"{name}_add", L.Add(), [a, s])
    return m.add(f"{name}_relu_out", L.ReLU(), [a])


def build_resnet50(pooling: str, seed: int | None = 0) -> Model:
    """50-layer residual backbone (stages 3/4/6/3, widths 64/128/256/512 x4)
    plus the classification head; backbone starts frozen."""
    m = Model(pooling)
    m.add("stem_conv", L.Conv2D(64, 7, 3, stride=2, seed=_layer_seed(seed, 0)))
    m.add("stem_bn", L.BatchNorm(64))
    m.add("stem_relu", L.ReLU())
    last = m.add("stem_pool", L.MaxPool2D(3, 2, T.SAME_CEIL))
    sidx = 10
    in_ch = 64
    stages = ((2, 3, 64, 1), (3, 4, 128, 2), (4, 6, 256, 2), (5, 3, 512, 2))
    for stage, blocks, width, stride in stages:
        for b in range(1, blocks + 1):
            last = _bottleneck(m, f"stage{stage}_block{b}", last, in_ch, width,
                               stride if b == 1 else 1, project=(b == 1),
                               seed=seed, sidx=sidx)
            in_ch = width * 4
            sidx += 4
    m.backbone_len = len(m.nodes)
    for node in m.nodes:
        node.layer.trainable = False
    # spatial chain 99 -> 50 -> 25 -> 25 -> 13 -> 7 -> 4
    _head(m, seed, channels=2048, spatial=4, start=500)
    return m


def build_model(config: ModelConfig, seed: int | None = 0) -> Model:
    """The registry model of `config`, He-normal weights drawn from `seed`.
    A seed of None draws no weights and leaves them uninitialised, for a
    checkpoint restore that assigns every tensor."""
    if config.architecture == "custom":
        return build_custom_cnn(config.pooling, seed=seed)
    return build_resnet50(config.pooling, seed=seed)
