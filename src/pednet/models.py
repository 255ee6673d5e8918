"""Model graph, the two architectures, and the eight-variant registry.

A Model is an ordered list of named layer nodes; each node lists the indices
of the nodes it consumes (-1 is the model input). Sequential networks are the
trivial case; the residual adds of ResNet50 use two-input nodes.

A forward hands a layer its first input to write (`own=True`) only when the
layer is that array's sole reader and the array is free: never the model
input, and never an output that is a view of an input its layer did not own.
So a residual block's input, read by the block and by its shortcut, is
never written.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import layers as L
from . import tensor as T
from .errors import ConfigError, NumericError, ShapeError

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


@dataclass
class _Node:
    name: str
    layer: L.Layer
    inputs: list[int]
    last_reader: int | None = None  # the last node that reads the output
    readers: int = 0  # how many inputs of later nodes are the output


class Model:
    def __init__(self, pooling: str):
        self.pooling = pooling
        self.nodes: list[_Node] = []
        self.backbone_len = 0  # leading node count forming the frozen backbone

    # -- construction -----------------------------------------------------

    def add(self, name: str, layer: L.Layer, inputs=None) -> int:
        if inputs is None:
            inputs = [len(self.nodes) - 1]
        idx = len(self.nodes)
        for i in inputs:
            if i >= 0:
                self.nodes[i].last_reader = idx
                self.nodes[i].readers += 1
        self.nodes.append(_Node(name, layer, list(inputs)))
        return idx

    # -- execution --------------------------------------------------------

    def forward(self, x, train=False, rng=None):
        """The softmax output for the batch x. Each node's output is dropped
        once its last reader has run. Finiteness is checked on the logits;
        when that fails, the batch runs again with the same dropout draws
        and a check after every node, so the error names the node."""
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
        """Run the nodes in order. In train mode a node below the frontier
        drops its backward cache as soon as its forward has run: `backward`
        never visits it. A node owns its first input, and may write it, when
        it is that free array's sole reader; an output is free unless it
        shares memory with an input its node did not own."""
        outs = [None] * len(self.nodes)
        free = [False] * len(self.nodes)
        frontier = self._frontier() if train else 0
        for j, node in enumerate(self.nodes):
            args = [x if i == -1 else outs[i] for i in node.inputs]
            first = node.inputs[0]
            own = first >= 0 and free[first] and self.nodes[first].readers == 1
            outs[j] = node.layer.forward(*args, train=train, rng=rng, own=own)
            free[j] = not any(np.may_share_memory(outs[j], a)
                              for a in (args[1:] if own else args))
            if j < frontier:
                node.layer.cache = None
            if check_nodes:
                T.check_finite(outs[j], node.name)
            for i in node.inputs:
                if i >= 0 and self.nodes[i].last_reader == j:
                    outs[i] = None
        return outs[-1]

    def backward(self, upstream):
        """Backpropagate the loss gradient at the logits (the softmax input).

        Accumulates into the `grads` of every layer from the output down to
        the lowest node whose layer is trainable and has parameters, and
        stops there: nodes below it are not visited and their `grads` are
        not written. Inputs always precede their consumers in the node list,
        so a gradient headed below that node could only reach layers without
        trainable parameters. Freezing is a prefix of the node list (see
        `build_resnet50` and `optim.apply_phase`), so no frozen layer's
        `grads` are written. That node, the frontier, is told not to compute
        its input gradient, which nothing reads: training never computes the
        gradient of the model input. Each node's upstream gradient is
        dropped once its layer has consumed it, and its layer's cache once
        its backward has returned, so a second call needs a new forward.
        The softmax is not walked and keeps its cache: `logits` still reads.
        """
        last = self.nodes[-1]
        if last.layer.kind != "softmax":
            raise ShapeError("backward requires a softmax output layer")
        grads = [None] * len(self.nodes)
        grads[last.inputs[0]] = upstream
        lowest = self._frontier()
        for idx in range(len(self.nodes) - 1, lowest - 1, -1):
            g, grads[idx] = grads[idx], None
            if g is None:
                continue
            node = self.nodes[idx]
            if idx == lowest:  # nothing reads the frontier's input gradient
                node.layer.backward(g, input_grad=False)
                node.layer.cache = None
                break
            down = node.layer.backward(g)
            node.layer.cache = None
            if not isinstance(down, tuple):
                down = (down,)
            for i, gi in zip(node.inputs, down):
                if i >= lowest:
                    grads[i] = gi if grads[i] is None else grads[i] + gi

    def _frontier(self):
        """The index of the lowest node whose layer is trainable and has
        parameters, or of the softmax if there is none."""
        return next((i for i, node in enumerate(self.nodes)
                     if node.layer.trainable and node.layer.params),
                    len(self.nodes) - 1)

    # -- parameters -------------------------------------------------------

    def zero_grads(self):
        """Zero the trainable layers' gradient buffers in place; the
        optimizer reads no other layer's `grads`."""
        for node in self.nodes:
            if node.layer.trainable:
                node.layer.zero_grads()

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
