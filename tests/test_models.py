import collections
import functools
import tracemalloc

import numpy as np
import pytest

from pednet import layers, models, optim
from pednet.errors import ConfigError, StateError
from pednet.data import one_hot
from pednet.train import cross_entropy_loss, predict

from conftest import lone_views

TABLE1_COUNTS = {
    1: (24_639_878, 1_052_166),
    2: (27_785_606, 4_197_894),
    3: (24_639_878, 1_052_166),
    4: (27_785_606, 4_197_894),
    5: (524_998, 524_038),
    6: (1_573_574, 1_572_614),
    7: (524_998, 524_038),
    8: (1_573_574, 1_572_614),
}


class TestRegistry:
    def test_model_4(self):
        cfg = models.registry_lookup(4)
        assert (cfg.architecture, cfg.pooling, cfg.optimizer) == \
            ("resnet50", "MP", "sgd_momentum")
        assert (cfg.lr_initial, cfg.lr_finetune) == (0.01, 0.001)

    def test_model_8(self):
        cfg = models.registry_lookup(8)
        assert (cfg.architecture, cfg.pooling, cfg.optimizer) == \
            ("custom", "MP", "sgd_momentum")
        assert (cfg.lr_initial, cfg.lr_finetune) == (0.001, None)

    def test_model_1(self):
        cfg = models.registry_lookup(1)
        assert (cfg.architecture, cfg.pooling, cfg.optimizer) == \
            ("resnet50", "GAP", "adam")
        assert (cfg.lr_initial, cfg.lr_finetune) == (0.0001, 0.00001)

    @pytest.mark.parametrize("bad", [0, 9, -1, True, 8.0])
    def test_out_of_range(self, bad):
        with pytest.raises(ConfigError):
            models.registry_lookup(bad)


class TestParameterCounts:
    @pytest.mark.parametrize("model_id", [5, 6])
    def test_custom(self, model_id):
        cfg = models.registry_lookup(model_id)
        _, total, trainable = models.build_model(cfg, seed=0).summary()
        assert (total, trainable) == TABLE1_COUNTS[model_id]

    @pytest.mark.parametrize("model_id", [1, 2])
    def test_resnet(self, model_id):
        cfg = models.registry_lookup(model_id)
        _, total, trainable = models.build_model(cfg, seed=0).summary()
        assert (total, trainable) == TABLE1_COUNTS[model_id]

    def test_custom_gap_per_layer_breakdown(self):
        model = models.build_custom_cnn("GAP", seed=0)
        ledger, _, trainable = model.summary()
        got = [e.trainable for e in ledger if e.trainable]
        assert got == [896, 64, 18_496, 128, 73_856, 256, 295_168, 512,
                       131_584, 3_078]
        assert trainable == 524_038

    def test_custom_mp_flatten_width(self):
        model = models.build_custom_cnn("MP", seed=0)
        dense1 = next(n.layer for n in model.nodes if n.name == "head_dense1")
        assert dense1.in_features == 3 * 3 * 256

    def test_resnet_mp_flatten_width(self):
        model = models.build_resnet50("MP", seed=0)
        dense1 = next(n.layer for n in model.nodes if n.name == "head_dense1")
        assert dense1.in_features == 2 * 2 * 2048

    def test_all_frozen_trainable_zero(self):
        model = models.build_custom_cnn("GAP", seed=0)
        for node in model.nodes:
            node.layer.trainable = False
        _, total, trainable = model.summary()
        assert trainable == 0
        assert total == 524_998

    def test_resnet_full_unfreeze(self):
        model = models.build_resnet50("MP", seed=0)
        for node in model.nodes:
            node.layer.trainable = True
        _, total, trainable = model.summary()
        assert total == 27_785_606
        # non-trainable residue is exactly the moving statistics:
        # 2 values per batchnorm channel in the backbone
        bn_channels = sum(
            n.layer.channels for n in model.nodes[:model.backbone_len]
            if n.layer.kind == "batchnorm")
        assert total - trainable == 2 * bn_channels
        assert total - trainable == 53_120


class TestBuildProperties:
    def test_same_seed_bit_identical(self):
        a = models.build_custom_cnn("MP", seed=5)
        b = models.build_custom_cnn("MP", seed=5)
        for (name_a, la, pa), (name_b, lb, pb) in zip(a.named_params(),
                                                      b.named_params()):
            assert name_a == name_b
            assert np.array_equal(la.params[pa], lb.params[pb])

    def test_different_seed_differs(self):
        a = models.build_custom_cnn("GAP", seed=5)
        b = models.build_custom_cnn("GAP", seed=6)
        assert not np.array_equal(
            a.nodes[0].layer.params["weight"],
            b.nodes[0].layer.params["weight"])

    @pytest.mark.parametrize("builder,pooling", [
        (models.build_custom_cnn, "GAP"),
        (models.build_custom_cnn, "MP"),
        (models.build_resnet50, "GAP"),
        (models.build_resnet50, "MP"),
    ])
    def test_forward_batch8_softmax_rows(self, builder, pooling):
        model = builder(pooling, seed=1)
        x = np.random.default_rng(0).random((8, 99, 99, 3), np.float32)
        out = model.forward(x, train=False)
        assert out.shape == (8, 6)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_gap_mp_backbones_identical(self):
        gap = models.build_resnet50("GAP", seed=2)
        mp = models.build_resnet50("MP", seed=2)
        lg, _, _ = gap.summary()
        lm, _, _ = mp.summary()
        n = gap.backbone_len
        assert n == mp.backbone_len
        assert [(e.name, e.kind, e.trainable, e.non_trainable)
                for e in lg[:n]] == \
               [(e.name, e.kind, e.trainable, e.non_trainable)
                for e in lm[:n]]

    def test_resnet_backbone_total(self):
        model = models.build_resnet50("GAP", seed=0)
        ledger, _, _ = model.summary()
        backbone = sum(e.trainable + e.non_trainable
                       for e in ledger[:model.backbone_len])
        assert backbone == 23_587_712

    def test_resnet_feature_map_is_4x4x2048(self):
        model = models.build_resnet50("GAP", seed=0)
        x = np.zeros((1, 99, 99, 3), np.float32)
        model.forward(x, train=False)
        gap = next(n for n in model.nodes if n.name == "head_gap")
        plan = model._plan(False, 0, x.shape, x.dtype)
        assert plan.fwd[gap.inputs[0]]["y"].shape == (1, 4, 4, 2048)


def _phase_model(case):
    """(model, optimizer) with the trainable flags of one training setup."""
    if case.startswith("custom"):
        cfg = models.registry_lookup(8)
        model = models.build_model(cfg, seed=0)
        if case == "custom-frozen-prefix":
            for node in model.nodes[:4]:  # block 1
                node.layer.trainable = False
        return model, optim.make_optimizer(cfg)
    cfg = models.registry_lookup(1)
    model = models.build_model(cfg, seed=0)
    opt = optim.make_optimizer(cfg)
    opt = optim.apply_phase(cfg, model, opt, 1)
    if case == "resnet-phase2":
        opt = optim.apply_phase(cfg, model, opt, 2)
    return model, opt


def _spy(model):
    """Record every layer call as (node index, method, args, output)."""
    calls = []
    for idx, node in enumerate(model.nodes):
        for method in ("forward", "backward"):
            def spy(*args, _fn=getattr(node.layer, method), _idx=idx,
                    _method=method, **kwargs):
                out = _fn(*args, **kwargs)
                calls.append((_idx, _method, args, out))
                return out
            setattr(node.layer, method, spy)
    return calls


def _forward_loss_grad(model, seed=0):
    x = np.random.default_rng(seed).random((2, 99, 99, 3), np.float32)
    probs = model.forward(x, train=True, rng=np.random.default_rng(seed))
    _, g = cross_entropy_loss(probs, one_hot([0, 3]),
                              logits=model.nodes[-1].layer.logits)
    return g


def _train_step(model, opt, seed=0):
    g = _forward_loss_grad(model, seed)
    model.zero_grads()
    model.backward(g)
    opt.step(model)


class TestBackward:
    CASES = ["resnet-phase1", "resnet-phase2", "custom-frozen-prefix"]
    # The lowest node whose layer is trainable and has parameters. Phase 2
    # unfreezes the last 100 backbone nodes, from stage3_block4_bn2 on.
    LOWEST = {"resnet-phase1": "head_dense1",
              "resnet-phase2": "stage3_block4_bn2",
              "custom-frozen-prefix": "block2_conv"}

    @pytest.mark.parametrize("case", CASES)
    def test_walk_stops_at_lowest_trainable_node(self, case):
        model, opt = _phase_model(case)
        names = [n.name for n in model.nodes]
        lowest = names.index(self.LOWEST[case])
        calls = _spy(model)
        _train_step(model, opt)
        walked = {idx for idx, method, _, _ in calls if method == "backward"}
        # every node from the lowest trainable one up to the logits, no other
        assert walked == set(range(lowest, len(model.nodes) - 1))

    @pytest.mark.parametrize("case", CASES)
    def test_pruned_grads_equal_full_walk(self, case):
        model, _ = _phase_model(case)
        g = _forward_loss_grad(model)
        model.zero_grads()
        model.backward(g)
        pruned = {(n.name, k): v.copy() for n in model.nodes
                  if n.layer.trainable for k, v in n.layer.grads.items()}
        assert pruned
        for node in model.nodes:
            node.layer.trainable = True
        # the phase-mode forward kept no cache below its frontier; the same
        # x and dropout draws give the full walk the same activations
        _forward_loss_grad(model)
        model.zero_grads()
        model.backward(g)
        full = {(n.name, k): v for n in model.nodes
                for k, v in n.layer.grads.items()}
        for key, grad in pruned.items():
            assert grad.tobytes() == full[key].tobytes(), key

    @pytest.mark.parametrize("case", CASES + ["custom-all-trainable"])
    def test_cache_kept_from_frontier_up(self, case):
        if case == "custom-all-trainable":
            model = models.build_model(models.registry_lookup(8), seed=0)
            lowest = 0
        else:
            model, _ = _phase_model(case)
            lowest = [n.name for n in model.nodes].index(self.LOWEST[case])
        before = {n.name: n.layer.state["moving_mean"].copy()
                  for n in model.nodes if n.layer.kind == "batchnorm"}
        g = _forward_loss_grad(model)
        for idx, node in enumerate(model.nodes):
            assert (node.layer.cache is None) == (idx < lowest), node.name
            if idx < lowest and node.layer.kind == "batchnorm":
                # a train-mode forward below the frontier still moves them
                assert np.any(node.layer.state["moving_mean"]
                              != before[node.name]), node.name
        model.zero_grads()
        model.backward(g)

    @pytest.mark.parametrize("case", CASES + ["custom-all-trainable"])
    def test_backward_releases_each_cache_it_consumed(self, case):
        """Backward consumes the plan whose arena holds the caches it read,
        so a second call needs a new forward; a walked layer's cache is
        arena views and per-channel vectors, nothing of its own."""
        if case == "custom-all-trainable":
            model = models.build_model(models.registry_lookup(8), seed=0)
        else:
            model, _ = _phase_model(case)
        calls = _spy(model)
        g = _forward_loss_grad(model)
        model.zero_grads()
        model.backward(g)
        walked = {idx for idx, method, _, _ in calls if method == "backward"}
        assert walked
        for idx in walked:
            layer = model.nodes[idx].layer
            for arr in _cached_arrays(layer):
                assert (np.may_share_memory(arr, model._arena)
                        or arr.shape == (getattr(layer, "channels", -1),)), \
                    (model.nodes[idx].name, arr.shape)
        for node in model.nodes:
            # no layer keeps an array outside its parameters, gradients,
            # statistics and cache from one step to the next
            kept = [k for k, v in vars(node.layer).items()
                    if k != "cache" and isinstance(v, np.ndarray)]
            assert not kept, (node.name, kept)
        # the softmax is not walked: its logits still read
        assert model.nodes[-1].layer.logits.shape == g.shape
        with pytest.raises(StateError, match="backward called before"):
            model.backward(g)

    def test_backward_follows_its_forward(self):
        """Backward differentiates the train forward it follows: a layer
        unfrozen in between is not walked, since that forward kept
        nothing for it."""
        model, _ = _phase_model("custom-frozen-prefix")
        g = _forward_loss_grad(model)
        for node in model.nodes[:4]:
            node.layer.trainable = True
        model.zero_grads()
        model.backward(g)
        grads = {n.name: n.layer.grads for n in model.nodes}
        assert all(np.all(v == 0) for v in grads["block1_conv"].values())
        assert all(np.any(v != 0) for v in grads["block2_conv"].values())
        with pytest.raises(StateError, match="backward called before"):
            model.backward(g)

    @pytest.mark.parametrize("model_id,phase,frontier", [
        (8, 1, "block1_conv"), (1, 2, "stage3_block4_bn2")])
    def test_frontier_computes_no_input_gradient(self, model_id, phase,
                                                 frontier, monkeypatch):
        cfg = models.registry_lookup(model_id)
        model = models.build_model(cfg, seed=0)
        opt = optim.make_optimizer(cfg)
        for p in range(1, phase + 1):
            opt = optim.apply_phase(cfg, model, opt, p)
        scattered = []

        def col2im(cell_grads, in_shape, *args, _real=layers._col2im):
            scattered.append(in_shape)
            return _real(cell_grads, in_shape, *args)

        monkeypatch.setattr(layers, "_col2im", col2im)
        calls = _spy(model)
        _train_step(model, opt)
        down = {model.nodes[idx].name: out
                for idx, method, _, out in calls if method == "backward"}
        assert down.pop(frontier) is None
        assert all(out is not None for out in down.values())
        # nothing is scattered onto the model input
        assert (2, *models.INPUT_SPEC) not in scattered
        layer = next(n.layer for n in model.nodes if n.name == frontier)
        assert all(np.any(g != 0) for g in layer.grads.values())

    @pytest.mark.parametrize("model_id,phases", [(8, (1,)), (1, (1, 2))])
    def test_train_step_stays_float32(self, model_id, phases):
        cfg = models.registry_lookup(model_id)
        model = models.build_model(cfg, seed=0)
        opt = optim.make_optimizer(cfg)
        calls = _spy(model)
        for phase in phases:
            opt = optim.apply_phase(cfg, model, opt, phase)
            del calls[:]
            _train_step(model, opt, seed=phase)
            for idx, method, args, out in calls:
                outs = out if isinstance(out, tuple) else (out,)
                for arr in args + outs:
                    if arr is None:  # the frontier returns no input gradient
                        continue
                    assert arr.dtype == np.float32, (
                        phase, model.nodes[idx].name, method, arr.dtype)
            for node in model.nodes:
                layer = node.layer
                for d in (layer.params, layer.grads, layer.state):
                    for k, arr in d.items():
                        assert arr.dtype == np.float32, (phase, node.name, k)
            assert opt.slots
            for name, slot in opt.slots.items():
                for k, arr in slot.items():
                    assert arr.dtype == np.float32, (phase, name, k)

    def test_zero_grads_in_place_trainable_only(self):
        model, _ = _phase_model("custom-frozen-prefix")
        before = {}
        for node in model.nodes:
            for k, g in node.layer.grads.items():
                g.fill(1)
                before[(node.name, k)] = g
        model.zero_grads()
        for node in model.nodes:
            for k, g in node.layer.grads.items():
                assert g is before[(node.name, k)]
                assert g.dtype == np.float32
                assert np.all(g == (0 if node.layer.trainable else 1)), \
                    node.name


def _cached_arrays(layer):
    """The arrays a layer's forward cache holds."""
    items = layer.cache if isinstance(layer.cache, tuple) else (layer.cache,)
    return [a for a in items if isinstance(a, np.ndarray)]


class TestLiveness:
    @pytest.mark.parametrize("model_id", [8, 1])
    def test_eval_forward_caches_nothing_larger_than_logits(self, model_id):
        model = models.build_model(models.registry_lookup(model_id), seed=0)
        x = np.random.default_rng(0).random((2, *models.INPUT_SPEC),
                                            np.float32)
        model.forward(x, train=True, rng=np.random.default_rng(0))
        model.forward(x, train=False)  # replaces every train-mode cache
        logits = model.nodes[-1].layer.logits
        for node in model.nodes:
            for arr in _cached_arrays(node.layer):
                assert arr.size <= logits.size, (node.name, arr.shape)

    @pytest.mark.parametrize("model_id", [8, 1])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_output_intact_until_last_reader(self, model_id, train):
        """Every node output keeps its bytes until its last reader has run,
        though the arena reuses its memory afterwards."""
        model = models.build_model(models.registry_lookup(model_id), seed=0)
        last_reader = {}
        for j, node in enumerate(model.nodes):
            for i in node.inputs:
                last_reader[i] = j
        live, checked = {}, []

        def spy(*args, _fn, _j, **kwargs):
            for i, (out, before) in list(live.items()):
                assert out.tobytes() == before, (model.nodes[i].name,
                                                 model.nodes[_j].name)
                checked.append(i)
                if last_reader[i] == _j:
                    del live[i]
            out = _fn(*args, **kwargs)
            if _j in last_reader:
                live[_j] = out, out.tobytes()
            return out

        for j, node in enumerate(model.nodes):
            node.layer.forward = functools.partial(spy, _fn=node.layer.forward,
                                                   _j=j)
        x = np.random.default_rng(1).random((2, *models.INPUT_SPEC),
                                            np.float32)
        model.forward(x, train=train, rng=np.random.default_rng(1))
        assert set(checked) == set(range(len(model.nodes) - 1))
        # buffers share bytes: the arena is smaller than what it holds
        planned = model._layout(train, model._frontier() if train else 0,
                                x.shape, x.dtype)[0]
        total = sum(int(np.prod(shp)) * dt.itemsize for e in planned if e
                    for _, shp, dt in e.values())
        assert model._arena.size < total


def _private_inputs(model):
    """Give every layer a private copy of each input, and fresh forward
    arrays instead of the arena's: the reference in which no layer's write
    can reach another layer."""
    for node in model.nodes:
        def forward(*args, _fn=node.layer.forward, _layer=node.layer,
                    **kwargs):
            args = [a.copy() for a in args]
            kwargs["out"] = lone_views(_layer, args[0], kwargs["train"],
                                       kwargs["keep"])[0]
            return _fn(*args, **kwargs)
        node.layer.forward = forward


class TestOwnership:
    """A layer writes an input only where the plan makes its output that
    input's buffer: the input is an arena buffer and no later call reads
    it. The model input is never written."""

    # model 8 with every layer trainable, model 1 in each phase
    CASES = ["custom", "resnet-phase1", "resnet-phase2"]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_read_only_batch(self, case, train):
        model, _ = _phase_model(case)
        x = np.random.default_rng(0).random((2, *models.INPUT_SPEC),
                                            np.float32)
        before = x.tobytes()
        x.setflags(write=False)
        probs = model.forward(x, train=train, rng=np.random.default_rng(0))
        assert probs.shape == (2, models.NUM_CLASSES)
        assert x.tobytes() == before

    @pytest.mark.parametrize("case", ["custom", "resnet-phase2"])
    def test_bit_equal_to_private_inputs(self, case):
        """Train probabilities, every gradient, parameter and statistic
        after one step, and the eval probabilities after it."""
        (model, opt), (ref, ref_opt) = _phase_model(case), _phase_model(case)
        _private_inputs(ref)
        for m, o in ((model, opt), (ref, ref_opt)):
            g = _forward_loss_grad(m, seed=3)
            m.zero_grads()
            m.backward(g)
            o.step(m)
        x = np.random.default_rng(4).random((2, *models.INPUT_SPEC),
                                            np.float32)
        assert model.forward(x).tobytes() == ref.forward(x).tobytes()
        for node, rnode in zip(model.nodes, ref.nodes):
            for k in node.layer.params:
                for got, want in ((node.layer.grads, rnode.layer.grads),
                                  (node.layer.params, rnode.layer.params)):
                    assert got[k].tobytes() == want[k].tobytes(), \
                        (node.name, k)
            for k in node.layer.state:
                assert node.layer.state[k].tobytes() == \
                    rnode.layer.state[k].tobytes(), (node.name, k)

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_block_input_unchanged_by_its_block(self, train):
        """A residual block's input feeds its first conv and its shortcut;
        the add that ends the block still reads the bytes it was made
        with."""
        model, _ = _phase_model("resnet-phase2")
        readers = collections.Counter(i for node in model.nodes
                                      for i in node.inputs)
        made, checked = {}, []

        def spy(*args, _fn, _j, **kwargs):
            src = model.nodes[_j].inputs[-1]
            if model.nodes[_j].layer.kind == "add" and src in made:
                b = args[1]
                assert b is made[src][0]
                assert b.tobytes() == made[src][1], model.nodes[_j].name
                checked.append(_j)
            out = _fn(*args, **kwargs)
            if readers[_j] > 1:
                made[_j] = out, out.tobytes()
            return out

        for j, node in enumerate(model.nodes):
            node.layer.forward = functools.partial(spy, _fn=node.layer.forward,
                                                   _j=j)
        x = np.random.default_rng(2).random((2, *models.INPUT_SPEC),
                                            np.float32)
        model.forward(x, train=train, rng=np.random.default_rng(2))
        # the identity-shortcut blocks: 16 blocks, 4 with a projection
        assert len(checked) == 12

    @pytest.mark.parametrize("case", ["model-input", "view-of-input",
                                      "two-readers"])
    def test_relu_never_writes_a_shared_array(self, case):
        """A relu that reads the model input, a view of it (eval dropout),
        or an array another node reads too gives the bytes of a relu with
        a private copy."""
        def build():
            m = models.Model("GAP")
            if case == "model-input":
                m.add("relu", layers.ReLU(), [-1])
            elif case == "view-of-input":
                m.add("drop", layers.Dropout(0.3), [-1])
                m.add("relu", layers.ReLU())
            else:  # relu and add both read the conv output first
                conv = m.add("conv", layers.Conv2D(3, 1, 3, seed=0), [-1])
                relu = m.add("relu", layers.ReLU(), [conv])
                m.add("add", layers.Add(), [conv, relu])
            m.add("gap", layers.GlobalAvgPool())
            m.add("dense", layers.Dense(models.NUM_CLASSES, 3, seed=1))
            m.add("softmax", layers.Softmax())
            return m

        model, ref = build(), build()
        _private_inputs(ref)
        x = np.random.default_rng(0).random((2, *models.INPUT_SPEC),
                                            np.float32) - 0.5
        x.setflags(write=False)
        assert model.forward(x).tobytes() == ref.forward(x).tobytes()

    def test_sole_reader_writes_in_place(self):
        """In model 8 batch norm writes the conv output and relu the batch
        norm output; a max-pool's output is always fresh."""
        model = models.build_model(models.registry_lookup(8), seed=0)
        calls = _spy(model)
        x = np.random.default_rng(0).random((2, *models.INPUT_SPEC),
                                            np.float32)
        model.forward(x)
        outs = {model.nodes[j].name: out for j, _, _, out in calls}

        def where(a):  # the bytes an array is
            return a.__array_interface__["data"][0], a.shape, a.strides

        for b in range(1, 5):
            assert where(outs[f"block{b}_bn"]) == where(outs[f"block{b}_conv"])
            assert where(outs[f"block{b}_relu"]) == \
                where(outs[f"block{b}_conv"])
            assert not np.may_share_memory(outs[f"block{b}_pool"],
                                           outs[f"block{b}_relu"])


def _meeting_graph(case):
    """A float64 model on 1x1 convs whose gradients meet as `case` says,
    with a GAP, dense and softmax head: `nested-adds` is add(a, add(a, c)),
    `self-add` is add(a, a), and `diamond` joins a conv and a relu that
    both read a in add(conv(a), relu(a))."""
    m = models.Model("GAP")

    def conv(name, src, seed):
        return m.add(name, layers.Conv2D(2, 1, 3 if src < 0 else 2,
                                         seed=seed, dtype=np.float64), [src])

    a = conv("a", -1, 1)
    if case == "nested-adds":
        inner = m.add("inner", layers.Add(), [a, conv("c", -1, 2)])
        m.add("outer", layers.Add(), [a, inner])
    elif case == "self-add":
        m.add("add", layers.Add(), [a, a])
    else:
        b = conv("b", a, 2)
        m.add("add", layers.Add(), [b, m.add("relu", layers.ReLU(), [a])])
    m.add("gap", layers.GlobalAvgPool())
    m.add("dense", layers.Dense(models.NUM_CLASSES, 2, seed=3,
                                dtype=np.float64))
    m.add("softmax", layers.Softmax())
    return m


class TestMeetingGradients:
    """Where gradients meet (two inputs of one add, an add inside an add,
    a node two layers read), the float64 analytic gradient of every
    parameter equals central differences of sum(logits * u)."""

    @pytest.mark.parametrize("case", ["nested-adds", "self-add", "diamond"])
    def test_matches_central_differences(self, case):
        model = _meeting_graph(case)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, *models.INPUT_SPEC))
        u = rng.standard_normal((2, models.NUM_CLASSES))

        def loss():
            model.forward(x, train=True)
            return float((model.nodes[-1].layer.logits * u).sum())

        loss()
        model.zero_grads()
        model.backward(u.copy())
        eps = 1e-6
        for name, layer, p in model.named_params():
            param, numeric = layer.params[p], np.empty(layer.params[p].shape)
            for i in np.ndindex(param.shape):
                was = param[i]
                param[i] = was + eps
                up = loss()
                param[i] = was - eps
                down = loss()
                param[i] = was
                numeric[i] = (up - down) / (2 * eps)
            np.testing.assert_allclose(layer.grads[p], numeric, rtol=1e-5,
                                       atol=1e-8, err_msg=f"{case} {name}")


# Arena bytes of the registry plans while a conv's backward still built its
# whole column matrix and a max-pool's its routed cells: (model id, phase;
# 0 for eval) -> bytes at batch 1, 3 and 8. No plan may grow past them.
ARENA_CEILING = {
    (1, 1): (4_212_736, 7_260_032, 15_360_000),
    (1, 2): (16_653_952, 31_087_488, 67_171_328),
    (1, 0): (2_880_000, 7_200_000, 12_800_000),
    (2, 1): (16_844_800, 16_979_968, 17_317_888),
    (2, 2): (23_737_984, 37_659_520, 72_463_360),
    (2, 0): (2_880_000, 7_200_000, 12_800_000),
    (6, 1): (8_500_992, 18_437_440, 49_043_328),
    (6, 2): (8_500_992, 18_437_440, 49_043_328),
    (6, 0): (4_020_864, 7_306_372, 14_191_072),
    (8, 1): (8_500_992, 18_437_440, 49_043_328),
    (8, 2): (8_500_992, 18_437_440, 49_043_328),
    (8, 0): (4_020_864, 7_306_372, 14_191_072),
}


def _phase_layout(model_id, phase, batch):
    """The float32 `Model._layout` of a registry model (unseeded) in a
    training phase (0: eval) at a batch size, and the model."""
    cfg = models.registry_lookup(model_id)
    model = models.build_model(cfg, seed=None)
    optim.apply_phase(cfg, model, optim.make_optimizer(cfg), max(phase, 1))
    train = phase > 0
    return model, model._layout(train, model._frontier() if train else 0,
                                (batch, *models.INPUT_SPEC), np.float32)


def _steady_bytes(step):
    """Bytes `step()` allocates at its peak, by tracemalloc, after a first
    call has laid out the plans."""
    step()
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestArena:
    @pytest.mark.parametrize("case", ["custom", "resnet-phase2"])
    def test_steady_train_step_allocates_under_1mib(self, case):
        model, opt = _phase_model(case)
        x = np.random.default_rng(0).random((8, *models.INPUT_SPEC),
                                            np.float32)
        labels = one_hot([0, 1, 2, 3, 4, 5, 0, 1])

        def step():
            probs = model.forward(x, train=True, rng=np.random.default_rng(0))
            _, g = cross_entropy_loss(probs, labels,
                                      logits=model.nodes[-1].layer.logits)
            model.zero_grads()
            model.backward(g)
            opt.step(model)

        assert _steady_bytes(step) < 2 ** 20

    def test_predict_allocates_under_1mib(self):
        model = models.build_model(models.registry_lookup(8), seed=0)
        x = np.random.default_rng(0).random((20, *models.INPUT_SPEC),
                                            np.float32)
        assert _steady_bytes(lambda: predict(model, x)) < 2 ** 20

    def test_predict_rows_kept_and_outside_the_arena(self):
        model = models.build_model(models.registry_lookup(8), seed=0)
        x = np.random.default_rng(0).random((20, *models.INPUT_SPEC),
                                            np.float32)
        first = model.forward(x[:8])
        logits = model.nodes[-1].layer.logits
        kept = first.tobytes(), logits.tobytes()
        probs, all_logits = predict(model, x)
        assert (first.tobytes(), logits.tobytes()) == kept
        assert probs[:8].tobytes() == kept[0]
        assert all_logits[:8].tobytes() == kept[1]
        for out in (first, logits, probs, all_logits):
            assert not np.may_share_memory(out, model._arena)

    def test_interleaved_models_keep_their_own_arena(self):
        """A's train forward, then a whole step of B, then A's backward
        give A the gradient bytes of A's step alone."""
        def grads_of(interleave):
            a = models.build_model(models.registry_lookup(8), seed=0)
            b = models.build_model(models.registry_lookup(8), seed=1)
            g = _forward_loss_grad(a, seed=5)
            if interleave:
                _train_step(b, optim.make_optimizer(models.registry_lookup(8)),
                            seed=6)
            a.zero_grads()
            a.backward(g)
            return [layer.grads[p].tobytes() for _, layer, p
                    in a.named_params()]

        assert grads_of(True) == grads_of(False)

    def test_arena_grows_for_a_larger_plan_only(self):
        model = models.build_model(models.registry_lookup(8), seed=0)
        rng = np.random.default_rng(0)
        model.forward(rng.random((2, *models.INPUT_SPEC), np.float32))
        small = model._arena
        model.forward(rng.random((4, *models.INPUT_SPEC), np.float32),
                      train=True, rng=rng)
        large = model._arena
        assert large.size > small.size
        assert len(model._plans) == 1  # the smaller arena's plan went
        model.forward(rng.random((2, *models.INPUT_SPEC), np.float32))
        assert model._arena is large

    def test_larger_plan_drops_caches_on_the_old_arena(self):
        """The caches a backward read stay views of the arena; a larger
        plan drops them with it, so they do not keep the smaller mapping
        alive through the next forward."""
        model = models.build_model(models.registry_lookup(8), seed=0)
        _train_step(model, optim.make_optimizer(models.registry_lookup(8)))
        small = model._arena
        assert any(np.may_share_memory(arr, small) for node in model.nodes
                   for arr in _cached_arrays(node.layer))
        model._plan(True, 0, (4, *models.INPUT_SPEC), np.float32)
        assert model._arena.size > small.size
        for node in model.nodes:
            for arr in _cached_arrays(node.layer):
                assert not np.may_share_memory(arr, small), node.name

    def test_no_plan_grows(self):
        """None of the 36 registry plans takes more arena bytes than
        ARENA_CEILING, and model 8's batch-8 train plan, which the column
        matrix of block2_conv's backward set at 46.8 MiB, fits 35 MiB."""
        for (model_id, phase), ceilings in ARENA_CEILING.items():
            for batch, ceiling in zip((1, 3, 8), ceilings):
                size = _phase_layout(model_id, phase, batch)[1][3]
                assert size <= ceiling, (model_id, phase, batch, size)
        assert _phase_layout(8, 1, 8)[1][3] <= 35 * 2 ** 20

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("phase", [1, 2])
    @pytest.mark.parametrize("model_id", [8, 1])
    def test_conv_backward_holds_one_kernel_row(self, model_id, phase,
                                                batch):
        """Every conv the walk visits gets an (N*Ho*Wo, k*C_in) column
        buffer, one kernel row of its column matrix, and no separate
        buffer for a cell's input gradient; a 1x1 stride-1 conv gets no
        column buffer."""
        model, (fwd, bwd, walk, _) = _phase_layout(model_id, phase, batch)
        walked = {idx for idx, _ in walk}
        convs = [j for j, node in enumerate(model.nodes)
                 if node.layer.kind == "conv2d" and j in walked]
        for j in convs:
            conv, y = model.nodes[j].layer, fwd[j]["y"][1]
            assert "cell" not in bwd[j]
            if conv.kernel == 1 and conv.stride == 1:
                assert "col" not in bwd[j]
                continue
            assert bwd[j]["col"][1] == (y[0] * y[1] * y[2],
                                        conv.kernel * conv.in_channels)
        # model 1's phase 1 walks only its head
        assert (len(convs) > 0) == (model_id == 8 or phase == 2)
