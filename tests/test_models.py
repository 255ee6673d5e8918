import functools
import tracemalloc

import numpy as np
import pytest

from pednet import layers, models, optim
from pednet.errors import ConfigError, StateError
from pednet.data import one_hot
from pednet.train import cross_entropy_loss, predict

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
        gap_node = next(n for n in model.nodes if n.name == "head_gap")
        assert gap_node.layer.cache == (1, 4, 4, 2048)


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
            assert model.nodes[idx].layer.cache is None, model.nodes[idx].name
        for node in model.nodes:
            # no layer keeps an array outside its parameters, gradients,
            # statistics and cache from one step to the next
            kept = [k for k, v in vars(node.layer).items()
                    if isinstance(v, np.ndarray)]
            assert not kept, (node.name, kept)
        # the softmax is not walked: its logits still read
        assert model.nodes[-1].layer.logits.shape == g.shape
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
    """Give every layer a private copy of each input, and fresh arrays
    instead of the arena's: the reference in which no layer's write can
    reach another layer."""
    for node in model.nodes:
        def forward(*args, _fn=node.layer.forward, **kwargs):
            kwargs["out"] = None
            return _fn(*[a.copy() for a in args], **kwargs)
        node.layer.forward = forward


class TestOwnership:
    """A layer writes an input only where the plan makes its output that
    input's buffer: the input is an arena buffer, the layer is its sole
    reader and nothing reads it later. The model input is never written."""

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
        made, checked = {}, []

        def spy(*args, _fn, _j, **kwargs):
            src = model.nodes[_j].inputs[-1]
            if model.nodes[_j].layer.kind == "add" and src in made:
                b = args[1]
                assert b is made[src][0]
                assert b.tobytes() == made[src][1], model.nodes[_j].name
                checked.append(_j)
            out = _fn(*args, **kwargs)
            if model.nodes[_j].readers > 1:
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
        for b in range(1, 5):
            assert outs[f"block{b}_bn"] is outs[f"block{b}_conv"]
            assert outs[f"block{b}_relu"] is outs[f"block{b}_conv"]
            assert not np.may_share_memory(outs[f"block{b}_pool"],
                                           outs[f"block{b}_relu"])


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
