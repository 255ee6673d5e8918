import numpy as np
import pytest

from pednet import models, optim
from pednet import layers as L


def scalar_model(value=1.0, dtype=np.float64):
    """A one-parameter model stand-in built from a dense layer."""
    model = models.Model("GAP")
    dense = L.Dense(1, 1, seed=0, dtype=dtype)
    dense.params["weight"][:] = value
    dense.params["bias"][:] = 0.0
    model.add("p", dense, [-1])
    return model, dense


class TestSGDMomentum:
    def test_zero_gradient_fixed_point(self):
        model, dense = scalar_model(1.0)
        for g in dense.grads.values():
            g.fill(0)
        before = dense.params["weight"].copy()
        opt = optim.SGDMomentum(lr=0.01)
        for _ in range(5):
            opt.step(model)
        assert np.array_equal(dense.params["weight"], before)

    def test_hand_recurrence(self):
        model, dense = scalar_model(1.0)
        opt = optim.SGDMomentum(lr=0.01)
        dense.grads["weight"][:] = 1.0
        opt.step(model)
        assert np.isclose(dense.params["weight"][0, 0], 0.99)
        assert np.isclose(opt.slots["p.weight"]["velocity"][0, 0], -0.01)
        dense.grads["weight"][:] = 1.0
        opt.step(model)
        assert np.isclose(opt.slots["p.weight"]["velocity"][0, 0], -0.019)
        assert np.isclose(dense.params["weight"][0, 0], 0.971)

    def test_frozen_parameter_untouched(self):
        model, dense = scalar_model(1.0)
        dense.trainable = False
        dense.grads["weight"][:] = 123.0
        before = dense.params["weight"].tobytes()
        opt = optim.SGDMomentum(lr=0.5)
        for _ in range(10):
            opt.step(model)
        assert dense.params["weight"].tobytes() == before


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        model, dense = scalar_model(2.0)
        for g in dense.grads.values():
            g.fill(0)
        before = dense.params["weight"].copy()
        opt = optim.Adam(lr=0.0001)
        for _ in range(7):
            opt.step(model)
        assert np.array_equal(dense.params["weight"], before)

    def test_first_step_magnitude_is_lr(self):
        model, dense = scalar_model(0.0)
        dense.grads["weight"][:] = 1.0
        opt = optim.Adam(lr=0.0001)
        opt.step(model)
        # bias correction makes step 1 move by ~lr: lr * 1 / (1 + eps')
        assert np.isclose(dense.params["weight"][0, 0], -0.0001, rtol=1e-3)

    def test_sign_property(self):
        rng = np.random.default_rng(0)
        model, dense = scalar_model(0.0)
        for seed in range(10):
            g = rng.standard_normal()
            dense.params["weight"][:] = 0.0
            dense.grads["weight"][:] = g
            opt = optim.Adam(lr=0.001)
            opt.step(model)
            assert np.sign(dense.params["weight"][0, 0]) == -np.sign(g)


@pytest.mark.parametrize("make_opt,lr", [
    (optim.SGDMomentum, 0.01),
    (optim.SGDMomentum, 0.001),
    (optim.Adam, 0.0001),
    (optim.Adam, 0.00001),
])
def test_quadratic_convergence(make_opt, lr):
    # f(p) = p^2 / 2, gradient p: both optimizers drive |p| toward 0
    model, dense = scalar_model(1.0)
    opt = make_opt(lr=lr)
    start = abs(dense.params["weight"][0, 0])
    for _ in range(1000):
        dense.grads["weight"][:] = dense.params["weight"]
        opt.step(model)
    assert abs(dense.params["weight"][0, 0]) < start


def _reference_sgd(opt, param, grad, v):
    """SGD-momentum as one whole-array expression per line."""
    v *= param.dtype.type(optim.SGD_MOMENTUM)
    v -= param.dtype.type(opt.lr) * grad
    param += v


def _reference_adam(opt, param, grad, m, v):
    """Adam as one whole-array expression per line (Kingma & Ba, Alg. 1)."""
    dt = param.dtype.type
    b1, b2 = dt(optim.ADAM_BETA1), dt(optim.ADAM_BETA2)
    m *= b1
    m += (dt(1.0) - b1) * grad
    v *= b2
    v += (dt(1.0) - b2) * grad * grad
    mhat = m / dt(1.0 - optim.ADAM_BETA1 ** opt.t)
    vhat = v / dt(1.0 - optim.ADAM_BETA2 ** opt.t)
    param -= dt(opt.lr) * mhat / (np.sqrt(vhat) + dt(optim.ADAM_EPSILON))


@pytest.mark.parametrize("make_opt,reference", [
    (lambda: optim.SGDMomentum(lr=0.01), _reference_sgd),
    (lambda: optim.Adam(lr=0.001), _reference_adam),
], ids=["sgd_momentum", "adam"])
def test_blocked_update_equals_whole_array_formula(make_opt, reference):
    # two full blocks and a short tail, and a parameter smaller than a block
    model = models.Model("GAP")
    big = L.Dense(2 * optim.BLOCK + 7, 1, seed=0)
    model.add("big", big, [-1])
    opt = make_opt()
    params = [big.params["weight"], big.params["bias"]]
    assert params[0].size == 2 * optim.BLOCK + 7
    assert params[1].size == 2 * optim.BLOCK + 7
    small = L.Dense(3, 5, seed=1)
    model.add("small", small)
    params += [small.params["weight"], small.params["bias"]]
    expect = [p.copy() for p in params]
    slots = [[np.zeros_like(p) for _ in opt.slot_names] for p in params]
    rng = np.random.default_rng(0)
    for step in range(3):
        for layer in (big, small):
            for k, g in layer.grads.items():
                g[...] = rng.standard_normal(g.shape).astype(g.dtype)
        opt.step(model)
        grads = [big.grads["weight"], big.grads["bias"],
                 small.grads["weight"], small.grads["bias"]]
        for p, g, slot in zip(expect, grads, slots):
            reference(opt, p, g, *slot)
        for name, p, want, slot in zip(
                ["big.weight", "big.bias", "small.weight", "small.bias"],
                params, expect, slots):
            assert p.tobytes() == want.tobytes(), (step, name)
            for s, ref in zip(opt.slot_names, slot):
                assert opt.slots[name][s].tobytes() == ref.tobytes(), \
                    (step, name, s)


class TestApplyPhase:
    def test_phase2_lr_adam(self):
        cfg = models.registry_lookup(1)
        model = models.build_resnet50("GAP", seed=0)
        opt = optim.make_optimizer(cfg)
        optim.apply_phase(cfg, model, opt, 1)
        assert opt.lr == 0.0001
        optim.apply_phase(cfg, model, opt, 2)
        assert opt.lr == 0.00001

    def test_phase2_lr_sgd(self):
        cfg = models.registry_lookup(4)
        model = models.build_resnet50("MP", seed=0)
        opt = optim.make_optimizer(cfg)
        optim.apply_phase(cfg, model, opt, 2)
        assert opt.lr == 0.001

    def test_phase2_unfreezes_100_layers(self):
        cfg = models.registry_lookup(3)
        model = models.build_resnet50("GAP", seed=0)
        opt = optim.make_optimizer(cfg)
        optim.apply_phase(cfg, model, opt, 2)
        unfrozen = [n for n in model.nodes[:model.backbone_len]
                    if n.layer.trainable]
        assert len(unfrozen) == 100
        # they are the last 100 backbone layer objects
        assert unfrozen == model.nodes[model.backbone_len - 100:
                                       model.backbone_len]


class TestStateRoundTrip:
    def test_slots_serialize_bit_exact(self, tmp_path):
        from pednet import checkpoint as ckpt

        cfg = models.registry_lookup(8)
        model = models.build_custom_cnn("MP", seed=3)
        opt = optim.make_optimizer(cfg)
        x = np.random.default_rng(0).random((4, 99, 99, 3), np.float32)
        from pednet.data import one_hot
        from pednet.train import cross_entropy_loss
        y = one_hot([0, 1, 2, 3])
        for _ in range(2):
            probs = model.forward(x, train=True,
                                  rng=np.random.default_rng(1))
            _, g = cross_entropy_loss(probs, y,
                                      logits=model.nodes[-1].layer.logits)
            model.zero_grads()
            model.backward(g)
            opt.step(model)
        path = tmp_path / "m.pdcn"
        ckpt.save_model(path, model, cfg, optimizer=opt)
        _, _, opt2, _ = ckpt.restore_model(path)
        assert opt2.t == opt.t
        assert opt2.lr == opt.lr
        for name, slot in opt.slots.items():
            for sname, arr in slot.items():
                assert np.array_equal(opt2.slots[name][sname], arr)
