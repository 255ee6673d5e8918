import json
import struct

import numpy as np
import pytest

from pednet import checkpoint as ckpt
from pednet import models, optim
from pednet import tensor as T
from pednet import train as engine
from pednet.data import one_hot
from pednet.errors import CheckpointError, DataError, NumericError, ShapeError
from pednet.train import TrainConfig, cross_entropy_loss

from conftest import synthetic_arrays


class TestCrossEntropy:
    def test_perfect_prediction(self):
        probs = one_hot([2, 4]).astype(np.float64)
        # nudge away from exact 0/1 so log is finite, as softmax would
        probs = probs * (1 - 1e-12) + 1e-12 / 6
        loss, _ = cross_entropy_loss(probs, one_hot([2, 4]).astype(np.float64),
                                     logits=np.log(probs))
        assert loss < 1e-6

    def test_uniform_prediction(self):
        probs = np.full((3, 6), 1 / 6)
        loss, _ = cross_entropy_loss(probs,
                                     one_hot([0, 3, 5]).astype(np.float64),
                                     logits=np.log(probs))
        assert np.isclose(loss, np.log(6), atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((4, 6))
        labels = one_hot([1, 0, 5, 3]).astype(np.float64)

        def loss_of(z):
            e = np.exp(z - z.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            return cross_entropy_loss(p, labels, logits=z)[0]

        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        _, grad = cross_entropy_loss(probs, labels, logits=logits)
        eps = 1e-6
        for i in range(4):
            for j in range(6):
                logits[i, j] += eps
                up = loss_of(logits)
                logits[i, j] -= 2 * eps
                down = loss_of(logits)
                logits[i, j] += eps
                numeric = (up - down) / (2 * eps)
                assert abs(numeric - grad[i, j]) < 1e-6

    def test_degenerate_label_row(self):
        probs = np.full((2, 6), 1 / 6)
        bad = np.zeros((2, 6))
        bad[0, 0] = bad[0, 1] = 1.0  # two hot
        bad[1, 2] = 1.0
        with pytest.raises(DataError):
            cross_entropy_loss(probs, bad, logits=np.log(probs))

    def test_rows_must_sum_to_one(self):
        probs = np.full((1, 6), 0.3)
        with pytest.raises(ShapeError):
            cross_entropy_loss(probs, one_hot([0]).astype(np.float64),
                               logits=np.log(probs))


class TestTrainConfig:
    @pytest.mark.parametrize("caps", [
        {"max_epochs_phase1": 0}, {"max_epochs_phase1": -3},
        {"max_epochs_phase2": -1},
    ], ids=["phase1_zero", "phase1_negative", "phase2_negative"])
    def test_epoch_cap_below_minimum(self, caps):
        with pytest.raises(DataError, match="epoch cap must be"):
            TrainConfig(**caps)

    def test_phase2_cap_zero_is_valid(self):
        assert TrainConfig(max_epochs_phase2=0).max_epochs_phase2 == 0


class TestEvaluate:
    def test_accuracy_one_when_correct(self):
        model = models.build_custom_cnn("GAP", seed=0)
        x, y, _ = synthetic_arrays(per_class=2, seed=0)
        probs = model.forward(x, train=False)
        # relabel to whatever the model predicts -> accuracy 1
        y_pred = one_hot(probs.argmax(axis=1))
        _, acc = engine.evaluate_arrays(model, x, y_pred)
        assert acc == 1.0

    def test_uniform_output_loss_is_ln6(self):
        # freshly built net with zeroed head weights emits uniform rows
        model = models.build_custom_cnn("GAP", seed=0)
        dense2 = next(n.layer for n in model.nodes
                      if n.name == "head_dense2")
        dense2.params["weight"][:] = 0
        dense2.params["bias"][:] = 0
        x, y, _ = synthetic_arrays(per_class=1, seed=1)
        loss, _ = engine.evaluate_arrays(model, x[:1], y[:1])
        assert np.isclose(loss, np.log(6), atol=1e-5)

    def test_batch_size_independence(self):
        model = models.build_custom_cnn("MP", seed=1)
        x, y, _ = synthetic_arrays(per_class=3, seed=2)
        ref = engine.evaluate_arrays(model, x, y, batch_size=18)
        for bs in (1, 5, 8):
            got = engine.evaluate_arrays(model, x, y, batch_size=bs)
            assert np.isclose(got[0], ref[0], atol=1e-6)
            assert got[1] == ref[1]

    def test_empty_split(self):
        model = models.build_custom_cnn("GAP", seed=0)
        with pytest.raises(DataError):
            engine.evaluate_arrays(model, np.zeros((0, 99, 99, 3)),
                                   np.zeros((0, 6)))


class TestEarlyStopping:
    def test_patience_arithmetic(self):
        # validation loss strictly increasing from epoch 3 onward:
        # with patience 10 training stops at epoch 13 with epoch 3 best
        stopper = engine.EarlyStopper(patience=10)
        losses = {1: 0.9, 2: 0.8, 3: 0.5}
        stopped_at = None
        for epoch in range(1, 71):
            loss = losses.get(epoch, 0.5 + 0.01 * epoch)
            if stopper.update(loss):
                stopped_at = epoch
                break
        assert stopped_at == 13
        assert stopper.best == 0.5

    def test_restores_best_weights(self):
        cfg = models.registry_lookup(8)
        model = models.build_model(cfg, seed=1)
        x, y, _ = synthetic_arrays(per_class=4, seed=4)
        tc = TrainConfig(seed=1, max_epochs_phase1=4, patience=10)
        history = engine.train(model, cfg, tc, x, y, x, y)
        best = min(r.val_loss for r in history.records)
        loss, _ = engine.evaluate_arrays(model, x, y)
        assert loss <= best + 1e-6

    # the tensors kept are those of epoch `best`, else of the last epoch
    @pytest.mark.parametrize("val_losses,best,kept", [
        ([0.5, 0.4, 0.9, 1.0], 2, 1), ([np.nan] * 3, -1, -1)])
    def test_restores_best_epoch_tensors(self, monkeypatch, val_losses,
                                         best, kept):
        """The model ends with the exact tensors of its best epoch, or of
        its last epoch when no validation loss was ever finite."""
        cfg = models.registry_lookup(8)
        model = models.build_model(cfg, seed=2)
        x, y, _ = synthetic_arrays(per_class=1, seed=5)
        losses, seen = iter(val_losses), []

        def scripted(*args):
            seen.append({k: v.tobytes() for k, v in
                         ckpt.model_tensors(model).items()})
            return next(losses), 0.0

        monkeypatch.setattr(engine, "evaluate_arrays", scripted)
        tc = TrainConfig(seed=2, max_epochs_phase1=len(val_losses),
                         patience=10)
        history = engine.train(model, cfg, tc, x, y, x, y)
        assert history.best_epoch == best
        assert {k: v.tobytes() for k, v in
                ckpt.model_tensors(model).items()} == seen[kept]

    def test_single_step_decreases_loss(self):
        from pednet import optim

        cfg = models.ModelConfig(8, "custom", "MP", "sgd_momentum",
                                 1e-5, None)
        model = models.build_model(cfg, seed=2)
        x, y, _ = synthetic_arrays(per_class=1, seed=5)
        x, y = x[:1], y[:1]
        opt = optim.make_optimizer(cfg)
        probs = model.forward(x, train=True, rng=np.random.default_rng(0))
        before, g = cross_entropy_loss(probs, y,
                                       logits=model.nodes[-1].layer.logits)
        model.zero_grads()
        model.backward(g)
        opt.step(model)
        after, _ = engine.evaluate_arrays(model, x, y)
        assert after < before


def reference_pack_tensor(name, arr):
    """A tensor table entry as the checkpoint writer packed it when each
    tensor went through astype, tobytes and a bytes concatenation."""
    arr = np.ascontiguousarray(arr)
    tags = {"<f4": 0, "<f8": 1}
    nb = name.encode("utf-8")
    head = struct.pack("<H", len(nb)) + nb
    head += struct.pack("<BB", tags[arr.dtype.newbyteorder("<").str],
                        arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.astype(arr.dtype.newbyteorder("<")).tobytes()


def reference_checkpoint(meta, tensors):
    meta_bytes = json.dumps(meta, sort_keys=True,
                            separators=(",", ":")).encode("utf-8")
    return (b"PDCN" + struct.pack("<II", 1, len(meta_bytes)) + meta_bytes
            + struct.pack("<I", len(tensors))
            + b"".join(reference_pack_tensor(k, v)
                       for k, v in tensors.items()))


class TestCheckpoint:
    def test_bytes_match_reference_packing(self, tmp_path):
        cfg = models.registry_lookup(8)
        model = models.build_model(cfg, seed=1)
        opt = optim.make_optimizer(cfg)
        for layer in (n.layer for n in model.nodes):
            for g in layer.grads.values():
                g.fill(0.5)
        opt.step(model)  # every velocity slot exists
        path = tmp_path / "m8.pdcn"
        ckpt.save_model(path, model, cfg, optimizer=opt)
        meta = ckpt.read_checkpoint(path).meta
        assert path.read_bytes() == reference_checkpoint(
            meta, ckpt.model_tensors(model, opt))
        # float64, big-endian and non-contiguous tensors
        rng = np.random.default_rng(0)
        odd = {"f8": rng.standard_normal((3, 2)),
               "be": rng.standard_normal((2, 5)).astype(">f4"),
               "strided": rng.standard_normal((4, 6)).astype(np.float32).T}
        ckpt.write_checkpoint(path, {"k": 1}, odd)
        assert path.read_bytes() == reference_checkpoint({"k": 1}, odd)

    def test_restore_draws_no_weights(self, tmp_path, monkeypatch):
        cfg = models.registry_lookup(8)
        model = models.build_model(cfg, seed=3)
        path = tmp_path / "m8.pdcn"
        ckpt.save_model(path, model, cfg)

        def no_rng(*args, **kwargs):
            raise AssertionError("the restore drew random numbers")

        monkeypatch.setattr(np.random, "Generator", no_rng)
        restored, _, _, _ = ckpt.restore_model(path)
        saved = ckpt.model_tensors(model)
        got = ckpt.model_tensors(restored)
        assert got.keys() == saved.keys()
        for key, arr in got.items():
            assert arr.tobytes() == saved[key].tobytes(), key

    def _trained(self, tmp_path):
        from pednet import optim

        cfg = models.registry_lookup(8)
        model = models.build_model(cfg, seed=4)
        x, y, _ = synthetic_arrays(per_class=2, seed=6)
        tc = TrainConfig(seed=4, max_epochs_phase1=1, patience=5)
        history = engine.train(model, cfg, tc, x, y, x, y)
        opt = optim.make_optimizer(cfg)
        path = tmp_path / "model8.pdcn"
        ckpt.save_model(path, model, cfg, optimizer=opt, history=history)
        return model, cfg, path

    def test_save_load_save_byte_identical(self, tmp_path):
        model, cfg, path = self._trained(tmp_path)
        first = path.read_bytes()
        restored, cfg2, opt2, meta = ckpt.restore_model(path)
        path2 = tmp_path / "again.pdcn"
        ckpt.save_model(path2, restored, cfg2, optimizer=opt2)
        # strip the history fields absent on re-save for a fair comparison
        again = ckpt.read_checkpoint(path2)
        orig = ckpt.read_checkpoint(path)
        assert set(orig.tensors) == set(again.tensors)
        for name in orig.tensors:
            assert orig.tensors[name].tobytes() == \
                again.tensors[name].tobytes()

    def test_identical_resave_with_history(self, tmp_path):
        from pednet import optim

        model, cfg, path = self._trained(tmp_path)
        restored, cfg2, opt2, meta = ckpt.restore_model(path)
        path2 = tmp_path / "resave.pdcn"
        ckpt.write_checkpoint(path2, ckpt.read_checkpoint(path).meta,
                              ckpt.model_tensors(restored, opt2))
        assert path.read_bytes() == path2.read_bytes()

    def test_wrong_magic(self, tmp_path):
        bad = tmp_path / "bad.pdcn"
        bad.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            ckpt.read_checkpoint(bad)

    def test_truncated_tensor_table(self, tmp_path):
        model, cfg, path = self._trained(tmp_path)
        data = path.read_bytes()
        trunc = tmp_path / "trunc.pdcn"
        trunc.write_bytes(data[:len(data) // 2])
        with pytest.raises(CheckpointError):
            ckpt.read_checkpoint(trunc)

    @pytest.mark.parametrize("model_id", range(1, 9))
    def test_every_registry_config_restores(self, tmp_path, model_id):
        # the stored config, once through JSON, still equals the registry's
        cfg = models.registry_lookup(model_id)
        model = models.build_model(cfg, seed=None)
        path = tmp_path / "m.pdcn"
        ckpt.save_model(path, model, cfg)
        restored, cfg2, _, _ = ckpt.restore_model(path)
        assert cfg2 == cfg
        assert [n.layer.trainable for n in restored.nodes] == \
            [n.layer.trainable for n in model.nodes]

    def test_restored_custom_gap_reports_counts(self, tmp_path):
        cfg = models.registry_lookup(5)
        model = models.build_model(cfg, seed=1)
        path = tmp_path / "m5.pdcn"
        ckpt.save_model(path, model, cfg)
        restored, _, _, _ = ckpt.restore_model(path)
        _, total, trainable = restored.summary()
        assert (total, trainable) == (524_998, 524_038)

    def test_restores_config_with_pretrained_null(self, tmp_path):
        # files written while the config had a `pretrained` field
        model, cfg, path = self._trained(tmp_path)
        saved = ckpt.read_checkpoint(path)
        saved.meta["config"]["pretrained"] = None
        old = tmp_path / "old.pdcn"
        ckpt.write_checkpoint(old, saved.meta, saved.tensors)
        restored, cfg2, _, _ = ckpt.restore_model(old)
        assert cfg2 == cfg
        for key, arr in ckpt.model_tensors(restored).items():
            assert arr.tobytes() == saved.tensors[key].tobytes(), key

    def test_restore_missing_tensor(self, tmp_path):
        model, cfg, path = self._trained(tmp_path)
        data = ckpt.read_checkpoint(path)
        cut = tmp_path / "cut.pdcn"
        ckpt.write_checkpoint(cut, data.meta, {
            k: v for k, v in data.tensors.items()
            if not k.startswith("param:block1_")})
        with pytest.raises(CheckpointError,
                           match="missing tensor param:block1_conv.weight"):
            ckpt.restore_model(cut)

    def test_restore_wrong_shape_names_file_and_key(self, tmp_path):
        cfg = models.registry_lookup(8)
        path = tmp_path / "m8.pdcn"
        ckpt.save_model(path, models.build_model(cfg, seed=0), cfg)
        data = ckpt.read_checkpoint(path)
        data.tensors["param:block2_bn.scale"] = np.ones(63, np.float32)
        ckpt.write_checkpoint(path, data.meta, data.tensors)
        with pytest.raises(CheckpointError) as err:
            ckpt.restore_model(path)
        assert str(path) in str(err.value)
        assert "param:block2_bn.scale" in str(err.value)

    def test_restore_preserves_parameters(self, tmp_path):
        model, cfg, path = self._trained(tmp_path)
        restored, _, _, _ = ckpt.restore_model(path)
        for (name, layer, p), (_, rlayer, rp) in zip(
                model.named_params(), restored.named_params()):
            assert np.array_equal(layer.params[p], rlayer.params[rp]), name


class TestHistory:
    def test_epochs_strictly_increasing(self):
        cfg = models.registry_lookup(8)
        model = models.build_model(cfg, seed=5)
        x, y, _ = synthetic_arrays(per_class=2, seed=7)
        tc = TrainConfig(seed=5, max_epochs_phase1=3, patience=10)
        history = engine.train(model, cfg, tc, x, y, x, y)
        epochs = [r.epoch for r in history.records]
        assert epochs == sorted(set(epochs))

    def test_best_epoch_has_min_val_loss(self):
        cfg = models.registry_lookup(8)
        model = models.build_model(cfg, seed=6)
        x, y, _ = synthetic_arrays(per_class=2, seed=8)
        tc = TrainConfig(seed=6, max_epochs_phase1=3, patience=10)
        history = engine.train(model, cfg, tc, x, y, x, y)
        best = min(history.records, key=lambda r: r.val_loss)
        assert history.best_epoch == best.epoch

    def test_csv_export_one_line_per_epoch(self):
        cfg = models.registry_lookup(8)
        model = models.build_model(cfg, seed=7)
        x, y, _ = synthetic_arrays(per_class=2, seed=9)
        tc = TrainConfig(seed=7, max_epochs_phase1=2, patience=10)
        history = engine.train(model, cfg, tc, x, y, x, y)
        lines = history.to_csv().strip().split("\n")
        assert len(lines) == 1 + len(history.records) + 1  # header + trailer

    def test_stop_reason_per_phase(self, monkeypatch):
        # a resnet50 config drives two phases; the custom CNN keeps it fast
        cfg = models.ModelConfig(1, "resnet50", "MP", "sgd_momentum",
                                 1e-3, 1e-4)
        model = models.build_custom_cnn("MP", seed=8)
        x, y, _ = synthetic_arrays(per_class=1, seed=10)
        # phase 1 stops after two worse epochs; phase 2 runs to its cap
        val_losses = iter([1.0, 1.1, 1.2, 0.9, 0.8])
        monkeypatch.setattr(engine, "evaluate_arrays",
                            lambda *args: (next(val_losses), 0.0))
        tc = TrainConfig(seed=8, max_epochs_phase1=5, max_epochs_phase2=2,
                         patience=2)
        history = engine.train(model, cfg, tc, x, y, x, y)
        assert [r.phase for r in history.records] == [1, 1, 1, 2, 2]
        assert history.stop_reasons == ["early_stop", "max_epochs"]
        assert history.best_epoch == 5
        assert history.optimizer.lr == cfg.lr_finetune
        assert history.to_csv().endswith(
            "# best_epoch=5 stop_reasons=early_stop,max_epochs\n")


def poison(model, name, value, from_call=0):
    """Make node `name` write `value` into the first element of its output
    from its `from_call`-th forward call on."""
    layer = next(n.layer for n in model.nodes if n.name == name)
    real, calls = layer.forward, []

    def forward(*args, **kwargs):
        out = real(*args, **kwargs)
        if len(calls) >= from_call:
            out.flat[0] = value
        calls.append(kwargs.get("train"))
        return out

    layer.forward = forward
    return calls


class TestFiniteness:
    def test_nan_names_node_epoch_and_batch(self):
        cfg = models.registry_lookup(8)
        model = models.build_model(cfg, seed=0)
        x, y, _ = synthetic_arrays(per_class=2, seed=3)
        # batch 1's forward and its per-node re-run see the NaN
        calls = poison(model, "block2_bn", np.nan, from_call=1)
        tc = TrainConfig(seed=0, max_epochs_phase1=1, patience=5)
        with pytest.raises(NumericError) as err:
            engine.train(model, cfg, tc, x, y, x, y)
        assert str(err.value) == \
            "non-finite values in block2_bn at epoch 1, batch 1"
        assert calls == [True, True, True]

    @pytest.mark.parametrize("value", [np.nan, np.inf],
                             ids=["nan", "inf"])
    def test_predict_names_node(self, value):
        model = models.build_model(models.registry_lookup(8), seed=0)
        poison(model, "block3_conv", value)
        x, _, _ = synthetic_arrays(per_class=1, seed=3)
        with pytest.raises(NumericError) as err, np.errstate(invalid="ignore"):
            engine.predict(model, x)
        assert str(err.value) == "non-finite values in block3_conv"

    @pytest.mark.parametrize("name", ["block2_bn", "head_dense1"])
    def test_negative_inf_clamped_by_relu_is_not_reported(self, name):
        # the one non-finite value the logits check does not see: a -inf
        # that the next ReLU turns into 0 never reaches the logits
        model = models.build_model(models.registry_lookup(8), seed=0)
        poison(model, name, -np.inf)
        x, _, _ = synthetic_arrays(per_class=1, seed=3)
        probs = model.forward(x, train=False)
        assert np.all(np.isfinite(probs))
        assert np.all(np.isfinite(model.nodes[-1].layer.logits))

    def test_check_finite_once_per_clean_forward(self, monkeypatch):
        contexts = []
        real = T.check_finite

        def counting(x, context="tensor"):
            contexts.append(context)
            return real(x, context)

        monkeypatch.setattr(T, "check_finite", counting)
        model = models.build_model(models.registry_lookup(8), seed=0)
        x, _, _ = synthetic_arrays(per_class=1, seed=3)
        model.forward(x, train=True, rng=np.random.default_rng(0))
        model.forward(x, train=False)
        assert contexts == ["logits", "logits"]
