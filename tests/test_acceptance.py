"""Acceptance gate: one criterion per test, one verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v`; the verdict lines appear in
the "acceptance criteria" section of the terminal summary.
"""

import hashlib
import os
import shutil

import numpy as np
import pytest

from pednet import checkpoint as ckpt
from pednet import data, layers, metrics, models, optim
from pednet import train as engine
from pednet.data import one_hot
from pednet.train import TrainConfig

import conftest
from conftest import make_synthetic_corpus, synthetic_arrays
from test_layers import finite_difference_check
from test_metrics import brute_force_ap, brute_force_metrics
from test_models import TABLE1_COUNTS


def _verdict(cid: str, desc: str, body):
    try:
        body()
    except BaseException:
        conftest.ACCEPTANCE_RESULTS.append(f"{cid} FAIL  {desc}")
        raise
    conftest.ACCEPTANCE_RESULTS.append(f"{cid} PASS  {desc}")


def _tree_digest(root) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def test_a1_parameter_counts():
    def body():
        for model_id, expected in TABLE1_COUNTS.items():
            model = models.build_model(models.registry_lookup(model_id),
                                       seed=0)
            _, total, trainable = model.summary()
            assert (total, trainable) == expected, model_id

    _verdict("A1", "all eight models match the reference parameter counts "
             "exactly", body)


def test_a2_gradient_checks():
    rng = np.random.default_rng(0)

    def body():
        cases = [
            (layers.Conv2D(3, 3, 2, stride=1, seed=1, dtype=np.float64),
             rng.standard_normal((2, 5, 5, 2))),
            (layers.Conv2D(2, 3, 2, stride=2, seed=2, dtype=np.float64),
             rng.standard_normal((1, 5, 5, 2))),
            (layers.BatchNorm(2, dtype=np.float64),
             rng.standard_normal((3, 2, 2, 2))),
            (layers.MaxPool2D(2, 2), rng.standard_normal((2, 6, 6, 2))),
            (layers.ReLU(), rng.standard_normal((3, 4)) + 0.1),
            (layers.GlobalAvgPool(), rng.standard_normal((2, 3, 3, 2))),
            (layers.Dense(3, 5, seed=3, dtype=np.float64),
             rng.standard_normal((4, 5))),
            (layers.Softmax(), rng.standard_normal((3, 6))),
        ]
        for layer, x in cases:
            finite_difference_check(layer, x)

    _verdict("A2", "analytic gradients match float64 finite differences "
             "(rtol 1e-4, atol 1e-6)", body)


@pytest.mark.slow
def test_a3_learnability(synthetic_120):
    x, y, _ = synthetic_120

    def body():
        cfg = models.registry_lookup(8)
        model = models.build_model(cfg, seed=0)
        tc = TrainConfig(seed=0, max_epochs_phase1=15, patience=15)
        history = engine.train(model, cfg, tc, x, y, x, y)
        hits = [r for r in history.records
                if r.train_acc >= 0.9 and r.epoch <= 30]
        assert hits, [r.train_acc for r in history.records]

    _verdict("A3", "model 8 reaches 90% train accuracy within 30 epochs "
             "on the 120-image synthetic corpus", body)


def test_a4_metrics_oracle():
    rng = np.random.default_rng(1)

    def body():
        for _ in range(200):
            n = int(rng.integers(1, 60))
            y_true = rng.integers(0, 6, n).tolist()
            y_pred = rng.integers(0, 6, n).tolist()
            cm = metrics.confusion(y_true, y_pred)
            acc, prec, rec, f1, support, macro, weighted = \
                brute_force_metrics(y_true, y_pred)
            assert abs(metrics.accuracy(cm) - acc) <= 1e-12
            per = metrics.per_class(cm)
            for c in range(6):
                assert abs(per.precision[c] - prec[c]) <= 1e-12
                assert abs(per.recall[c] - rec[c]) <= 1e-12
                assert abs(per.f1[c] - f1[c]) <= 1e-12
                assert per.support[c] == support[c]
            got_macro, got_weighted = metrics.aggregate(per)
            for key in ("precision", "recall", "f1"):
                assert abs(got_macro[key] - macro[key]) <= 1e-12
                assert abs(got_weighted[key] - weighted[key]) <= 1e-12

    _verdict("A4", "metrics agree with the counting oracle within 1e-12",
             body)


def test_a5_pr_auc_properties():
    rng = np.random.default_rng(2)

    def body():
        # a perfect separator scores AP exactly 1 for every class
        y = np.array([0, 1, 2, 3, 4, 5] * 3)
        scores = one_hot(y).astype(np.float64) * 0.94 + 0.01
        for c in range(6):
            curve = metrics.pr_curve(scores, y, c)
            assert curve.average_precision == 1.0
        # constant scores give AP equal to class prevalence
        flat = np.full((18, 6), 1 / 6)
        for c in range(6):
            curve = metrics.pr_curve(flat, y, c)
            assert abs(curve.average_precision - 3 / 18) <= 1e-12
        # AP is invariant under strictly monotone score transforms and
        # matches the brute-force threshold sweep; always within [0, 1]
        for _ in range(25):
            n = int(rng.integers(4, 40))
            yy = rng.integers(0, 6, n)
            yy[0] = 0  # keep class 0 populated
            ss = rng.random((n, 6))
            base = metrics.pr_curve(ss, yy, 0)
            want = brute_force_ap(ss[:, 0].tolist(), (yy == 0).tolist())
            assert abs(base.average_precision - want) <= 1e-12
            assert 0.0 <= base.average_precision <= 1.0
            for f in (lambda s: 3 * s + 1, np.exp,
                      lambda s: np.log(s + 1e-9)):
                tt = ss.copy()
                tt[:, 0] = f(ss[:, 0])
                got = metrics.pr_curve(tt, yy, 0)
                assert abs(got.average_precision
                           - base.average_precision) <= 1e-12
        # classes without positives are excluded from the macro average
        yy = np.array([0, 0, 1, 1])
        ss = rng.random((4, 6))
        curves = {name: metrics.pr_curve(ss, yy, c)
                  for c, name in enumerate(models.CLASS_NAMES)}
        _, undefined = metrics.macro_pr_auc(curves)
        assert set(undefined) == set(models.CLASS_NAMES[2:])

    _verdict("A5", "PR-AUC matches the threshold-sweep oracle and its "
             "invariants hold", body)


@pytest.mark.slow
def test_a6_split_and_balance(tmp_path):
    counts = {0: 700, 1: 90, 2: 40, 3: 30, 4: 25, 5: 20}
    expected_split = {  # floor(n*.7) / floor(n*.2) / remainder
        0: (490, 140, 70), 1: (63, 18, 9), 2: (28, 8, 4),
        3: (21, 6, 3), 4: (17, 5, 3), 5: (14, 4, 2),
    }
    target = 50

    def body():
        records = []
        sid = 0
        for c, n in counts.items():
            name = models.CLASS_NAMES[c]
            small = n < 100  # only minority-class crops are materialized
            for _ in range(n):
                sid += 1
                path = str(tmp_path / f"crop_{sid:05d}.ppm")
                if small:
                    img = (conftest.CLASS_COLORS[c]
                           * np.ones((99, 99, 3), np.float32))
                    data.write_ppm(path, img)
                records.append(data.SampleRecord(path, name, "train",
                                                 "original", sid))
        manifest = data.stratified_split(records, seed=0)
        for c, (n_train, n_val, n_test) in expected_split.items():
            name = models.CLASS_NAMES[c]
            assert manifest.per_class_counts("train")[name] == n_train
            assert manifest.per_class_counts("val")[name] == n_val
            assert manifest.per_class_counts("test")[name] == n_test
        balanced = data.balance_train(manifest, target, seed=0,
                                      aug_dir=str(tmp_path / "aug"))
        for c in counts:
            name = models.CLASS_NAMES[c]
            train_samples = [s for s in balanced.split_samples("train")
                             if s.class_name == name]
            assert len(train_samples) == target
            n_aug = sum(1 for s in train_samples if s.origin == "augmented")
            assert n_aug == max(0, target - expected_split[c][0])
            # non-train splits are untouched by balancing
            for split, idx in (("val", 1), ("test", 2)):
                assert balanced.per_class_counts(split)[name] == \
                    expected_split[c][idx]
                assert all(s.origin == "original"
                           for s in balanced.split_samples(split))

    _verdict("A6", "stratified split and balancing hit the exact integer "
             "counts for {700,90,40,30,25,20} at target 50", body)


@pytest.mark.slow
def test_a7_determinism(tmp_path):
    def body():
        # preparation is byte-identical when rerun at the same path
        corpus = tmp_path / "corpus"
        ann, frames = make_synthetic_corpus(str(corpus), [8, 6, 6, 5, 5, 4])
        work = str(tmp_path / "work")
        digests = []
        for _ in range(2):
            if os.path.exists(work):
                shutil.rmtree(work)
            data.prepare_dataset(ann, frames, work, target=6, seed=0)
            digests.append(_tree_digest(work))
        assert digests[0] == digests[1]

        # a full training run reproduces the checkpoint byte for byte
        cfg = models.registry_lookup(8)
        x, y, _ = synthetic_arrays(per_class=2, seed=3)
        blobs = []
        for run in range(2):
            model = models.build_model(cfg, seed=0)
            tc = TrainConfig(seed=0, max_epochs_phase1=2, patience=5)
            history = engine.train(model, cfg, tc, x, y, x, y)
            path = tmp_path / f"run{run}.pdcn"
            ckpt.save_model(path, model, cfg,
                            optimizer=optim.make_optimizer(cfg),
                            history=history)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

        # save -> load -> save round-trips byte for byte
        first = tmp_path / "run0.pdcn"
        restored, cfg2, opt2, _ = ckpt.restore_model(first)
        resaved = tmp_path / "resave.pdcn"
        ckpt.write_checkpoint(resaved, ckpt.read_checkpoint(first).meta,
                              ckpt.model_tensors(restored, opt2))
        assert resaved.read_bytes() == blobs[0]

    _verdict("A7", "prepare and train are byte-identical across reruns and "
             "checkpoints round-trip exactly", body)


def test_a8_phase_two_mechanics():
    def body():
        for model_id, lr1, lr2 in ((1, 0.0001, 0.00001), (3, 0.01, 0.001)):
            cfg = models.registry_lookup(model_id)
            assert (cfg.lr_initial, cfg.lr_finetune) == (lr1, lr2)
            model = models.build_model(cfg, seed=0)
            opt = optim.make_optimizer(cfg)
            opt = optim.apply_phase(cfg, model, opt, 1)
            assert opt.lr == lr1
            assert all(not n.layer.trainable
                       for n in model.nodes[:model.backbone_len])
            before = {name: layer.params[p].tobytes()
                      for name, layer, p in model.named_params()}
            opt = optim.apply_phase(cfg, model, opt, 2)
            assert opt.lr == lr2
            unfrozen = sum(1 for n in model.nodes[:model.backbone_len]
                           if n.layer.trainable)
            assert unfrozen == 100
            after = {name: layer.params[p].tobytes()
                     for name, layer, p in model.named_params()}
            assert before == after

    _verdict("A8", "phase 2 switches the learning rate, unfreezes exactly "
             "100 backbone layers, and leaves parameters bitwise unchanged",
             body)
