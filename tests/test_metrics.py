import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pednet import metrics
from pednet.errors import MetricError
from pednet.models import CLASS_NAMES, NUM_CLASSES

FA, FC, FT, MA, MC, MT = range(6)


def brute_force_metrics(y_true, y_pred):
    """Independent counting oracle for accuracy / P / R / F1 / averages."""
    n = len(y_true)
    acc = sum(1 for t, p in zip(y_true, y_pred) if t == p) / n
    precision, recall, f1, support = [], [], [], []
    for c in range(NUM_CLASSES):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        precision.append(prec)
        recall.append(rec)
        f1.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        support.append(sum(1 for t in y_true if t == c))
    macro = {k: sum(v) / NUM_CLASSES
             for k, v in (("precision", precision), ("recall", recall),
                          ("f1", f1))}
    tot = sum(support)
    weighted = {k: sum(s * x for s, x in zip(support, v)) / tot
                for k, v in (("precision", precision), ("recall", recall),
                             ("f1", f1))}
    return acc, precision, recall, f1, support, macro, weighted


def brute_force_ap(scores_c, y_is_pos):
    """Enumerate the threshold sweep directly."""
    thresholds = sorted(set(scores_c), reverse=True)
    ap, prev_r = 0.0, 0.0
    n_pos = sum(y_is_pos)
    for th in thresholds:
        pred = [s >= th for s in scores_c]
        tp = sum(1 for p, y in zip(pred, y_is_pos) if p and y)
        prec = tp / sum(pred)
        rec = tp / n_pos
        ap += (rec - prev_r) * prec
        prev_r = rec
    return ap


class TestConfusion:
    def test_all_correct(self):
        y = [0, 1, 2, 3, 4, 5] * 2
        cm = metrics.confusion(y, y)
        assert np.trace(cm) == 12
        assert cm.sum() == 12

    def test_hand_count(self):
        cm = metrics.confusion([MA, MA, FA], [MA, FA, FA])
        assert cm[MA, MA] == 1
        assert cm[MA, FA] == 1
        assert cm[FA, FA] == 1
        assert cm.sum() == 3

    def test_single_sample(self):
        cm = metrics.confusion([2], [4])
        assert cm.sum() == 1 and cm[2, 4] == 1

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            metrics.confusion([0, 1], [0])


class TestAccuracy:
    def test_perfect(self):
        cm = np.diag([2, 2, 2, 2, 2, 2])
        assert metrics.accuracy(cm) == 1.0

    def test_trace_over_total(self):
        cm = np.zeros((6, 6), dtype=int)
        cm[0, 0] = 84
        cm[0, 1] = 16
        assert metrics.accuracy(cm) == 0.84

    def test_empty(self):
        with pytest.raises(MetricError):
            metrics.accuracy(np.zeros((6, 6), dtype=int))


class TestPerClass:
    def test_absent_class_zeros(self):
        cm = np.zeros((6, 6), dtype=int)
        cm[0, 0] = 5
        pcm = metrics.per_class(cm)
        assert pcm.precision[1] == pcm.recall[1] == pcm.f1[1] == 0.0
        assert pcm.support[1] == 0

    def test_hand_case(self):
        # class 0: TP=3, FP=1, FN=2
        cm = np.zeros((6, 6), dtype=int)
        cm[0, 0] = 3
        cm[1, 0] = 1
        cm[0, 1] = 2
        pcm = metrics.per_class(cm)
        assert np.isclose(pcm.precision[0], 0.75)
        assert np.isclose(pcm.recall[0], 0.6)
        assert np.isclose(pcm.f1[0], 2 * 0.45 / 1.35)

    def test_perfect_class(self):
        cm = np.diag([4] * 6)
        pcm = metrics.per_class(cm)
        assert pcm.precision[3] == pcm.recall[3] == pcm.f1[3] == 1.0


class TestAggregate:
    def test_symmetry(self):
        pcm = metrics.PerClassMetrics((0.7,) * 6, (0.7,) * 6, (0.7,) * 6,
                                      (5, 4, 3, 2, 1, 6))
        macro, weighted = metrics.aggregate(pcm)
        assert np.isclose(macro["precision"], 0.7)
        assert np.isclose(weighted["precision"], 0.7)

    def test_two_class_toy(self):
        # P = (1.0, 0.5) with supports (90, 10), other classes empty
        pcm = metrics.PerClassMetrics(
            (1.0, 0.5, 0, 0, 0, 0), (0,) * 6, (0,) * 6, (90, 10, 0, 0, 0, 0))
        macro, weighted = metrics.aggregate(pcm)
        assert np.isclose(macro["precision"], 1.5 / 6)
        assert np.isclose(weighted["precision"], 0.95)

    def test_zero_support_error(self):
        pcm = metrics.PerClassMetrics((0,) * 6, (0,) * 6, (0,) * 6, (0,) * 6)
        with pytest.raises(MetricError):
            metrics.aggregate(pcm)


def scores_for(positions, n, class_index=0):
    """Score matrix where `positions` rank highest on class_index."""
    rng = np.random.default_rng(0)
    s = np.zeros((n, NUM_CLASSES))
    ranks = np.linspace(0.9, 0.1, n)
    order = list(positions) + [i for i in range(n) if i not in positions]
    for rank, idx in zip(ranks, order):
        s[idx, class_index] = rank
    s[:, 1] = 1 - s[:, class_index]
    return s


class TestPRCurve:
    def test_perfect_separator(self):
        scores = scores_for([0, 1], 6)
        y = [0, 0, 1, 1, 1, 1]
        curve = metrics.pr_curve(scores, y, 0)
        assert curve.average_precision == 1.0

    def test_constant_scores_ap_is_prevalence(self):
        scores = np.full((8, NUM_CLASSES), 1 / NUM_CLASSES)
        y = [0, 0, 1, 1, 1, 1, 1, 1]
        curve = metrics.pr_curve(scores, y, 0)
        assert curve.average_precision == 0.25

    def test_positives_first_and_third(self):
        # 4 samples, positives ranked 1st and 3rd by score
        scores = np.zeros((4, NUM_CLASSES))
        scores[:, 0] = [0.9, 0.7, 0.5, 0.3]
        scores[:, 1] = 1 - scores[:, 0]
        y = [0, 1, 0, 1]
        curve = metrics.pr_curve(scores, y, 0)
        assert np.isclose(curve.average_precision,
                          0.5 * (1.0 + 2 / 3))

    def test_recall_non_decreasing(self):
        rng = np.random.default_rng(1)
        raw = rng.random((30, NUM_CLASSES))
        scores = raw / raw.sum(axis=1, keepdims=True)
        y = rng.integers(0, NUM_CLASSES, 30)
        for c in range(NUM_CLASSES):
            curve = metrics.pr_curve(scores, y, c)
            assert list(curve.recall) == sorted(curve.recall)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        raw = rng.random((40, NUM_CLASSES))
        scores = raw / raw.sum(axis=1, keepdims=True)
        y = rng.integers(0, NUM_CLASSES, 40)
        base = metrics.pr_curve(scores, y, 2).average_precision
        transforms = [
            lambda s, k=k: s ** (1 + 0.2 * k) for k in range(5)
        ] + [
            lambda s: 2 * s + 1,
            lambda s: np.exp(s),
            lambda s: np.log(s + 1),
            lambda s: np.tanh(3 * s),
            lambda s: s / (1 + s),
        ]
        for fn in transforms:
            t = scores.copy()
            t[:, 2] = fn(scores[:, 2])
            got = metrics.pr_curve(t, y, 2).average_precision
            assert abs(got - base) < 1e-12

    def test_zero_positives_ap_is_none(self):
        scores = np.full((4, NUM_CLASSES), 1 / NUM_CLASSES)
        curve = metrics.pr_curve(scores, [1, 1, 2, 3], 0)
        assert curve.average_precision is None

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        raw = rng.random((25, NUM_CLASSES))
        scores = raw / raw.sum(axis=1, keepdims=True)
        y = rng.integers(0, NUM_CLASSES, 25)
        for c in range(NUM_CLASSES):
            if not np.any(y == c):
                continue
            want = brute_force_ap(list(scores[:, c]), list(y == c))
            got = metrics.pr_curve(scores, y, c).average_precision
            assert abs(got - want) < 1e-12


class TestOracleEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_label_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 200))
        y_true = rng.integers(0, NUM_CLASSES, n)
        y_pred = rng.integers(0, NUM_CLASSES, n)
        cm = metrics.confusion(y_true, y_pred)
        pcm = metrics.per_class(cm)
        macro, weighted = metrics.aggregate(pcm)
        acc, prec, rec, f1, support, bmacro, bweighted = \
            brute_force_metrics(list(y_true), list(y_pred))
        assert abs(metrics.accuracy(cm) - acc) < 1e-12
        for c in range(NUM_CLASSES):
            assert abs(pcm.precision[c] - prec[c]) < 1e-12
            assert abs(pcm.recall[c] - rec[c]) < 1e-12
            assert abs(pcm.f1[c] - f1[c]) < 1e-12
            assert pcm.support[c] == support[c]
        for k in ("precision", "recall", "f1"):
            assert abs(macro[k] - bmacro[k]) < 1e-12
            assert abs(weighted[k] - bweighted[k]) < 1e-12
        # micro identity: accuracy == weighted recall
        assert abs(metrics.accuracy(cm) - weighted["recall"]) < 1e-12


class TestInvariances:
    def test_macro_invariant_under_class_permutation(self):
        rng = np.random.default_rng(4)
        y_true = rng.integers(0, NUM_CLASSES, 100)
        y_pred = rng.integers(0, NUM_CLASSES, 100)
        perm = rng.permutation(NUM_CLASSES)
        macro_a, _ = metrics.aggregate(
            metrics.per_class(metrics.confusion(y_true, y_pred)))
        macro_b, _ = metrics.aggregate(
            metrics.per_class(metrics.confusion(perm[y_true], perm[y_pred])))
        for k in macro_a:
            assert abs(macro_a[k] - macro_b[k]) < 1e-12

    def test_weighted_invariant_under_sample_permutation(self):
        rng = np.random.default_rng(5)
        y_true = rng.integers(0, NUM_CLASSES, 80)
        y_pred = rng.integers(0, NUM_CLASSES, 80)
        order = rng.permutation(80)
        _, w_a = metrics.aggregate(
            metrics.per_class(metrics.confusion(y_true, y_pred)))
        _, w_b = metrics.aggregate(
            metrics.per_class(metrics.confusion(y_true[order],
                                                y_pred[order])))
        for k in w_a:
            assert abs(w_a[k] - w_b[k]) < 1e-12


class TestReport:
    def _report(self):
        rng = np.random.default_rng(6)
        raw = rng.random((60, NUM_CLASSES))
        preds = raw / raw.sum(axis=1, keepdims=True)
        y = rng.integers(0, NUM_CLASSES, 60)
        return metrics.build_report(8, preds, y)

    def test_perfect_predictor(self):
        y = np.array(list(range(6)) * 3)
        preds = np.full((18, 6), 0.02)
        preds[np.arange(18), y] = 0.9
        report = metrics.build_report(4, preds, y)
        assert report.accuracy == 1.0
        assert report.pr_auc_macro == 1.0
        assert np.array_equal(report.confusion_matrix, np.diag([3] * 6))

    def test_row_not_summing_to_one_rejected(self):
        y = np.array(list(range(6)))
        preds = np.full((6, 6), 1 / 6)
        preds[3, 0] += 1e-4
        with pytest.raises(MetricError, match="sum to 1"):
            metrics.build_report(8, preds, y)

    def test_structure_mirrors_tables(self):
        report = self._report()
        assert len(report.per_class.precision) == 6
        assert set(report.macro_avg) == {"precision", "recall", "f1"}
        assert set(report.weighted_avg) == {"precision", "recall", "f1"}
        assert set(report.pr_curves) == set(CLASS_NAMES)

    def test_serialization_round_trip(self):
        report = self._report()
        doc = json.loads(metrics.report_to_json(report))
        assert abs(doc["accuracy"] - report.accuracy) < 1e-9
        assert doc["confusion_matrix"] == report.confusion_matrix.tolist()
        for i, name in enumerate(CLASS_NAMES):
            assert abs(doc["per_class"][name]["f1"]
                       - report.per_class.f1[i]) < 1e-9
        assert abs(doc["pr_auc_macro"] - report.pr_auc_macro) < 1e-9

    def test_pr_csv_has_six_class_sections(self):
        csv = metrics.pr_curves_to_csv(self._report())
        for name in CLASS_NAMES:
            assert f"\n{name}," in "\n" + csv
