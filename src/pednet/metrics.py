"""Confusion matrix, precision/recall/F1, macro/weighted averages, PR curves.

All functions are pure; rows of the confusion matrix are true classes and
columns are predicted classes, in the fixed alphabetical class order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MetricError
from .models import CLASS_NAMES, NUM_CLASSES


@dataclass(frozen=True)
class PerClassMetrics:
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    support: tuple[int, ...]


@dataclass(frozen=True)
class PRCurve:
    recall: tuple[float, ...]
    precision: tuple[float, ...]
    thresholds: tuple[float, ...]
    average_precision: float | None  # None when the class has no positives


@dataclass
class MetricsReport:
    model_id: int
    accuracy: float
    confusion_matrix: np.ndarray
    per_class: PerClassMetrics
    macro_avg: dict[str, float]
    weighted_avg: dict[str, float]
    pr_curves: dict[str, PRCurve]
    pr_auc_macro: float
    undefined_ap_classes: tuple[str, ...]


def confusion(y_true, y_pred) -> np.ndarray:
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or len(y_true) == 0:
        raise MetricError("y_true and y_pred must be equal-length, non-empty")
    if y_true.min() < 0 or y_true.max() >= NUM_CLASSES \
            or y_pred.min() < 0 or y_pred.max() >= NUM_CLASSES:
        raise MetricError(f"labels must be in [0,{NUM_CLASSES})")
    cm = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def accuracy(cm: np.ndarray) -> float:
    total = int(cm.sum())
    if total == 0:
        raise MetricError("empty confusion matrix")
    return float(np.trace(cm)) / total


def per_class(cm: np.ndarray) -> PerClassMetrics:
    tp = np.diag(cm).astype(float)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    # zero-denominator convention: metric is 0
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2 * precision * recall / denom, 0.0)
    return PerClassMetrics(tuple(precision), tuple(recall), tuple(f1),
                           tuple(int(s) for s in cm.sum(axis=1)))


def aggregate(metrics: PerClassMetrics) -> tuple[dict, dict]:
    """(macro, weighted) averages of precision/recall/f1 over all classes."""
    support = np.asarray(metrics.support, dtype=float)
    total = support.sum()
    macro, weighted = {}, {}
    for name in ("precision", "recall", "f1"):
        vals = np.asarray(getattr(metrics, name))
        macro[name] = float(vals.mean())
        if total == 0:
            raise MetricError("weighted average undefined with zero support")
        weighted[name] = float((support * vals).sum() / total)
    return macro, weighted


def pr_curve(scores, y_true, class_index: int) -> PRCurve:
    """One-vs-rest precision/recall sweep over descending score thresholds.

    Average precision is the step integral sum((R_k - R_{k-1}) * P_k); for a
    class with no positives it is None. AP depends only on the ranking of
    the class column, so monotonically transformed scores that no longer
    sum to 1 give the same AP.
    """
    scores = np.asarray(scores, dtype=float)
    y_true = np.asarray(y_true, dtype=int)
    if scores.ndim != 2 or scores.shape[1] != NUM_CLASSES \
            or scores.shape[0] != len(y_true):
        raise MetricError(f"scores must be (N,{NUM_CLASSES}) matching y_true")
    s = scores[:, class_index]
    pos = (y_true == class_index)
    n_pos = int(pos.sum())
    thresholds = np.unique(s)[::-1]
    recalls, precisions = [], []
    for th in thresholds:
        predicted = s >= th
        tp = int((predicted & pos).sum())
        precisions.append(tp / int(predicted.sum()))
        recalls.append(tp / n_pos if n_pos else 0.0)
    ap = None
    if n_pos:
        ap = 0.0
        prev_r = 0.0
        for r, p in zip(recalls, precisions):
            ap += (r - prev_r) * p
            prev_r = r
    return PRCurve(tuple(recalls), tuple(precisions),
                   tuple(float(t) for t in thresholds),
                   float(ap) if ap is not None else None)


def macro_pr_auc(curves: dict[str, PRCurve]) -> tuple[float, tuple[str, ...]]:
    """Unweighted mean AP over classes; zero-positive classes are excluded
    and reported back by name."""
    defined = [c.average_precision for c in curves.values()
               if c.average_precision is not None]
    undefined = tuple(name for name, c in curves.items()
                      if c.average_precision is None)
    if not defined:
        raise MetricError("no class has positives; macro PR-AUC undefined")
    return float(np.mean(defined)), undefined


def build_report(model_id: int, predictions, y_true) -> MetricsReport:
    """Assemble the full report from softmax outputs and true classes.

    Predicted class is the argmax with ties broken toward the lowest index.
    """
    predictions = np.asarray(predictions, dtype=float)
    y_true = np.asarray(y_true, dtype=int)
    if np.any(np.abs(predictions.sum(axis=1) - 1.0) > 1e-5):
        raise MetricError("prediction rows must sum to 1 within 1e-5")
    y_pred = predictions.argmax(axis=1)  # argmax takes the first (lowest) max
    cm = confusion(y_true, y_pred)
    pcm = per_class(cm)
    macro, weighted = aggregate(pcm)
    curves = {name: pr_curve(predictions, y_true, i)
              for i, name in enumerate(CLASS_NAMES)}
    auc, undefined = macro_pr_auc(curves)
    return MetricsReport(
        model_id=model_id,
        accuracy=accuracy(cm),
        confusion_matrix=cm,
        per_class=pcm,
        macro_avg=macro,
        weighted_avg=weighted,
        pr_curves=curves,
        pr_auc_macro=auc,
        undefined_ap_classes=undefined,
    )


def report_to_json(report: MetricsReport) -> str:
    doc = {
        "model_id": report.model_id,
        "accuracy": report.accuracy,
        "confusion_matrix": report.confusion_matrix.tolist(),
        "per_class": {
            name: {
                "precision": report.per_class.precision[i],
                "recall": report.per_class.recall[i],
                "f1": report.per_class.f1[i],
                "support": report.per_class.support[i],
            } for i, name in enumerate(CLASS_NAMES)
        },
        "macro_avg": report.macro_avg,
        "weighted_avg": report.weighted_avg,
        "pr_auc_per_class": {
            name: report.pr_curves[name].average_precision
            for name in CLASS_NAMES
        },
        "pr_auc_macro": report.pr_auc_macro,
        "undefined_ap_classes": list(report.undefined_ap_classes),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def pr_curves_to_csv(report: MetricsReport) -> str:
    lines = ["class,threshold,recall,precision"]
    for name in CLASS_NAMES:
        curve = report.pr_curves[name]
        for th, r, p in zip(curve.thresholds, curve.recall, curve.precision):
            lines.append(f"{name},{th:.9g},{r:.9g},{p:.9g}")
    return "\n".join(lines) + "\n"
