"""Confusion counting against the true region and the derived metrics.

Convention: *positive* means a point outside the true HDR (an anomaly),
*negative* means inside. Inside-labels are boolean arrays with ``True``
for inside, so positives are the ``False`` entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ConfusionCounts", "MetricsRow", "confusion", "metrics", "aggregate", "METRIC_NAMES"]

METRIC_NAMES = ("err", "fpr", "fnr", "accuracy", "f1", "mcc")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsRow:
    err: float
    fpr: float
    fnr: float
    accuracy: float
    f1: float
    mcc: float

    def as_tuple(self):
        return (self.err, self.fpr, self.fnr, self.accuracy, self.f1, self.mcc)


def confusion(pred_inside, truth_inside) -> ConfusionCounts:
    """Count the four outcomes of predicted vs true inside-labels."""
    p = np.asarray(pred_inside, dtype=bool)
    t = np.asarray(truth_inside, dtype=bool)
    if p.shape != t.shape:
        raise ValueError("label vectors differ in length")
    # three counts give the other cells: inside both, inside the prediction, inside the truth
    tn = int(np.count_nonzero(p & t))
    pred_in = int(np.count_nonzero(p))
    true_in = int(np.count_nonzero(t))
    return ConfusionCounts(p.size - pred_in - true_in + tn, true_in - tn, tn, pred_in - tn)


def metrics(c: ConfusionCounts) -> MetricsRow:
    """Error rates, accuracy, two-sided F1 (range [0, 2]) and MCC.

    Zero-denominator guards: a rate or F1 term with an empty denominator
    contributes 0; MCC is 0 whenever any radicand factor vanishes.
    """
    if c.total <= 0:
        raise ValueError("empty confusion table")
    tp, fp, tn, fn = c.tp, c.fp, c.tn, c.fn
    err = (fn + fp) / c.total
    accuracy = 1.0 - err
    fnr = fn / (fn + tp) if (fn + tp) > 0 else 0.0
    fpr = fp / (fp + tn) if (fp + tn) > 0 else 0.0
    f1_pos = 2.0 * tp / (2.0 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else 0.0
    f1_neg = 2.0 * tn / (2.0 * tn + fp + fn) if (2 * tn + fp + fn) > 0 else 0.0
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = (tp * tn - fp * fn) / math.sqrt(denom) if denom > 0 else 0.0
    return MetricsRow(err, fpr, fnr, accuracy, f1_pos + f1_neg, mcc)


def aggregate(rows):
    """Per-metric mean and sample standard deviation across replicates."""
    rows = list(rows)
    if len(rows) < 2:
        raise ValueError("need at least 2 rows to form a standard deviation")
    arr = np.array([r.as_tuple() for r in rows], dtype=float)
    means = arr.mean(axis=0)
    sds = arr.std(axis=0, ddof=1)
    sds[np.ptp(arr, axis=0) == 0.0] = 0.0  # identical rows: exactly zero, not float dust
    return {name: (float(m), float(s)) for name, m, s in zip(METRIC_NAMES, means, sds)}
