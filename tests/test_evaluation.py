import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hdrkit.evaluation import ConfusionCounts, MetricsRow, aggregate, confusion, metrics


def brute_force_metrics(tp, fp, tn, fn):
    """Independent implementation: exact rational rates converted to the
    nearest double per term (each ratio is the correctly-rounded value any
    faithful evaluation of that term must produce)."""
    total = tp + fp + tn + fn
    err = float(Fraction(fn + fp, total))
    fnr = float(Fraction(fn, fn + tp)) if fn + tp else 0.0
    fpr = float(Fraction(fp, fp + tn)) if fp + tn else 0.0
    f1_pos = float(Fraction(2 * tp, 2 * tp + fp + fn)) if 2 * tp + fp + fn else 0.0
    f1_neg = float(Fraction(2 * tn, 2 * tn + fp + fn)) if 2 * tn + fp + fn else 0.0
    rad = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = (tp * tn - fp * fn) / math.sqrt(rad) if rad > 0 else 0.0
    return err, fpr, fnr, 1.0 - err, f1_pos + f1_neg, mcc


class TestConfusion:
    def test_perfect_prediction(self):
        truth = np.array([True] * 95 + [False] * 5)
        c = confusion(truth, truth)
        assert (c.tp, c.tn, c.fp, c.fn) == (5, 95, 0, 0)

    def test_all_inside_prediction(self):
        truth = np.array([True] * 95 + [False] * 5)
        pred = np.ones(100, dtype=bool)
        c = confusion(pred, truth)
        assert (c.tp, c.tn, c.fp, c.fn) == (0, 95, 0, 5)

    def test_complement_prediction(self):
        rng = np.random.default_rng(0)
        truth = rng.random(200) < 0.9
        c = confusion(~truth, truth)
        assert c.tp == 0 and c.tn == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.array([True]), np.array([True, False]))

    def test_total_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 300))
            pred = rng.random(n) < rng.random()
            truth = rng.random(n) < rng.random()
            assert confusion(pred, truth).total == n


    def test_matches_four_mask_counts(self):
        def four_masks(p, t):
            return tuple(int(np.count_nonzero(m)) for m in (~p & ~t, ~p & t, p & t, p & ~t))

        rng = np.random.default_rng(2)
        pairs = [(rng.random(n) < rng.random(), rng.random(n) < rng.random()) for n in rng.integers(1, 400, 50)]
        ones, zeros = np.ones(120, dtype=bool), np.zeros(120, dtype=bool)
        half = np.arange(120) < 60
        pairs += [(ones, ones), (zeros, zeros), (ones, zeros), (zeros, ones), (half, ~half), (~half, half)]
        for pred, truth in pairs:
            c = confusion(pred, truth)
            assert (c.tp, c.fp, c.tn, c.fn) == four_masks(pred, truth)


class TestMetrics:
    def test_worked_example(self):
        row = metrics(ConfusionCounts(tp=3, fp=5, tn=90, fn=2))
        assert_allclose(row.err, 0.07, rtol=1e-12)
        assert_allclose(row.fpr, 5.0 / 95.0, rtol=1e-12)
        assert_allclose(row.fnr, 0.4, rtol=1e-12)
        assert_allclose(row.f1, 6.0 / 13.0 + 180.0 / 187.0, rtol=1e-12)
        assert_allclose(row.f1, 1.4241, atol=1e-4)
        assert_allclose(row.mcc, 260.0 / 349600.0 ** 0.5, rtol=1e-12)
        assert_allclose(row.mcc, 0.43975, atol=1e-4)

    def test_perfect(self):
        row = metrics(ConfusionCounts(tp=5, fp=0, tn=95, fn=0))
        assert row.err == 0.0 and row.f1 == 2.0 and row.mcc == 1.0

    def test_degenerate_guards(self):
        row = metrics(ConfusionCounts(tp=0, fp=0, tn=100, fn=0))
        assert row.mcc == 0.0
        assert row.f1 == 1.0
        assert row.fnr == 0.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            metrics(ConfusionCounts(0, 0, 0, 0))

    def test_matches_brute_force_on_random_tables(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            tp, fp, tn, fn = (int(v) for v in rng.integers(0, 50, size=4))
            if tp + fp + tn + fn == 0:
                continue
            row = metrics(ConfusionCounts(tp, fp, tn, fn))
            assert row.as_tuple() == brute_force_metrics(tp, fp, tn, fn)

    def test_err_accuracy_complement(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            tp, fp, tn, fn = (int(v) for v in rng.integers(0, 40, size=4))
            if tp + fp + tn + fn == 0:
                continue
            row = metrics(ConfusionCounts(tp, fp, tn, fn))
            assert row.err + row.accuracy == 1.0

    def test_mcc_antisymmetry_under_complement(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(10, 200))
            pred = rng.random(n) < rng.random()
            truth = rng.random(n) < rng.random()
            a = metrics(confusion(pred, truth))
            b = metrics(confusion(~pred, truth))
            ca, cb = confusion(pred, truth), confusion(~pred, truth)
            guards = 0 in (
                (ca.tp + ca.fp) * (ca.tp + ca.fn) * (ca.tn + ca.fp) * (ca.tn + ca.fn),
                (cb.tp + cb.fp) * (cb.tp + cb.fn) * (cb.tn + cb.fp) * (cb.tn + cb.fn),
            )
            if guards:
                continue
            assert_allclose(a.mcc, -b.mcc, rtol=1e-10)
            checked += 1

    def test_f1_ranges(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            tp, fp, tn, fn = (int(v) for v in rng.integers(0, 60, size=4))
            if tp + fp + tn + fn == 0:
                continue
            row = metrics(ConfusionCounts(tp, fp, tn, fn))
            assert 0.0 <= row.f1 <= 2.0


class TestAggregate:
    def test_mean_and_sd(self):
        rows = [MetricsRow(0.0, 0, 0, 1.0, 2.0, 1.0), MetricsRow(0.2, 0, 0, 0.8, 1.0, 0.5)]
        agg = aggregate(rows)
        assert_allclose(agg["err"][0], 0.1, rtol=1e-12)
        assert_allclose(agg["err"][1], np.std([0.0, 0.2], ddof=1), rtol=1e-12)

    def test_identical_rows_zero_sd(self):
        rows = [MetricsRow(0.1, 0.2, 0.3, 0.9, 1.5, 0.8)] * 1000
        agg = aggregate(rows)
        for name in agg:
            assert agg[name][1] == 0.0

    def test_single_row_errors(self):
        with pytest.raises(ValueError):
            aggregate([MetricsRow(0, 0, 0, 1, 2, 1)])
