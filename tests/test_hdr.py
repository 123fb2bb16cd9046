import numpy as np
import pytest

from hdrkit.core import Orientation, ScoreVector, threshold_index
from hdrkit.hdr import classify, density_quantile_hdr, estimate_hdr, measure_average


class TestEstimateHdr:
    def test_concentration_1_to_100(self):
        scores = ScoreVector(np.arange(1.0, 101.0), Orientation.CONCENTRATION)
        region = estimate_hdr(scores, 0.05)
        assert region.threshold == 5.0
        assert int(np.count_nonzero(classify(region, scores.scores))) == 96

    def test_sparsity_1_to_100(self):
        scores = ScoreVector(np.arange(1.0, 101.0), Orientation.SPARSITY)
        region = estimate_hdr(scores, 0.05)
        assert region.threshold == 95.0
        assert int(np.count_nonzero(classify(region, scores.scores))) == 95

    def test_constant_scores_all_inside(self):
        for orient in Orientation:
            scores = ScoreVector(np.full(40, 3.14), orient)
            region = estimate_hdr(scores, 0.05)
            assert np.all(classify(region, scores.scores))


    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.3, 0.5, 0.95])
    def test_threshold_is_sorted_order_statistic_on_ties(self, alpha):
        rng = np.random.default_rng(12)
        for n in (1, 2, 7, 50, 500):
            for values in (rng.integers(0, 4, n).astype(float), np.round(rng.normal(size=n), 1), np.zeros(n)):
                for orient in Orientation:
                    region = estimate_hdr(ScoreVector(values, orient), alpha)
                    assert region.threshold == np.sort(values)[threshold_index(n, alpha, orient) - 1]


class TestClassify:
    def test_inclusive_at_threshold(self):
        scores = ScoreVector(np.arange(1.0, 101.0), Orientation.CONCENTRATION)
        region = estimate_hdr(scores, 0.05)
        assert classify(region, [region.threshold])[0]

    def test_concentration_below_threshold_outside(self):
        scores = ScoreVector(np.arange(1.0, 101.0), Orientation.CONCENTRATION)
        region = estimate_hdr(scores, 0.05)
        assert not classify(region, [region.threshold - 1e-9])[0]

    def test_sparsity_below_threshold_inside(self):
        scores = ScoreVector(np.arange(1.0, 101.0), Orientation.SPARSITY)
        region = estimate_hdr(scores, 0.05)
        assert classify(region, [region.threshold - 1e-9])[0]


class TestDensityQuantileAlias:
    def test_identical_to_concentration_region(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            vals = rng.exponential(size=rng.integers(1, 60))
            a = density_quantile_hdr(vals, 0.05)
            b = estimate_hdr(ScoreVector(vals, Orientation.CONCENTRATION), 0.05)
            assert a.threshold == b.threshold
            assert a.orientation == b.orientation

    def test_rejects_negative_densities(self):
        with pytest.raises(ValueError):
            density_quantile_hdr([-0.1, 0.5], 0.05)

    def test_single_value(self):
        region = density_quantile_hdr([2.5], 0.1)
        assert region.threshold == 2.5


class TestCoverageInvariants:
    @pytest.mark.parametrize("n", [50, 100, 500, 1000])
    def test_training_coverage_distinct_scores(self, n):
        rng = np.random.default_rng(n)
        for orient in Orientation:
            vals = rng.permutation(n).astype(float) + 1.0
            scores = ScoreVector(vals, orient)
            region = estimate_hdr(scores, 0.05)
            inside = int(np.count_nonzero(classify(region, vals)))
            rank = threshold_index(n, 0.05, orient)
            expect = n - rank + 1 if orient is Orientation.CONCENTRATION else rank
            assert inside == expect
            assert np.ceil(0.95 * n) - 1 <= inside <= np.ceil(0.95 * n) + 1

    def test_alpha_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            vals = rng.normal(size=80)
            for orient in Orientation:
                scores = ScoreVector(vals, orient)
                inner = classify(estimate_hdr(scores, 0.20), vals)
                outer = classify(estimate_hdr(scores, 0.05), vals)
                assert np.all(outer | ~inner)  # inner set subset of outer set


class TestMeasureAverage:
    def test_strict_majority_inside(self):
        rows = [np.array([True]), np.array([True]), np.array([True]),
                np.array([False]), np.array([False])]
        assert measure_average(rows)[0]

    def test_exact_half_outside(self):
        rows = [np.array([True]), np.array([True]), np.array([False]), np.array([False])]
        assert not measure_average(rows)[0]

    def test_single_vector_identity(self):
        v = np.array([True, False, True])
        assert np.array_equal(measure_average([v]), v)

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError):
            measure_average([np.array([True]), np.array([True, False])])

    def test_no_label_vector_errors(self):
        with pytest.raises(ValueError, match="need at least one label vector"):
            measure_average([])
