import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from hdrkit.core import (
    Orientation,
    Sample2D,
    ScoreVector,
    _k_smallest,
    threshold_index,
)
from oracles import ecdf1, rect_count


class TestSample2D:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Sample2D([(0.0, np.nan)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Sample2D(np.empty((0, 2)))

    def test_immutable(self):
        s = Sample2D([(1.0, 2.0)])
        with pytest.raises(ValueError):
            s.points[0, 0] = 9.0


class TestEcdf1:
    """The ECDF oracle that m2's ECDF coordinates are checked against."""

    def test_half(self):
        assert ecdf1([1, 2, 3, 4], 2.5) == 0.5

    def test_below_min(self):
        assert ecdf1([1, 2, 3, 4], 0) == 0.0

    def test_inclusive_at_point(self):
        assert ecdf1([5], 5) == 1.0

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty"):
            ecdf1([], 1.0)

    def test_monotone_and_one_at_max(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=200)
        ts = np.sort(rng.normal(size=100))
        vals = ecdf1(col, ts)
        assert np.all(np.diff(vals) >= 0)
        assert ecdf1(col, col.max()) == 1.0


class TestRectCount:
    """The box-count oracle that m3-ecdf's scores are checked against."""

    def test_single_point_in_box(self):
        s = Sample2D([(0, 0), (1, 1), (2, 2)])
        assert rect_count(s, (0.5, 0.5), (1.5, 1.5)) == 1

    def test_zero_volume_inclusive(self):
        s = Sample2D([(0, 0), (1, 1), (2, 2)])
        assert rect_count(s, (1, 1), (1, 1)) == 1

    def test_full_cover(self):
        rng = np.random.default_rng(1)
        s = Sample2D(rng.random((1000, 2)))
        assert rect_count(s, (0, 0), (1, 1)) == 1000

    def test_inverted_errors(self):
        s = Sample2D([(0, 0)])
        with pytest.raises(ValueError, match="degenerate"):
            rect_count(s, (1, 0), (0, 1))

    def test_monotone_in_rectangle(self):
        rng = np.random.default_rng(2)
        s = Sample2D(rng.normal(size=(300, 2)))
        for _ in range(50):
            c = rng.normal(size=2)
            r1, r2 = sorted(rng.uniform(0.1, 3.0, size=2))
            small = rect_count(s, c - r1, c + r1)
            large = rect_count(s, c - r2, c + r2)
            assert large >= small


def _distance_rows(pts, queries):
    dx = queries[:, 0:1] - pts[:, 0]
    dy = queries[:, 1:2] - pts[:, 1]
    return np.sqrt(dx * dx + dy * dy)


class TestKSmallestRows:
    """The row-wise selection kernel against the first k columns of a full stable argsort."""

    @pytest.mark.parametrize("data", ["random", "rounded", "duplicated"])
    def test_equals_stable_argsort_prefix(self, data):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(300, 2))
        if data == "rounded":
            pts = np.round(pts, 1)
        elif data == "duplicated":
            pts = np.repeat(pts[:60], 5, axis=0)[rng.permutation(300)]
        d = _distance_rows(pts, pts[:120])
        full = np.argsort(d, axis=1, kind="stable")
        for k in (1, 2, 7, 30, 299, 300):
            assert np.array_equal(_k_smallest(d, k), full[:, :k]), k

    def test_wide_tie_group(self):
        # every row's boundary value is shared by many columns
        d = np.tile(np.array([3.0, 1.0, 2.0, 1.0, 2.0, 2.0, 2.0, 0.5, 2.0]), (4, 1))
        d[1] = d[1][::-1]
        full = np.argsort(d, axis=1, kind="stable")
        for k in range(1, d.shape[1] + 1):
            assert np.array_equal(_k_smallest(d, k), full[:, :k])


    def test_tie_group_wider_than_a_byte(self):
        # 300 columns tie at every row's boundary: a count that wrapped at 256
        # would leave column 0 out of the candidates
        d = np.zeros((3, 300))
        d[:, 1] = -1.0
        full = np.argsort(d, axis=1, kind="stable")
        for k in (1, 2, 3, 299):
            assert np.array_equal(_k_smallest(d, k), full[:, :k]), k


class TestThresholdIndex:
    def test_concentration_rank(self):
        assert threshold_index(100, 0.05, Orientation.CONCENTRATION) == 5

    def test_sparsity_rank(self):
        assert threshold_index(100, 0.05, Orientation.SPARSITY) == 95

    def test_small_n_clamped(self):
        assert threshold_index(10, 0.05, Orientation.CONCENTRATION) == 1

    def test_float_representation_guard(self):
        # 0.29 * 100 rounds below 29 in float arithmetic
        assert threshold_index(100, 0.29, Orientation.CONCENTRATION) == 29

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            threshold_index(10, 0.0, Orientation.CONCENTRATION)

    @pytest.mark.parametrize("n", [20, 50, 100, 500, 1000])
    def test_kept_count_distinct_scores(self, n):
        rng = np.random.default_rng(n)
        scores = rng.permutation(n).astype(float)
        for orient in Orientation:
            rank = threshold_index(n, 0.05, orient)
            thr = np.sort(scores)[rank - 1]
            if orient is Orientation.CONCENTRATION:
                kept = int(np.count_nonzero(scores >= thr))
                assert kept == n - rank + 1
            else:
                kept = int(np.count_nonzero(scores <= thr))
                assert kept == rank
            assert kept >= math.ceil(0.95 * n) - 1


def test_score_vector_validation():
    with pytest.raises(ValueError):
        ScoreVector([1.0, np.inf], Orientation.SPARSITY)
    sv = ScoreVector([1.0, 2.0], Orientation.CONCENTRATION)
    assert sv.n == 2


_BLOCK_FAULTS = """
import resource
import numpy as np
import hdrkit.core as core


def chain():  # a kernel's live block temporaries, written and then freed together
    return [np.ones(core._BLOCK_BUDGET) for _ in range(4)]


chain()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    chain()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's dynamic mmap threshold")
def test_block_temporaries_reuse_heap_pages():
    # below glibc's trim threshold the freed temporaries stay mapped; above it they fault in again
    # (about 96,000 faults here without the block core.py frees at import)
    import hdrkit

    src = os.path.dirname(os.path.dirname(hdrkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _BLOCK_FAULTS], env=env, capture_output=True, text=True, check=True)
    assert int(done.stdout.split()[-1]) < 2000
