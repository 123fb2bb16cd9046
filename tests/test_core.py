import math
import os
import platform
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

import hdrkit
from hdrkit import benchmark, copulas as C, core, measures as M
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


@pytest.mark.parametrize("call, message", [
    (lambda: Sample2D(np.zeros(3)), "expected (n, 2) points, got shape (3,)"),
    (lambda: ScoreVector([], Orientation.CONCENTRATION), "scores must be a nonempty 1-D array"),
    (lambda: threshold_index(0, 0.05, Orientation.CONCENTRATION), "n must be >= 1"),
], ids=["three-values", "empty-scores", "no-points"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_two_values_are_one_point():
    assert Sample2D([1.0, 2.0]).points.tolist() == [[1.0, 2.0]]


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


def _src_env():
    """The environment of a child Python that imports this hdrkit."""
    src = os.path.dirname(os.path.dirname(hdrkit.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's dynamic mmap threshold")
def test_block_temporaries_reuse_heap_pages():
    # below glibc's trim threshold the freed temporaries stay mapped; above it they fault in again
    # (about 96,000 faults here without the block core.py frees at import)
    done = subprocess.run([sys.executable, "-c", _BLOCK_FAULTS], env=_src_env(), capture_output=True, text=True,
                          check=True)
    assert int(done.stdout.split()[-1]) < 2000


def _force_threads(monkeypatch, threads):
    """Put every pass, however small, on ``threads`` threads; returns the set
    of threads that ran a share of one split over more than one."""
    monkeypatch.setattr(core, "_THREAD_MIN", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(threads)), raising=False)
    monkeypatch.setattr(core, "_pool", None)
    ran = set()
    thread_map = core._thread_map

    def spy(fn, items, k):
        def run(item):
            ran.add(threading.get_ident())
            return fn(item)

        return thread_map(run if k > 1 else fn, items, k)

    monkeypatch.setattr(core, "_thread_map", spy)
    monkeypatch.setattr(C, "_thread_map", spy)
    return ran


def _kernel_points(case, n=150):
    # n = 150: five sample chunks in npcop_rect_prob, the last one short
    rng = np.random.default_rng(34)
    return {
        "random": rng.normal(size=(n, 2)),
        # a 0.1 grid ties many distances and ECDF bounds
        "rounded": np.round(rng.uniform(0.0, 1.0, size=(n, 2)), 1),
        "duplicated": np.repeat(rng.normal(size=(n // 5, 2)), 5, axis=0),
    }[case]


class TestThreadedPasses:
    @pytest.mark.parametrize("memo", [True, False], ids=["memo", "blocked"])
    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("case", ["random", "rounded", "duplicated"])
    def test_scores_bit_identical_to_one_thread(self, monkeypatch, case, threads, memo):
        pts = _kernel_points(case)
        others = np.random.default_rng(35).normal(size=(70, 2))
        if not memo:
            monkeypatch.setattr(M, "_MEMO_MAX", 0)
        # 3 rows per block at width n: 50 blocks of the sample's own points
        monkeypatch.setattr(core, "_BLOCK_BUDGET", 500)

        def run():
            samp = Sample2D(pts)
            fits = [M.fit_measure(M.build_spec(kind, marginal_families=("normal", "normal")), samp)
                    for kind in M.MEASURE_KINDS]
            return [(f.score_vector(samp).scores, f.score(others)) for f in fits]

        serial = run()
        ran = _force_threads(monkeypatch, threads)
        threaded = run()
        assert len(ran) == threads and threading.get_ident() not in ran
        for kind, (a, b), (c, d) in zip(M.MEASURE_KINDS, serial, threaded):
            assert np.array_equal(a, c), kind
            assert np.array_equal(b, d), kind

    @pytest.mark.parametrize("threads", [2, 3])
    def test_copula_kernels_bit_identical_to_one_thread(self, monkeypatch, threads):
        monkeypatch.setattr(core, "_BLOCK_BUDGET", 500)
        fit = C.npcop_fit(C.pseudo_observations(_kernel_points("random")))
        u = np.sort(np.random.default_rng(36).uniform(0.0, 1.0, size=(4, 90)), axis=0)
        u[0, :5], u[3, -5:] = 0.0, 1.0
        inner = np.clip(u, 0.01, 0.99)

        def run():
            return (C.npcop_rect_prob(fit, u[0], u[1], u[2], u[3]),
                    C.npcop_rect_prob(fit, *(a.reshape(9, 10) for a in u)),
                    C.npcop_pdf(fit, inner[1], inner[2]))

        serial = run()
        ran = _force_threads(monkeypatch, threads)
        threaded = run()
        assert len(ran) == threads and threading.get_ident() not in ran
        for a, b in zip(serial, threaded):
            assert a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_row_map_fills_a_2d_out(self, monkeypatch, threads):
        # 9 rows in blocks of 2: 5 blocks, a multiple of neither thread count
        monkeypatch.setattr(core, "_BLOCK_BUDGET", 6)
        x = np.random.default_rng(38).normal(size=(9, 3))
        ran = _force_threads(monkeypatch, threads)
        out = np.empty((9, 3))
        assert core._row_map(out, 3, lambda sl: np.cumsum(x[sl], axis=1)) is out
        assert np.array_equal(out, np.cumsum(x, axis=1))
        # so short a task may leave a pool thread idle: only the hand-off is certain
        assert ran and threading.get_ident() not in ran

    def test_more_threads_than_cores_with_fast_switching(self, monkeypatch):
        # the threads share the output arrays: a lost or reordered update
        # would change some bits
        pts = _kernel_points("random", n=300)
        samp = Sample2D(pts)
        kinds = ("m0-kde", "m0-npcop", "m3-npcop", "m1", "m2", "m3-ecdf")
        fits = [M.fit_measure(M.MeasureSpec(kind), samp) for kind in kinds]
        # a copy of the points, and the sample's own array, whose rows m1,
        # m2 and m3-ecdf read from the in-sample memo through measures._scan
        serial = [(f.score(pts), f.score(samp.points)) for f in fits]
        monkeypatch.setattr(core, "_BLOCK_BUDGET", 500)
        ran = _force_threads(monkeypatch, 4 * core._cpus())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                for kind, (a, b), f in zip(kinds, serial, fits):
                    assert np.array_equal(a, f.score(pts)), kind
                    assert np.array_equal(b, f.score(samp.points)), kind
        finally:
            sys.setswitchinterval(interval)
        assert len(ran) > 1

    def test_small_passes_stay_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert core._threads(core._THREAD_MIN - 1) == 1
        assert core._threads(core._THREAD_MIN) == 2
        # in-sample scoring threads from n = 1024
        assert core._threads(1023 * 1023) == 1 and core._threads(1024 * 1024) == 2

    def test_pool_made_once_per_process_and_size(self, monkeypatch):
        monkeypatch.setattr(core, "_pool", None)
        assert list(core._thread_map(abs, [-1, -2, -3], 1)) == [1, 2, 3] and core._pool is None
        assert list(core._thread_map(abs, [-1, -2, -3], 2)) == [1, 2, 3]
        two = core._pool[2]
        list(core._thread_map(abs, [-1], 2))
        assert core._pool[2] is two
        list(core._thread_map(abs, [-1], 3))
        three = core._pool[2]
        assert three is not two
        list(core._thread_map(abs, [-1], 2))
        assert core._pool[2] is three
        # a forked child makes its own
        monkeypatch.setattr(os, "getpid", lambda: -1)
        list(core._thread_map(abs, [-1], 2))
        assert core._pool[2] is not three

    def test_import_starts_no_thread(self):
        probe = ("import threading, hdrkit.cli, hdrkit.core as core; "
                 "print(threading.active_count(), core._pool is None)")
        done = subprocess.run([sys.executable, "-c", probe], env=_src_env(), capture_output=True, text=True,
                              check=True)
        assert done.stdout.split() == ["1", "True"]

    def test_no_thread_in_a_pool_worker(self, monkeypatch):
        monkeypatch.setattr(core, "_THREAD_MIN", 0)
        assert benchmark._map(_score_in_worker, [0, 1], 2) == [(1, 1), (1, 1)]


def _score_in_worker(_task):
    """In a ``bench``/``tune`` pool worker: the threads a large pass (the
    threshold forced to 0) runs on, and the threads alive after it."""
    samp = Sample2D(np.random.default_rng(37).normal(size=(200, 2)))
    M.fit_measure(M.MeasureSpec("m0-kde"), samp).score_vector(samp)
    return core._threads(200 * 200), threading.active_count()
