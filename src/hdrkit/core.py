"""Shared primitives: bivariate samples, the blocked query-by-sample pass
and the threads it runs on, nearest neighbors, quantile ranks.

Everything in this module is deterministic and pure. Samples are immutable
after construction (a sample only remembers results derived from its
points), so fitted objects holding a reference to one can be scored from
parallel workers without locking.
"""

from __future__ import annotations

import enum
import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "Orientation",
    "Sample2D",
    "ScoreVector",
    "threshold_index",
]


class Orientation(enum.Enum):
    """Whether large scores mean low density (SPARSITY) or high density."""

    SPARSITY = "sparsity"
    CONCENTRATION = "concentration"


class Sample2D:
    """Immutable ordered set of bivariate points.

    Point order is stable: index ``i`` identifies the same point for the
    lifetime of the object, which is what ties scores, labels and metrics
    together downstream.
    """

    __slots__ = ("_pts", "_derived")

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1 and pts.size == 2:
            pts = pts.reshape(1, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"expected (n, 2) points, got shape {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("empty sample")
        if not np.all(np.isfinite(pts)):
            raise ValueError("sample contains non-finite coordinates")
        pts = pts.copy()
        pts.setflags(write=False)
        self._pts = pts
        self._derived = {}

    @property
    def points(self) -> np.ndarray:
        """Read-only (n, 2) array of coordinates."""
        return self._pts

    @property
    def n(self) -> int:
        return self._pts.shape[0]

    def column(self, j: int) -> np.ndarray:
        return self._pts[:, j]

    def derived(self, key, compute):
        """``compute()``, evaluated once per ``key`` for this sample; for
        results that are a pure function of the points. The ``measures``
        module docstring lists the keys."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Sample2D(n={self.n})"


class ScoreVector:
    """Measure evaluations at the sample points, with their orientation."""

    __slots__ = ("scores", "orientation")

    def __init__(self, scores, orientation: Orientation):
        arr = np.asarray(scores, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("scores must be a nonempty 1-D array")
        if not np.isfinite(arr).all():
            raise ValueError("scores contain non-finite values")
        arr = arr.copy()
        arr.setflags(write=False)
        self.scores = arr
        self.orientation = orientation

    @property
    def n(self) -> int:
        return self.scores.size


# cap on the entries of one query-block-by-sample intermediate
_BLOCK_BUDGET = 65_536

# glibc's malloc maps a block above its mmap threshold afresh and hands
# freed heap memory above its trim threshold back to the system (128 KB and
# 256 KB at start), so a kernel's few live 512 KB block temporaries would
# fault their pages in again on every block: `apply --measures all` at
# n = 5000 took 373,000 minor faults and 0.6 s of system time, against 1,300
# and 0.004 s. Freeing one larger mapped block raises both thresholds (to its
# size and twice that; glibc's dynamic threshold), so the temporaries are
# reused from the heap. Other allocators just free it.
np.empty(8 * _BLOCK_BUDGET)


def _row_blocks(m: int, width: int):
    """Consecutive row slices of ``m`` queries, each short enough that its
    rows-by-``width`` intermediates stay within ``_BLOCK_BUDGET`` entries.

    The budget keeps one float64 temporary at 512 KB, so the few a kernel
    chains together stay in a 2 MB per-core L2 cache. A 4M-entry budget
    (32 MB temporaries) made the KDE, kNN and box kernels at n = 5000 about
    twice as slow, and a 262,144-entry one (2 MB) gained nothing. Each
    row's result does not depend on where the blocks split.

    A kernel frees its temporaries after every block, whether it loops
    over the blocks itself or hands ``_row_map`` a function of a block's
    rows, and the next block takes them from the heap again. That
    faults no pages in only because of the block freed at import above:
    m0-kde at n = 5000 took 0 minor faults per scoring call on one thread
    and 0.4 on two (``resource.getrusage`` over 5 calls after a first),
    against 146,541 for the callback and the loop alike under a fixed
    128 KB mmap threshold (``MALLOC_MMAP_THRESHOLD_=131072``), under which
    a call took 2.3 to 4.4 times as long.
    """
    block = max(1, _BLOCK_BUDGET // width)
    for i in range(0, m, block):
        yield slice(i, i + block)


# queries x sample points below which a pass stays on the calling thread:
# in-sample scoring threads from n = 1024, so the replicates of `bench` and
# `tune` grids (n <= 500 in the paper's tables) never pay a thread hand-off
_THREAD_MIN = 1 << 20

_pool = None  # (process id, most threads, executor), made on first use


def _cpus() -> int:
    """The number of CPUs this process may use, so ``taskset`` limits it:
    the threads of a large pass, and the default worker processes of
    ``bench`` and ``tune``."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _threads(entries: int) -> int:
    """How many threads a pass over ``entries`` query-by-sample entries
    runs on: one per CPU (``_cpus``), but one below ``_THREAD_MIN``
    entries, and one inside a ``multiprocessing`` worker, whose pool
    already takes a CPU per process."""
    if entries < _THREAD_MIN or multiprocessing.parent_process() is not None:
        return 1
    return _cpus()


def _thread_map(fn, items, threads: int):
    """``fn`` over ``items``, with the results in order: on the calling
    thread when ``threads`` is at most 1, else on a pool of at least that
    many worker threads. The pool is made on first use, never at import,
    again for a call that wants more threads than it has, and afresh in a
    forked child, whose copy of its parent's pool has no threads. It is
    kept between passes: a pool per pass made each ``_row_map`` kernel at
    n = 5,000 3 to 11 ms slower a call on 2 Xeon vCPUs (m1: 62.5 against
    67.3 ms). ``fn`` must not call a function that ``perfbench/spans.py``
    wraps: the tracer keeps one span stack, for the calling thread."""
    global _pool
    if threads <= 1:
        return map(fn, items)
    pid = os.getpid()
    if _pool is None or _pool[0] != pid or _pool[1] < threads:
        _pool = (pid, threads, ThreadPoolExecutor(threads, thread_name_prefix="hdrkit"))
    return _pool[2].map(fn, items)


def _row_map(out: np.ndarray, width: int, rows) -> np.ndarray:
    """``out``, with ``out[sl] = rows(sl)`` for every slice of
    ``_row_blocks(len(out), width)``. With k ``_threads``, each thread
    takes every k-th block; a block's rows depend only on its slice, so no
    result depends on the split."""
    blocks = list(_row_blocks(len(out), width))
    k = min(_threads(len(out) * width), len(blocks))

    def fill(t):
        for sl in blocks[t::k]:
            out[sl] = rows(sl)

    for _ in _thread_map(fill, range(k), k):
        pass
    return out


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """The number of True entries in each row of a 2-D boolean mask.

    Summing the mask's bytes into a uint16 accumulator takes about a third
    of the time of ``np.count_nonzero(mask, axis=1)``, which widens every
    entry to int64 (500 x 500: 43 against 156 us). Rows longer than a
    uint16 can count fall back to int64, so no count wraps.
    """
    dtype = np.uint16 if mask.shape[1] < 1 << 16 else np.int64
    return np.add.reduce(mask.view(np.uint8), axis=1, dtype=dtype)


def _k_smallest(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries in each row of ``dist``,
    ordered by (value, column index): the first k columns of a stable
    argsort, found by partial selection."""
    part = np.argpartition(dist, k - 1, axis=1)
    bound = np.take_along_axis(dist, part[:, k - 1 : k], axis=1)  # each row's k-th smallest value
    # widen to every index tied with a row's boundary value so the index
    # tie-break is applied over the full tie group
    m = int(_row_counts(dist <= bound).max())
    if m > k:
        part = np.argpartition(dist, m - 1, axis=1)
    cand = np.sort(part[:, :m], axis=1)
    order = np.argsort(np.take_along_axis(dist, cand, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cand, order[:, :k], axis=1)


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")


def threshold_index(n: int, alpha: float, orientation: Orientation) -> int:
    """1-based ascending order-statistic rank of the HDR score threshold.

    Concentration measures keep the top scores, so the cut sits at the
    alpha-quantile rank floor(alpha*n); sparsity measures keep the bottom,
    cutting at ceil((1-alpha)*n). Ranks clamp to [1, n] for tiny samples.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_alpha(alpha)
    # the 1e-9 nudge undoes float representation error in alpha*n
    # (e.g. 0.29*100 == 28.999999999999996)
    if orientation is Orientation.CONCENTRATION:
        r = math.floor(alpha * n + 1e-9)
        return max(1, r)
    r = math.ceil((1.0 - alpha) * n - 1e-9)
    return min(n, max(1, r))
