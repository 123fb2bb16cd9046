"""Brute-force reference implementations the measures are checked against.

Each counts directly over the sample, with no sorting or blocking, so it
shares no code path with the package's ECDF owner or pairwise kernel.
"""

import numpy as np


def ecdf1(column, t):
    """Right-continuous empirical CDF of a 1-D sample, evaluated at ``t``.

    ``t`` may be a scalar or an array; returns the fraction of entries <= t.
    """
    col = np.asarray(column, dtype=float)
    if col.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(col)):
        raise ValueError("sample contains non-finite values")
    out = np.count_nonzero(col <= np.asarray(t, dtype=float)[..., None], axis=-1) / col.size
    if np.isscalar(t):
        return float(out)
    return out


def rect_count(sample, lo, hi) -> int:
    """Number of sample points inside the closed rectangle [lo, hi].

    Bounds are inclusive on all edges (boundary mass is measure-zero for
    continuous data, so the convention only matters for exact-tie inputs).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo[0] > hi[0] or lo[1] > hi[1]:
        raise ValueError("degenerate rectangle: lo must be <= hi componentwise")
    pts = sample.points
    inside = (
        (pts[:, 0] >= lo[0])
        & (pts[:, 0] <= hi[0])
        & (pts[:, 1] >= lo[1])
        & (pts[:, 1] <= hi[1])
    )
    return int(np.count_nonzero(inside))
