"""Brute-force reference implementations the measures are checked against.

Each works directly over the whole sample, with no sorting, blocking or
shared kernel rows, so it shares no code path with the package's ECDF
owner or pairwise kernels.
"""

import numpy as np
from scipy import special


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


def npcop_rect_prob(fit, u_lo, u_hi, v_lo, v_hi):
    """Transformation-KDE copula probability of [u_lo,u_hi]x[v_lo,v_hi],
    four normal-CDF kernel evaluations per (query, sample point) pair over
    the whole query-by-sample matrix; 0/1 bounds map to -inf/+inf."""
    u_lo, u_hi, v_lo, v_hi = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (u_lo, u_hi, v_lo, v_hi)))
    with np.errstate(divide="ignore"):
        s_lo, s_hi, t_lo, t_hi = (special.ndtri(np.atleast_1d(a).ravel())[:, None] for a in (u_lo, u_hi, v_lo, v_hi))
    z1 = fit.z[:, 0]
    z2 = fit.z[:, 1]
    du = special.ndtr((s_hi - z1) / fit.h1) - special.ndtr((s_lo - z1) / fit.h1)
    dv = special.ndtr((t_hi - z2) / fit.h2) - special.ndtr((t_lo - z2) / fit.h2)
    out = np.clip((du * dv).sum(axis=-1) / fit.n, 0.0, 1.0)
    if u_lo.ndim == 0:
        return float(out[0])
    return out.reshape(u_lo.shape)


def _euclid_sq(pts, queries):
    """Squared Euclidean distance matrix, queries by sample points."""
    dx = queries[:, None, 0] - pts[None, :, 0]
    dy = queries[:, None, 1] - pts[None, :, 1]
    return dx * dx + dy * dy


def kde_scores(pts, queries, h):
    """m0-kde over the whole query-by-sample matrix: the mean of Gaussian
    kernels exp(-d^2 / (2 h^2)) / (2 pi h^2), with 1/(2 h^2) formed once."""
    kernels = np.exp(-_euclid_sq(pts, queries) * (1.0 / (2.0 * h * h)))
    return kernels.sum(axis=1) / (pts.shape[0] * 2.0 * np.pi * h * h)


def knn_eucl_scores(pts, queries, k):
    """m1 over the whole query-by-sample matrix: the sum of each row's k
    smallest Euclidean distances. They are taken by ``np.partition`` because
    the order of that sum is part of m1's bits."""
    d = np.sqrt(_euclid_sq(pts, queries))
    if k >= pts.shape[0]:
        return d.sum(axis=1)
    return np.partition(d, k - 1, axis=1)[:, :k].sum(axis=1)
