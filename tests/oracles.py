"""Brute-force reference implementations the measures are checked against.

Each works directly over the whole sample, with no sorting, row blocking
or shared kernel rows, so it shares no code path with the package's ECDF
owner or pairwise kernels. ``t_copula_full_profile`` profiles every nu
where the package searches, and ``truth_f_alpha`` forms the truth oracle's
whole reference sample where the package works in row blocks. The last
two build the parametric-copula measures from exact, injected models
instead of fitted ones.
"""

from functools import partial

import numpy as np
from scipy import special

from hdrkit import copulas as C, measures as M, scenarios as S
from hdrkit.hdr import density_quantile_hdr


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


def _npcop_products(fit, u_lo, u_hi, v_lo, v_hi):
    """The (query, sample point) products ``du * dv`` of four normal-CDF
    kernel evaluations over the whole query-by-sample matrix, with the
    queries' broadcast shape; 0/1 bounds map to -inf/+inf."""
    u_lo, u_hi, v_lo, v_hi = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (u_lo, u_hi, v_lo, v_hi)))
    with np.errstate(divide="ignore"):
        s_lo, s_hi, t_lo, t_hi = (special.ndtri(np.atleast_1d(a).ravel())[:, None] for a in (u_lo, u_hi, v_lo, v_hi))
    z1 = fit.z[:, 0]
    z2 = fit.z[:, 1]
    du = special.ndtr((s_hi - z1) / fit.h1) - special.ndtr((s_lo - z1) / fit.h1)
    dv = special.ndtr((t_hi - z2) / fit.h2) - special.ndtr((t_lo - z2) / fit.h2)
    return du * dv, u_lo.shape


def _npcop_prob(sums, fit, shape):
    out = np.clip(sums / fit.n, 0.0, 1.0)
    if not shape:
        return float(out[0])
    return out.reshape(shape)


def npcop_rect_prob_rows(fit, u_lo, u_hi, v_lo, v_hi):
    """Transformation-KDE copula probability of [u_lo,u_hi]x[v_lo,v_hi],
    each query's products summed over its whole sample row at once."""
    prod, shape = _npcop_products(fit, u_lo, u_hi, v_lo, v_hi)
    return _npcop_prob(prod.sum(axis=-1), fit, shape)


def npcop_rect_prob(fit, u_lo, u_hi, v_lo, v_hi, chunk):
    """The same probability summed in the package's order: each query's
    products over consecutive runs of ``chunk`` sample points, the run sums
    added from left to right."""
    prod, shape = _npcop_products(fit, u_lo, u_hi, v_lo, v_hi)
    sums = np.zeros(prod.shape[0])
    for j in range(0, fit.n, chunk):
        sums += np.ascontiguousarray(prod[:, j : j + chunk]).sum(axis=-1)
    return _npcop_prob(sums, fit, shape)


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


def t_copula_full_profile(pseudo):
    """The Student-t copula fit over all of ``NU_GRID_COPULA``: each nu's
    profile fit, the first nu of greatest log-likelihood kept. Returns
    ``(rho, nu, loglik)``."""
    profile = C._t_profile(pseudo.u[:, 0], pseudo.u[:, 1])
    best = None
    for i in range(len(C.NU_GRID_COPULA)):
        fit = profile(i)
        if best is None or fit[2] > best[2]:
            best = fit
    return best


def m0_pcop_from_models(copula_model, marginals):
    """Density-product measure with exact (injected) models, no fitting."""
    marginals = tuple(marginals)
    spec = M.MeasureSpec(M.M0_PCOP, marginal_families=tuple(m.family for m in marginals))
    scores = partial(C.joint_pdf, copula_model, marginals, M._CDF_CLIP, 1.0 - M._CDF_CLIP)
    return M.FittedMeasure(spec, scores, {}, copula_model.family)


def m3_pcop_from_models(copula_model, marginals, eps: float):
    """Box-probability measure with exact (injected) models, no fitting."""
    marginals = tuple(marginals)
    spec = M.MeasureSpec(M.M3_PCOP_RECT, eps=eps, marginal_families=tuple(m.family for m in marginals))
    return M.FittedMeasure(spec, partial(M._pcop_rect_scores, copula_model, marginals, eps), {"eps": eps},
                           copula_model.family)


def truth_f_alpha(s, alpha, ref_size, rng):
    """The truth oracle's f_alpha from the whole reference sample at once:
    the alpha-quantile of the true density at ``sample_scenario``'s points."""
    ref = S.sample_scenario(s, ref_size, rng)
    return density_quantile_hdr(S.true_density(s, ref.points), alpha).threshold
