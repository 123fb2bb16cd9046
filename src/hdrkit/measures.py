"""The eight density-ordering measures, each fit once and scored many times.

Roster (CLI token, orientation):

* ``m0-kde``       bivariate Gaussian-kernel density estimate (concentration)
* ``m0-npcop``     marginal KDEs times a transformation-KDE copula density (concentration)
* ``m0-pcop``      fitted parametric marginals times an AIC-selected copula density (concentration)
* ``m1``           summed Euclidean distance to the k nearest neighbors (sparsity)
* ``m2``           summed per-neighbor marginal-CDF distance ratios (concentration)
* ``m3-ecdf``      empirical probability of an eps-box around the point, over box area (concentration)
* ``m3-npcop``     eps-box probability from ECDF margins + nonparametric copula (concentration)
* ``m3-pcop``      eps-box probability from parametric margins + copula CDF (concentration)

A measure is its score function. Each kind has one module-level scorer
that takes what its fit produced, then the (m, 2) queries; ``fit_measure``
binds it with ``functools.partial`` into a ``FittedMeasure``. Fitting is
single-threaded; scoring is pure, so one fitted measure can serve many
workers.
The query-by-sample passes walk ``core._row_blocks``; the sample's
marginal ECDF (``_MarginalEcdf``) serves m2, m0-npcop and m3-npcop.
m0-npcop and m3-npcop fitted to one sample share one ECDF and one copula
fit (``Sample2D.derived(("npcop",), ...)``), as m0-pcop and m3-pcop share
their parametric fit.
m3-ecdf scores the sample's own points from its in-sample Chebyshev
distance matrix, memoised as ``Sample2D.derived(("chebyshev",), ...)``
for n <= 2000, so every eps fitted to one sample shares it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import copulas, distributions as dists
from .core import Orientation, Sample2D, ScoreVector, _k_smallest, _row_blocks

__all__ = [
    "MeasureSpec",
    "FittedMeasure",
    "FitError",
    "MEASURE_KINDS",
    "M0_KDE",
    "M0_NPCOP",
    "M0_PCOP",
    "M1_KNN_EUCL",
    "M2_KNN_CDF",
    "M3_ECDF_RECT",
    "M3_NPCOP_RECT",
    "M3_PCOP_RECT",
    "UNBOUNDED",
    "SIMPLEX",
    "heuristic_k",
    "heuristic_eps",
    "tuned_param",
    "build_spec",
    "fill_spec",
    "fit_measure",
    "m0_pcop_from_models",
    "m3_pcop_from_models",
]

M0_KDE = "m0-kde"
M0_NPCOP = "m0-npcop"
M0_PCOP = "m0-pcop"
M1_KNN_EUCL = "m1"
M2_KNN_CDF = "m2"
M3_ECDF_RECT = "m3-ecdf"
M3_NPCOP_RECT = "m3-npcop"
M3_PCOP_RECT = "m3-pcop"

UNBOUNDED = "unbounded"
SIMPLEX = "simplex"


class _Kind(NamedTuple):
    param: str | None  # the hyperparameter it tunes: "k", "eps" or None
    orientation: Orientation  # which way its scores point
    min_n: int  # the fewest points it fits


# what each kind takes; the copula kinds fit marginal and copula models
_KINDS = {
    M0_KDE: _Kind(None, Orientation.CONCENTRATION, 2),
    M0_NPCOP: _Kind(None, Orientation.CONCENTRATION, 20),
    M0_PCOP: _Kind(None, Orientation.CONCENTRATION, 20),
    M1_KNN_EUCL: _Kind("k", Orientation.SPARSITY, 2),
    M2_KNN_CDF: _Kind("k", Orientation.CONCENTRATION, 2),
    M3_ECDF_RECT: _Kind("eps", Orientation.CONCENTRATION, 2),
    M3_NPCOP_RECT: _Kind("eps", Orientation.CONCENTRATION, 20),
    M3_PCOP_RECT: _Kind("eps", Orientation.CONCENTRATION, 20),
}
MEASURE_KINDS = tuple(_KINDS)
_PCOP_KINDS = (M0_PCOP, M3_PCOP_RECT)
_MARGINAL_FAMILIES = (dists.NORMAL, dists.STUDENT_T, dists.NORMAL_MIXTURE, dists.BETA11A)

_CDF_CLIP = 1e-12  # guard before evaluating a copula density/CDF at a parametric-CDF coordinate
# largest in-sample Chebyshev matrix m3-ecdf memoises (entries; n <= 2000)
_CHEBYSHEV_MEMO_MAX = 4_000_000


@dataclass(frozen=True)
class MeasureSpec:
    """Declarative measure choice; unset hyperparameters are filled from the
    published heuristics at fit time."""

    kind: str
    k: int | None = None
    eps: float | None = None
    marginal_families: tuple | None = None
    support_class: str = UNBOUNDED

    def __post_init__(self):
        param = tuned_param(self.kind)
        if self.support_class not in (UNBOUNDED, SIMPLEX):
            raise ValueError(f"unknown support class {self.support_class!r}")
        if self.k is not None and param != "k":
            raise ValueError(f"{self.kind} does not take k")
        if self.eps is not None and param != "eps":
            raise ValueError(f"{self.kind} does not take eps")
        if self.eps is not None:
            if not math.isfinite(self.eps):
                raise ValueError(f"eps must be finite, got {self.eps}")
            if self.eps <= 0:
                raise ValueError("eps must be positive")
            # the scores divide by the box area: a subnormal one overflows them
            if not sys.float_info.min <= 4.0 * self.eps * self.eps < math.inf:
                raise ValueError(f"eps={self.eps} is out of range: the box area 4*eps*eps underflows or overflows")
        if self.k is not None:
            if not float(self.k).is_integer():
                raise ValueError(f"k must be a whole number, got {self.k}")
            if self.k < 1:
                raise ValueError("k must be >= 1")
            object.__setattr__(self, "k", int(self.k))  # 2.0 means 2
        if self.marginal_families is not None:
            if self.kind not in _PCOP_KINDS:
                raise ValueError(f"{self.kind} takes no marginal families")
            families = tuple(self.marginal_families)
            if len(families) != 2 or not all(f in _MARGINAL_FAMILIES for f in families):
                raise ValueError(f"{self.kind} takes two marginal families from {_MARGINAL_FAMILIES}, got {families}")
            object.__setattr__(self, "marginal_families", families)


def tuned_param(kind: str) -> str | None:
    """The hyperparameter ``kind`` takes: "k", "eps", or None for none."""
    if kind not in _KINDS:
        raise ValueError(f"unknown measure kind {kind!r}")
    return _KINDS[kind].param


def build_spec(kind: str, k=None, eps=None, support_class: str = UNBOUNDED, marginal_families=None) -> MeasureSpec:
    """Spec for ``kind`` from settings shared by a whole run: ``k`` and
    ``eps`` are kept only for the kinds that take them, and the marginal
    families only for the parametric-copula kinds."""
    param = tuned_param(kind)
    return MeasureSpec(
        kind,
        k=k if param == "k" else None,
        eps=float(eps) if param == "eps" and eps is not None else None,
        marginal_families=tuple(marginal_families) if kind in _PCOP_KINDS else None,
        support_class=support_class,
    )


def heuristic_k(n: int) -> int:
    """Neighbor count rule round(sqrt(n/2)), never below 1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return max(1, int(math.floor(math.sqrt(n / 2.0) + 0.5)))


def heuristic_eps(kind: str, n: int, support_class: str = UNBOUNDED) -> float:
    """Published box half-width rules per measure and support class."""
    if tuned_param(kind) != "eps":
        raise ValueError(f"{kind} is not an eps-based measure")
    if n < 2:
        raise ValueError("n must be >= 2")
    ln = math.log(n)
    if support_class == SIMPLEX:
        if kind == M3_ECDF_RECT:
            return 0.10
        if kind == M3_NPCOP_RECT:
            return math.exp(-1.22 - 0.23 * ln)
        return 0.02
    if kind == M3_ECDF_RECT:
        return math.exp(2.13 - 0.30 * ln)
    if kind == M3_NPCOP_RECT:
        return math.exp(1.74 - 0.26 * ln)
    return math.exp(1.60 - 0.41 * ln)


class FittedMeasure:
    """One fitted measure: its filled spec, its score function (the kind's
    scorer bound to what the fit produced), and the hyperparameters and
    copula family the fit chose."""

    def __init__(self, spec: MeasureSpec, scores, hyperparams: dict, fitted_copula_family=None):
        self.spec = spec
        self.orientation = _KINDS[spec.kind].orientation
        self._scores = scores
        self.hyperparams = dict(hyperparams)
        self.fitted_copula_family = fitted_copula_family

    def score(self, points) -> np.ndarray:
        """Evaluate the measure at (m, 2) points, or at one (2,) point as a
        float; pure and deterministic."""
        pts = np.asarray(points, dtype=float)
        if pts.shape == (2,):
            return float(self._scores(pts.reshape(1, 2))[0])
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"expected (m, 2) query points, got shape {pts.shape}")
        return self._scores(pts)

    def score_vector(self, sample: Sample2D) -> ScoreVector:
        try:
            return ScoreVector(self.score(sample.points), self.orientation)
        except ValueError as exc:
            raise ValueError(f"scoring measure {self.spec.kind} failed: {exc}") from exc


# ---------------------------------------------------------------------------
# score functions: what a fit produced, then the (m, 2) queries


def _kde_scores(pts: np.ndarray, h: float, q: np.ndarray) -> np.ndarray:
    n = pts.shape[0]
    out = np.empty(q.shape[0])
    inv2h2 = 1.0 / (2.0 * h * h)
    for sl in _row_blocks(q.shape[0], n):
        out[sl] = np.exp(-_sq_dist(q[sl], pts) * inv2h2).sum(axis=1)
    return out / (n * 2.0 * np.pi * h * h)


def _knn_eucl_scores(pts: np.ndarray, k: int, q: np.ndarray) -> np.ndarray:
    n = pts.shape[0]
    out = np.empty(q.shape[0])
    for sl in _row_blocks(q.shape[0], n):
        d = np.sqrt(_sq_dist(q[sl], pts))
        if k >= n:
            out[sl] = d.sum(axis=1)
        else:
            # the sum of the k smallest values is tie-invariant
            out[sl] = np.partition(d, k - 1, axis=1)[:, :k].sum(axis=1)
    return out


class _MarginalEcdf:
    """The sample's marginal ECDFs, as counts: for each query coordinate,
    how many sample entries of its column are <= it."""

    def __init__(self, pts: np.ndarray):
        self.sorted_cols = (np.sort(pts[:, 0]), np.sort(pts[:, 1]))
        self.n = pts.shape[0]

    def counts(self, q: np.ndarray) -> np.ndarray:
        """(m, 2) integer counts at (m, 2) query points."""
        return np.column_stack([np.searchsorted(self.sorted_cols[j], q[:, j], side="right") for j in range(2)])


def _knn_cdf_scores(pts: np.ndarray, k: int, ecdf: _MarginalEcdf, f_pts: np.ndarray, q: np.ndarray) -> np.ndarray:
    # f_pts: the ECDF values of the sample points themselves
    n = pts.shape[0]
    fq = ecdf.counts(q) / n
    out = np.empty(q.shape[0])
    for sl in _row_blocks(q.shape[0], 2 * n):
        d = np.sqrt(_sq_dist(q[sl], pts))
        # exact ties resolve to the lower sample index
        idx = _k_smallest(d, k)[:, 1:]
        rows = np.arange(idx.shape[0])[:, None]
        dist = d[rows, idx]
        du = fq[sl][:, None, 0] - f_pts[idx, 0]
        dv = fq[sl][:, None, 1] - f_pts[idx, 1]
        dp = np.sqrt(du * du + dv * dv)
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(dist > 0.0, dp / dist, 0.0)  # duplicate points contribute 0
        out[sl] = terms.sum(axis=1)
    return out


def _sq_dist(q: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from each query row to each sample point."""
    dx, dy = q[:, 0:1] - pts[:, 0], q[:, 1:2] - pts[:, 1]
    return np.add(np.multiply(dx, dx, out=dx), np.multiply(dy, dy, out=dy), out=dx)  # in place, as in _chebyshev


def _chebyshev(q: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """max(|dx|, |dy|) from each query row to each sample point. A point is
    in the eps-box of a query exactly when this is <= eps: abs and max are
    exact in floating point, so the test matches |dx| <= eps & |dy| <= eps."""
    dx = q[:, 0:1] - pts[:, 0]
    dy = q[:, 1:2] - pts[:, 1]
    # in place: two rows-by-n temporaries instead of three
    return np.maximum(np.abs(dx, out=dx), np.abs(dy, out=dy), out=dx)


def _ecdf_rect_scores(sample: Sample2D, eps: float, q: np.ndarray) -> np.ndarray:
    pts = sample.points
    n = pts.shape[0]
    if q is pts and n * n <= _CHEBYSHEV_MEMO_MAX:
        # in-sample scoring reuses one distance matrix for every eps fitted
        # to this sample (a tune grid scores up to 31 of them)
        d = sample.derived(("chebyshev",), lambda: _chebyshev(pts, pts))
        counts = np.count_nonzero(d <= eps, axis=1)
    else:
        counts = np.empty(q.shape[0])
        for sl in _row_blocks(q.shape[0], n):
            counts[sl] = np.count_nonzero(_chebyshev(q[sl], pts) <= eps, axis=1)
    return counts / (n * 4.0 * eps * eps)


class _MarginalKde:
    """Univariate Gaussian KDE with the normal-scale bandwidth."""

    def __init__(self, col: np.ndarray):
        self.col = col
        sd = float(np.std(col, ddof=1))
        if sd <= 0:
            raise ValueError("degenerate sample: zero variance")
        self.h = (4.0 / 3.0) ** 0.2 * sd * col.size ** (-0.2)

    def pdf(self, t: np.ndarray) -> np.ndarray:
        n = self.col.size
        out = np.empty(t.size)
        for sl in _row_blocks(t.size, n):
            z = (t[sl, None] - self.col) / self.h
            out[sl] = np.exp(-0.5 * z * z).sum(axis=1)
        return out / (n * self.h * math.sqrt(2.0 * math.pi))


def _fit_npcop(sample: Sample2D):
    """The sample's marginal ECDF and transformation-KDE copula fit, which
    m0-npcop and m3-npcop fitted to one sample share."""
    pts = sample.points
    return sample.derived(("npcop",), lambda: (_MarginalEcdf(pts), copulas.npcop_fit(copulas.pseudo_observations(pts))))


def _npcop_density_scores(ecdf: _MarginalEcdf, copfit, marg, q: np.ndarray) -> np.ndarray:
    # pseudo-coordinates n/(n+1) * F_n, clamped to [1/(n+1), n/(n+1)] so
    # the normal quantile stays finite; sample points with distinct
    # coordinates land exactly on ranks/(n+1)
    n = ecdf.n
    u = np.clip(ecdf.counts(q) / (n + 1.0), 1.0 / (n + 1.0), n / (n + 1.0))
    c = copulas.npcop_pdf(copfit, u[:, 0], u[:, 1])
    return c * marg[0].pdf(q[:, 0]) * marg[1].pdf(q[:, 1])


def _npcop_rect_scores(ecdf: _MarginalEcdf, copfit, eps: float, q: np.ndarray) -> np.ndarray:
    # plain ECDF bounds: 0 and 1 map to the infinite tails of the
    # transformed kernels inside npcop_rect_prob
    lo = ecdf.counts(q - eps) / ecdf.n
    hi = ecdf.counts(q + eps) / ecdf.n
    prob = copulas.npcop_rect_prob(copfit, lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1])
    return prob / (4.0 * eps * eps)


def _pcop_density_scores(copula, marginals, q: np.ndarray) -> np.ndarray:
    u = np.clip(dists.marginal_cdf(marginals[0], q[:, 0]), _CDF_CLIP, 1.0 - _CDF_CLIP)
    v = np.clip(dists.marginal_cdf(marginals[1], q[:, 1]), _CDF_CLIP, 1.0 - _CDF_CLIP)
    c = copulas.copula_pdf(copula, u, v)
    return c * dists.marginal_pdf(marginals[0], q[:, 0]) * dists.marginal_pdf(marginals[1], q[:, 1])


def _pcop_rect_scores(copula, marginals, eps: float, q: np.ndarray) -> np.ndarray:
    m1, m2 = marginals
    u_lo = dists.marginal_cdf(m1, q[:, 0] - eps)
    u_hi = dists.marginal_cdf(m1, q[:, 0] + eps)
    v_lo = dists.marginal_cdf(m2, q[:, 1] - eps)
    v_hi = dists.marginal_cdf(m2, q[:, 1] + eps)
    prob = (
        copulas.copula_cdf(copula, u_hi, v_hi)
        - copulas.copula_cdf(copula, u_lo, v_hi)
        - copulas.copula_cdf(copula, u_hi, v_lo)
        + copulas.copula_cdf(copula, u_lo, v_lo)
    )
    return np.maximum(prob, 0.0) / (4.0 * eps * eps)


# ---------------------------------------------------------------------------
# fitting


def fill_spec(spec: MeasureSpec, n: int) -> MeasureSpec:
    """``spec`` with unset hyperparameters filled from the heuristics for a
    sample of ``n`` points. Raises ValueError when such a sample cannot fit
    it: each kind needs its ``_KINDS`` minimum; k-based kinds need k <= n;
    the parametric-copula kinds need their two marginal families."""
    kind = _KINDS[spec.kind]
    if spec.kind in _PCOP_KINDS and spec.marginal_families is None:
        raise ValueError(f"{spec.kind} requires marginal_families")
    if n < kind.min_n:
        raise ValueError(f"{spec.kind} needs at least {kind.min_n} points")
    if kind.param == "k" and spec.k is None:
        spec = replace(spec, k=heuristic_k(n) if spec.kind == M1_KNN_EUCL else min(30, n))
    if kind.param == "eps" and spec.eps is None:
        spec = replace(spec, eps=heuristic_eps(spec.kind, n, spec.support_class))
    if kind.param == "k" and spec.k > n:
        raise ValueError(f"k={spec.k} exceeds sample size {n}")
    return spec


def _fit_parametric(sample: Sample2D, spec: MeasureSpec):
    families = spec.marginal_families

    def fit():
        fits = [dists.fit_marginal_mle(sample.column(j), families[j]) for j in range(2)]
        marginals = (fits[0].model, fits[1].model)
        u = np.column_stack([
            dists.marginal_cdf(marginals[0], sample.column(0)),
            dists.marginal_cdf(marginals[1], sample.column(1)),
        ])
        u = np.clip(u, _CDF_CLIP, 1.0 - _CDF_CLIP)
        pseudo = copulas.PseudoObservations(u)
        model, _table = copulas.select_copula_aic(pseudo)
        return model, marginals

    # m0-pcop and m3-pcop fitted to one sample share this fit
    return sample.derived(("parametric", families), fit)


class FitError(RuntimeError):
    """A measure could not be fitted to the sample it was given."""


def fit_measure(spec: MeasureSpec, sample: Sample2D) -> FittedMeasure:
    """Fit one measure to a sample, its spec filled and checked by
    ``fill_spec``."""
    n = sample.n
    spec = fill_spec(spec, n)
    kind = _KINDS[spec.kind]
    hp = {kind.param: getattr(spec, kind.param)} if kind.param else {}
    family = None
    try:
        if spec.kind == M0_KDE:
            sds = np.std(sample.points, axis=0, ddof=1)
            sbar = float(sds.mean())
            if sbar <= 0:
                raise ValueError("degenerate sample: zero variance")
            # normal-scale rule (4/(d+2))^(1/(d+4)) n^(-1/(d+4)) sigma-bar; the
            # leading constant is exactly 1 for d = 2
            hp["h"] = sbar * n ** (-1.0 / 6.0)
            scores = partial(_kde_scores, sample.points, hp["h"])
        elif spec.kind == M1_KNN_EUCL:
            scores = partial(_knn_eucl_scores, sample.points, spec.k)
        elif spec.kind == M2_KNN_CDF:
            ecdf = _MarginalEcdf(sample.points)
            scores = partial(_knn_cdf_scores, sample.points, spec.k, ecdf, ecdf.counts(sample.points) / n)
        elif spec.kind == M3_ECDF_RECT:
            scores = partial(_ecdf_rect_scores, sample, spec.eps)
        elif spec.kind in (M0_NPCOP, M3_NPCOP_RECT):
            # m0-npcop's marginal KDEs come first, so a constant column fails with their zero-variance error
            marg = (_MarginalKde(sample.column(0)), _MarginalKde(sample.column(1))) if spec.kind == M0_NPCOP else None
            ecdf, copfit = _fit_npcop(sample)
            hp.update(h1=copfit.h1, h2=copfit.h2)
            if marg:
                hp.update(hm1=marg[0].h, hm2=marg[1].h)
                scores = partial(_npcop_density_scores, ecdf, copfit, marg)
            else:
                scores = partial(_npcop_rect_scores, ecdf, copfit, spec.eps)
        else:  # the parametric-copula kinds
            model, marginals = _fit_parametric(sample, spec)
            family = model.family
            hp.update(model.params())
            scores = (partial(_pcop_density_scores, model, marginals) if spec.kind == M0_PCOP
                      else partial(_pcop_rect_scores, model, marginals, spec.eps))
    except Exception as exc:
        raise FitError(f"fitting measure {spec.kind} failed: {exc}") from exc
    return FittedMeasure(spec, scores, hp, family)


def m0_pcop_from_models(copula_model, marginals) -> FittedMeasure:
    """Density-product measure with exact (injected) models, no fitting."""
    marginals = tuple(marginals)
    spec = MeasureSpec(M0_PCOP, marginal_families=tuple(m.family for m in marginals))
    return FittedMeasure(spec, partial(_pcop_density_scores, copula_model, marginals), {}, copula_model.family)


def m3_pcop_from_models(copula_model, marginals, eps: float) -> FittedMeasure:
    """Box-probability measure with exact (injected) models, no fitting."""
    marginals = tuple(marginals)
    spec = MeasureSpec(M3_PCOP_RECT, eps=eps, marginal_families=tuple(m.family for m in marginals))
    return FittedMeasure(spec, partial(_pcop_rect_scores, copula_model, marginals, eps), {"eps": eps},
                         copula_model.family)
