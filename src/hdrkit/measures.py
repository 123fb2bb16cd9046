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

A kind is its ``_KINDS`` row: tuned hyperparameter, orientation, fewest
points, fitter, published k or eps rule, and whether it takes marginal
families. A measure is its score function: the row's fitter binds the
kind's module-level scorer to what the fit produced, and ``fit_measure``
wraps it in a ``FittedMeasure``. Fitting is single-threaded; scoring is
pure, so one fitted measure can serve many workers.
The query-by-sample passes walk ``core._row_blocks``, all but m2's through
``core._each_row_block``, which puts a large pass on threads; the sample's
marginal ECDF (``_MarginalEcdf``) serves m2, m0-npcop and m3-npcop.
m0-npcop and m3-npcop share ``_fit_npcop`` and, fitted to one sample, one
ECDF and copula fit (``Sample2D.derived(("npcop",), ...)``); m0-pcop and
m3-pcop share ``_fit_pcop`` and its parametric fit likewise.
m1 and m2 score the sample's own points from its in-sample Euclidean
distance matrix, and m3-ecdf from its Chebyshev one, memoised as
``Sample2D.derived(("euclid",), ...)`` and ``(("chebyshev",), ...)`` for
n <= 2000, so every k or eps fitted to one sample shares one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import copulas, distributions as dists
from .core import Orientation, Sample2D, ScoreVector, _each_row_block, _k_smallest, _row_blocks, _row_counts

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

_MARGINAL_FAMILIES = (dists.NORMAL, dists.STUDENT_T, dists.NORMAL_MIXTURE, dists.BETA11A)

_CDF_CLIP = 1e-12  # guard before evaluating a copula density/CDF at a parametric-CDF coordinate
# largest in-sample distance matrix m1 and m2 (Euclidean) or m3-ecdf (Chebyshev)
# keeps, in entries: n <= 2000, 32 MB of float64 each
_MEMO_MAX = 4_000_000
# smallest span area ptp_x * ptp_y the density kinds fit (see _check_density_scale)
_DENSITY_AREA_MIN = 1e-303


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
            if not _KINDS[self.kind].families:
                raise ValueError(f"{self.kind} takes no marginal families")
            families = tuple(self.marginal_families)
            if len(families) != 2 or not all(f in _MARGINAL_FAMILIES for f in families):
                raise ValueError(f"{self.kind} takes two marginal families from {_MARGINAL_FAMILIES}, got {families}")
            object.__setattr__(self, "marginal_families", families)


def tuned_param(kind: str) -> str | None:
    """The hyperparameter ``kind`` takes: "k", "eps", or None for none;
    the one check that ``kind`` names a measure."""
    if kind not in _KINDS:
        raise ValueError(f"unknown measure {kind!r} (choose from {', '.join(MEASURE_KINDS)})")
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
        marginal_families=tuple(marginal_families) if _KINDS[kind].families else None,
        support_class=support_class,
    )


def heuristic_k(n: int) -> int:
    """Neighbor count rule round(sqrt(n/2)), never below 1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return max(1, int(math.floor(math.sqrt(n / 2.0) + 0.5)))


def heuristic_eps(kind: str, n: int, support_class: str = UNBOUNDED) -> float:
    """Published box half-width rule of an eps-based measure (its ``_KINDS``
    row's default) for ``n`` points of a support class."""
    if tuned_param(kind) != "eps":
        raise ValueError(f"{kind} is not an eps-based measure")
    if n < 2:
        raise ValueError("n must be >= 2")
    return _KINDS[kind].default(n, support_class)


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

    def block(sl):
        out[sl] = np.exp(-_sq_dist(q[sl], pts) * inv2h2).sum(axis=1)

    _each_row_block(q.shape[0], n, block)
    return out / (n * 2.0 * np.pi * h * h)


def _knn_eucl_scores(sample: Sample2D, k: int, q: np.ndarray) -> np.ndarray:
    pts = sample.points
    n = pts.shape[0]
    memo = _in_sample_matrix(sample, q, "euclid", _euclid)
    out = np.empty(q.shape[0])

    def block(sl):
        d = _euclid(q[sl], pts) if memo is None else memo[sl]
        if k >= n:
            out[sl] = d.sum(axis=1)
        else:
            # the sum of the k smallest values is tie-invariant
            out[sl] = np.partition(d, k - 1, axis=1)[:, :k].sum(axis=1)

    _each_row_block(q.shape[0], n, block)
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


def _knn_cdf_scores(sample: Sample2D, k: int, ecdf: _MarginalEcdf, f_pts: np.ndarray, q: np.ndarray) -> np.ndarray:
    # f_pts: the ECDF values of the sample points themselves. One thread: on
    # two, its short blocks (6 rows at n = 5000) took longer, at 1.5 to 2
    # times the CPU time
    pts = sample.points
    n = pts.shape[0]
    memo = _in_sample_matrix(sample, q, "euclid", _euclid)
    fq = ecdf.counts(q) / n
    out = np.empty(q.shape[0])
    for sl in _row_blocks(q.shape[0], 2 * n):
        d = _euclid(q[sl], pts) if memo is None else memo[sl]
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


def _euclid(q: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Euclidean distance from each query row to each sample point: the
    square root of ``_sq_dist``, taken in place."""
    d = _sq_dist(q, pts)
    return np.sqrt(d, out=d)


def _chebyshev(q: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """max(|dx|, |dy|) from each query row to each sample point. A point is
    in the eps-box of a query exactly when this is <= eps: abs and max are
    exact in floating point, so the test matches |dx| <= eps & |dy| <= eps."""
    dx = q[:, 0:1] - pts[:, 0]
    dy = q[:, 1:2] - pts[:, 1]
    # in place: two rows-by-n temporaries instead of three
    return np.maximum(np.abs(dx, out=dx), np.abs(dy, out=dy), out=dx)


def _in_sample_matrix(sample: Sample2D, q: np.ndarray, key: str, dist):
    """``dist(pts, pts)`` when the queries are the sample's own points and
    it has at most ``_MEMO_MAX`` entries, else None. It is built once per
    sample, kept as ``sample.derived((key,), ...)``, so every k or eps
    fitted to the sample shares it (the C06 tuning curves fit 50 k and 31
    eps to each), as do m1 and m2 for the Euclidean one. It is filled in
    row blocks, so building it takes no n-by-n temporaries besides
    itself."""
    pts = sample.points
    n = pts.shape[0]
    if q is not pts or n * n > _MEMO_MAX:
        return None

    def build():
        out = np.empty((n, n))

        def block(sl):
            out[sl] = dist(pts[sl], pts)

        _each_row_block(n, n, block)
        return out

    return sample.derived((key,), build)


def _ecdf_rect_scores(sample: Sample2D, eps: float, q: np.ndarray) -> np.ndarray:
    pts = sample.points
    n = pts.shape[0]
    memo = _in_sample_matrix(sample, q, "chebyshev", _chebyshev)
    counts = np.empty(q.shape[0])

    def block(sl):
        d = _chebyshev(q[sl], pts) if memo is None else memo[sl]
        counts[sl] = _row_counts(d <= eps)

    _each_row_block(q.shape[0], n, block)
    return counts / (n * 4.0 * eps * eps)


class _MarginalKde:
    """Univariate Gaussian KDE with the normal-scale bandwidth."""

    def __init__(self, col: np.ndarray):
        self.col = col
        with np.errstate(over="ignore"):
            sd = float(np.std(col, ddof=1))
        if not 0 < sd < math.inf:  # an infinite bandwidth would put every point inside
            raise ValueError("degenerate sample: zero variance" if sd <= 0
                             else f"marginal standard deviation is {sd:g}")
        self.h = (4.0 / 3.0) ** 0.2 * sd * col.size ** (-0.2)

    def pdf(self, t: np.ndarray) -> np.ndarray:
        n = self.col.size
        out = np.empty(t.size)

        def block(sl):
            z = (t[sl, None] - self.col) / self.h
            out[sl] = np.exp(-0.5 * z * z).sum(axis=1)

        _each_row_block(t.size, n, block)
        return out / (n * self.h * math.sqrt(2.0 * math.pi))


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
    """``spec`` with an unset k or eps filled from its ``_KINDS`` row's rule
    for ``n`` points. Raises ValueError when such a sample cannot fit it: each
    kind needs its row's minimum; k-based kinds need k <= n; the
    parametric-copula kinds need their two marginal families."""
    kind = _KINDS[spec.kind]
    if kind.families and spec.marginal_families is None:
        raise ValueError(f"{spec.kind} requires marginal_families")
    if n < kind.min_n:
        raise ValueError(f"{spec.kind} needs at least {kind.min_n} points")
    if kind.param and getattr(spec, kind.param) is None:
        spec = replace(spec, **{kind.param: kind.default(n, spec.support_class)})
    if kind.param == "k" and spec.k > n:
        raise ValueError(f"k={spec.k} exceeds sample size {n}")
    return spec


def _span(sample: Sample2D) -> tuple:
    """The coordinates' span ``(ptp_x, ptp_y)``, kept per sample: the scale
    checks below read it for every k or eps a tune fits."""
    def span():
        with np.errstate(over="ignore"):
            return tuple(np.ptp(sample.points, axis=0).tolist())

    return sample.derived(("span",), span)


def _check_span(sample: Sample2D) -> None:
    """Raise unless ``ptp_x^2 + ptp_y^2`` is finite: it bounds every
    ``_sq_dist`` entry between sample points, so the distance kinds cannot
    overflow."""
    dx, dy = _span(sample)
    if not math.isfinite(dx * dx + dy * dy):
        raise ValueError(f"the coordinates span {dx:g} by {dy:g}, so squared distances overflow")


def _check_density_scale(sample: Sample2D) -> None:
    """Raise when the coordinates span so small an area that the density
    kinds' scores overflow. A density is of order ``1/(sd_x * sd_y)``, at
    least ``1/(ptp_x * ptp_y)``; below ``_DENSITY_AREA_MIN`` that leaves
    the largest float (1.8e308) less than 1e5 of room for what the scoring
    reaches over it: 4 to 7 for the peak density of 300 normal points, and
    about 100 for m0-kde's ``1/(2h^2)``. A constant column is left to the
    fits' own zero-variance checks."""
    dx, dy = _span(sample)
    if dx > 0 and dy > 0 and dx * dy < _DENSITY_AREA_MIN:
        raise ValueError(f"the data scale is too small: the coordinates span {dx:g} by {dy:g}, "
                         "so densities overflow")


# fitters: (sample, filled spec) -> (score function, hyperparameters, copula family or None)
def _fit_kde(sample: Sample2D, spec: MeasureSpec):
    _check_span(sample)
    _check_density_scale(sample)
    with np.errstate(over="ignore"):
        sbar = float(np.std(sample.points, axis=0, ddof=1).mean())
    if not 0 < sbar < math.inf:  # an infinite bandwidth would put every point inside
        raise ValueError("degenerate sample: zero variance" if sbar <= 0 else f"mean standard deviation is {sbar:g}")
    # normal-scale rule (4/(d+2))^(1/(d+4)) n^(-1/(d+4)) sigma-bar; the
    # leading constant is exactly 1 for d = 2
    h = sbar * sample.n ** (-1.0 / 6.0)
    return partial(_kde_scores, sample.points, h), {"h": h}, None


def _fit_knn_eucl(sample: Sample2D, spec: MeasureSpec):
    _check_span(sample)
    return partial(_knn_eucl_scores, sample, spec.k), {}, None


def _fit_knn_cdf(sample: Sample2D, spec: MeasureSpec):
    _check_span(sample)
    ecdf = _MarginalEcdf(sample.points)
    return partial(_knn_cdf_scores, sample, spec.k, ecdf, ecdf.counts(sample.points) / sample.n), {}, None


def _fit_ecdf_rect(sample: Sample2D, spec: MeasureSpec):
    return partial(_ecdf_rect_scores, sample, spec.eps), {}, None


def _fit_npcop(sample: Sample2D, spec: MeasureSpec):
    """m0-npcop (no eps) or m3-npcop: one sample's ECDF and copula fit serve both."""
    pts = sample.points
    marg = None
    if not spec.eps:
        _check_density_scale(sample)
        # m0-npcop's marginal KDEs come first, so a constant column fails with their zero-variance error
        marg = (_MarginalKde(sample.column(0)), _MarginalKde(sample.column(1)))
    ecdf, copfit = sample.derived(("npcop",), lambda: (_MarginalEcdf(pts),
                                                       copulas.npcop_fit(copulas.pseudo_observations(pts))))
    hp = {"h1": copfit.h1, "h2": copfit.h2}
    if spec.eps:
        return partial(_npcop_rect_scores, ecdf, copfit, spec.eps), hp, None
    return partial(_npcop_density_scores, ecdf, copfit, marg), dict(hp, hm1=marg[0].h, hm2=marg[1].h), None


def _fit_pcop(sample: Sample2D, spec: MeasureSpec):
    """m0-pcop (no eps) or m3-pcop: one sample's marginal and copula fits serve both."""
    families = spec.marginal_families
    if not spec.eps:
        _check_density_scale(sample)

    def fit():
        marginals = tuple(dists.fit_marginal_mle(sample.column(j), families[j]).model for j in range(2))
        u = np.column_stack([dists.marginal_cdf(marginals[j], sample.column(j)) for j in range(2)])
        model, _table = copulas.select_copula_aic(copulas.PseudoObservations(np.clip(u, _CDF_CLIP, 1.0 - _CDF_CLIP)))
        return model, marginals

    model, marginals = sample.derived(("parametric", families), fit)
    scores = (partial(_pcop_rect_scores, model, marginals, spec.eps) if spec.eps
              else partial(_pcop_density_scores, model, marginals))
    return scores, model.params(), model.family


class _Kind(NamedTuple):
    param: str | None  # the hyperparameter it tunes: "k", "eps" or None
    orientation: Orientation  # which way its scores point
    min_n: int  # the fewest points it fits
    fit: Callable  # its fitter, above
    default: Callable | None = None  # (n, support class) -> its published k or eps rule
    families: bool = False  # it fits the two parametric marginal families a spec names


_CONC, _SPARS = Orientation.CONCENTRATION, Orientation.SPARSITY
# everything a kind is; the copula kinds fit marginal and copula models
_KINDS = {
    M0_KDE: _Kind(None, _CONC, 2, _fit_kde),
    M0_NPCOP: _Kind(None, _CONC, 20, _fit_npcop),
    M0_PCOP: _Kind(None, _CONC, 20, _fit_pcop, families=True),
    M1_KNN_EUCL: _Kind("k", _SPARS, 2, _fit_knn_eucl, lambda n, support: heuristic_k(n)),
    M2_KNN_CDF: _Kind("k", _CONC, 2, _fit_knn_cdf, lambda n, support: min(30, n)),
    M3_ECDF_RECT: _Kind("eps", _CONC, 2, _fit_ecdf_rect,
                        lambda n, support: 0.10 if support == SIMPLEX else math.exp(2.13 - 0.30 * math.log(n))),
    M3_NPCOP_RECT: _Kind("eps", _CONC, 20, _fit_npcop, lambda n, support: math.exp(
        -1.22 - 0.23 * math.log(n) if support == SIMPLEX else 1.74 - 0.26 * math.log(n))),
    M3_PCOP_RECT: _Kind("eps", _CONC, 20, _fit_pcop,
                        lambda n, support: 0.02 if support == SIMPLEX else math.exp(1.60 - 0.41 * math.log(n)),
                        families=True),
}
MEASURE_KINDS = tuple(_KINDS)


class FitError(RuntimeError):
    """A measure could not be fitted to the sample it was given."""


def fit_measure(spec: MeasureSpec, sample: Sample2D) -> FittedMeasure:
    """Fit one measure to a sample, its spec filled and checked by
    ``fill_spec``, with its ``_KINDS`` row's fitter."""
    spec = fill_spec(spec, sample.n)
    kind = _KINDS[spec.kind]
    try:
        scores, hp, family = kind.fit(sample, spec)
    except Exception as exc:
        raise FitError(f"fitting measure {spec.kind} failed: {exc}") from exc
    if kind.param:
        hp[kind.param] = getattr(spec, kind.param)
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
