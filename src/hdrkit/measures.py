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
points, fitter, published k or eps rule, whether it takes marginal
families, and the sample checks (``_check_span``, ``_check_density_scale``)
that ``fit_measure`` runs before the fitter. A measure is its score
function: the row's fitter binds the kind's module-level scorer to what
the fit produced (m0-pcop's is ``copulas.joint_pdf``, also the scenarios'
true density), and ``fit_measure`` wraps it in a ``FittedMeasure``.
Fitting is single-threaded; scoring is pure, so one fitted measure can
serve many workers. The query-by-sample passes walk ``core._row_blocks``;
all but m2's grid search hand ``core._row_map`` a function of a block's
rows, and it puts a large pass on threads; m1, m2 and m3-ecdf share ``_scan``.

What a fit derives from the sample's points alone is kept on the sample
by ``Sample2D.derived(key, ...)``, so every measure and every k or eps
fitted to one sample shares it. Its seven keys:

* ``("ecdf",)``: the marginal ECDF (``_MarginalEcdf``, built by ``_ecdf``) of m2, m0-npcop and m3-npcop,
  with its values at the sample points
* ``("npcop",)``: the copula fit that m0-npcop and m3-npcop share (``_fit_npcop``)
* ``("parametric", families)``: the marginal and copula fits of m0-pcop and m3-pcop (``_fit_pcop``)
* ``(_euclid,)``, ``(_chebyshev,)``: the in-sample distance matrices from which m1 and m2
  (Euclidean) and m3-ecdf (Chebyshev) score the sample's own points, for n <= 2000 (``_MEMO_MAX``)
* ``("grid",)``: m2's cell grid (``_CellGrid``) for other queries and larger samples, which finds
  the neighbours of a full distance row to the bit from a small share of its distances
* ``("span",)``: the coordinates' span, which the sample checks read
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import copulas, distributions as dists
from .core import Orientation, Sample2D, ScoreVector, _k_smallest, _row_blocks, _row_counts, _row_map

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

_CDF_CLIP = 1e-12  # guard before evaluating a copula density/CDF at a parametric-CDF coordinate
# largest in-sample distance matrix m1 and m2 (Euclidean) or m3-ecdf (Chebyshev)
# keeps, in entries: n <= 2000, 32 MB of float64 each
_MEMO_MAX = 4_000_000
# smallest span area ptp_x * ptp_y the density kinds fit (see _check_density_scale)
_DENSITY_AREA_MIN = 1e-303
# sample points per cell of m2's neighbour grid, on average
_GRID_FILL = 8


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
            if len(families) != 2 or not all(f in dists.MARGINAL_FAMILIES for f in families):
                raise ValueError(f"{self.kind} takes two marginal families from {dists.MARGINAL_FAMILIES}, "
                                 f"got {families}")
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
    inv2h2 = 1.0 / (2.0 * h * h)
    out = _row_map(np.empty(q.shape[0]), n, lambda sl: np.exp(-_sq_dist(q[sl], pts) * inv2h2).sum(axis=1))
    return out / (n * 2.0 * np.pi * h * h)


def _knn_eucl_scores(sample: Sample2D, k: int, q: np.ndarray) -> np.ndarray:
    def k_sum(sl, d):
        if k >= sample.n:
            return d.sum(axis=1)
        # the sum of the k smallest values is tie-invariant
        return np.partition(d, k - 1, axis=1)[:, :k].sum(axis=1)

    return _scan(sample, q, _euclid, k_sum)


class _MarginalEcdf:
    """The sample's marginal ECDFs, as counts: for each query coordinate,
    how many sample entries of its column are <= it; ``at_points`` holds
    the sample points' own ECDF values, which every k of m2 reads."""

    def __init__(self, pts: np.ndarray):
        self.sorted_cols = (np.sort(pts[:, 0]), np.sort(pts[:, 1]))
        self.n = pts.shape[0]
        self.at_points = self.counts(pts) / self.n

    def counts(self, q: np.ndarray) -> np.ndarray:
        """(m, 2) integer counts at (m, 2) query points."""
        return np.column_stack([np.searchsorted(self.sorted_cols[j], q[:, j], side="right") for j in range(2)])


class _CellGrid:
    """The sample's points sorted into a grid of equal cells over their
    span, for exact k-nearest-neighbour searches (Bentley, Stanat &
    Williams, *Inf. Proc. Letters* 6, 1977). About ``_GRID_FILL`` points
    share a cell, and the cell counts per axis follow the ratio of the
    spans, so cells are near square; a ratio, not an area, so nothing
    underflows at tiny scales. A point's cell is where
    ``np.searchsorted(edges, coordinate, side="right")`` puts it, so every
    point of a cell lies on its side of each edge exactly."""

    def __init__(self, pts: np.ndarray, span: tuple):
        n = pts.shape[0]
        cells = max(1, n // _GRID_FILL)
        dx, dy = span
        if dx > 0 and dy > 0:
            gx = int(min(cells, max(1.0, math.sqrt(cells * dx / dy) + 0.5)))
            shape = (gx, max(1, cells // gx))
        else:  # one axis or both constant: cells along the other
            shape = (cells if dx > 0 else 1, cells if dy > 0 else 1)
        lo = pts.min(axis=0)
        self.pts = pts
        self.shape = shape
        # each axis's cell edges, ascending, from -inf to inf: cell i spans edges[i] to edges[i + 1]
        self.edges = [np.concatenate(([-np.inf], lo[j] + span[j] * (np.arange(1, g) / g), [np.inf]))
                      for j, g in enumerate(shape)]
        cell = self._cells(pts)
        # sample indices by cell, ascending within a cell; cell c's are order[starts[c]:starts[c + 1]]
        self.order = np.argsort(cell, kind="stable")
        self.starts = np.concatenate(([0], np.cumsum(np.bincount(cell, minlength=shape[0] * shape[1]))))

    def _cells(self, q: np.ndarray) -> np.ndarray:
        """The cell of each (m, 2) point, row-major by y: ``cy * gx + cx``."""
        cx, cy = (np.searchsorted(self.edges[j][1:-1], q[:, j], side="right") for j in range(2))
        return cy * self.shape[0] + cx

    def nearest(self, q: np.ndarray, k: int):
        """Yields ``(rows, idx, dist)`` until every one of the (m, 2)
        queries has been in ``rows`` once: ``idx`` holds each row's k
        nearest sample indices, ordered by (distance, index), and ``dist``
        their ``_euclid`` distances; that is, ``_k_smallest`` of the
        query's full distance row, to the bit.

        Each cell's queries search a growing ring of cells around it. A
        query is settled when its k-th distance is strictly below its
        distance to the edge of the searched block, computed with
        ``_euclid``'s subtraction and square root: rounding is monotone, so
        every point outside the block is at least that far, and none can
        be nearer or tie. The candidates are sorted by sample index, so
        ``_k_smallest``'s column tie-break is the index tie-break. The ring
        grows until every query is settled or it covers the whole grid, and
        a cell's queries take row blocks of ``core._row_blocks``, so no
        intermediate outgrows its budget."""
        gx, gy = self.shape
        pts, order, starts, edges = self.pts, self.order, self.starts, self.edges
        cell = self._cells(q)
        by_cell = np.argsort(cell, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(np.bincount(cell, minlength=gx * gy))))
        for c in np.flatnonzero(np.diff(bounds)):
            cy, cx = divmod(int(c), gx)
            todo = by_cell[bounds[c]:bounds[c + 1]]
            r = 0
            while todo.size:
                x0, x1, y0, y1 = max(cx - r, 0), min(cx + r, gx - 1), max(cy - r, 0), min(cy + r, gy - 1)
                # most queries settle within one ring; doubling past two keeps
                # a k near n to a few rings rather than one per cell
                r = r + 1 if r < 2 else 2 * r
                whole = x0 == 0 and y0 == 0 and x1 == gx - 1 and y1 == gy - 1
                cand = np.sort(np.concatenate([order[starts[y * gx + x0]:starts[y * gx + x1 + 1]]
                                               for y in range(y0, y1 + 1)]))
                if cand.size < k and not whole:
                    continue
                # each query's squared distance to the block's nearest edge
                qt = q[todo]
                edge = np.full(todo.size, np.inf)
                with np.errstate(over="ignore"):  # an overflow to inf is still a bound
                    for j, (a, b) in enumerate(((x0, x1), (y0, y1))):
                        for e in (edges[j][a], edges[j][b + 1]):  # +-inf at the grid's ends
                            t = qt[:, j] - e
                            np.minimum(edge, t * t, out=edge)
                edge = np.sqrt(edge)
                cp = pts[cand]
                left = []
                for sl in _row_blocks(todo.size, cand.size):
                    d = _euclid(qt[sl], cp)
                    col = _k_smallest(d, k)
                    dk = np.take_along_axis(d, col, axis=1)
                    done = (dk[:, -1] < edge[sl]) | whole
                    yield todo[sl][done], cand[col[done]], dk[done]
                    left.append(todo[sl][~done])
                todo = np.concatenate(left)


def _knn_cdf_scores(sample: Sample2D, k: int, ecdf: _MarginalEcdf, q: np.ndarray) -> np.ndarray:
    """m2 at the queries: over each query's k nearest sample points but the
    nearest, the sum of the ratios of their ECDF distance to their
    Euclidean one. The neighbours come from ``_scan`` of the in-sample
    matrix when ``_in_sample_matrix`` keeps one, else from the cell grid a
    few rows at a time, each used at once: keeping (m, k) arrays for all of
    ``apply``'s 5,000 points raised its peak RSS by 4 MB."""
    f_pts = ecdf.at_points

    def ratio_sum(fq, idx, dist):
        # each query's nearest (itself, for a sample point) is dropped
        idx, dist = idx[:, 1:], dist[:, 1:]
        du = fq[:, None, 0] - f_pts[idx, 0]
        dv = fq[:, None, 1] - f_pts[idx, 1]
        dp = np.sqrt(du * du + dv * dv)
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(dist > 0.0, dp / dist, 0.0)  # duplicate points contribute 0
        return terms.sum(axis=1)

    def memo_rows(sl, d):
        col = _k_smallest(d, k)
        return ratio_sum(f_pts[sl], col, np.take_along_axis(d, col, axis=1))

    if _in_sample_matrix(sample, q, _euclid) is not None:
        return _scan(sample, q, _euclid, memo_rows)
    fq = ecdf.counts(q) / sample.n
    out = np.empty(q.shape[0])
    for rows, idx, dist in sample.derived(("grid",), lambda: _CellGrid(sample.points, _span(sample))).nearest(q, k):
        out[rows] = ratio_sum(fq[rows], idx, dist)
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


def _in_sample_matrix(sample: Sample2D, q: np.ndarray, dist):
    """``dist(pts, pts)`` when the queries are the sample's own points and
    it has at most ``_MEMO_MAX`` entries, else None. It is built once per
    sample and kept under the distance function itself,
    ``sample.derived((dist,), ...)``, so every k or eps fitted to the
    sample shares it (the C06 tuning curves fit 50 k and 31 eps to each),
    as do m1 and m2 for the Euclidean one. It is filled in row blocks, so
    building it takes no n-by-n temporaries besides itself."""
    pts = sample.points
    n = pts.shape[0]
    if q is not pts or n * n > _MEMO_MAX:
        return None
    return sample.derived((dist,), lambda: _row_map(np.empty((n, n)), n, lambda sl: dist(pts[sl], pts)))


def _scan(sample: Sample2D, q: np.ndarray, dist, reduce) -> np.ndarray:
    """``reduce(sl, rows)`` of each ``core._row_map`` slice of the queries
    and their ``dist`` rows to the sample points: from the in-sample matrix
    when ``_in_sample_matrix`` keeps one, else computed block by block."""
    pts = sample.points
    memo = _in_sample_matrix(sample, q, dist)
    return _row_map(np.empty(q.shape[0]), sample.n,
                    lambda sl: reduce(sl, dist(q[sl], pts) if memo is None else memo[sl]))


def _ecdf_rect_scores(sample: Sample2D, eps: float, q: np.ndarray) -> np.ndarray:
    counts = _scan(sample, q, _chebyshev, lambda sl, d: _row_counts(d <= eps))
    return counts / (sample.n * 4.0 * eps * eps)


def _marginal_h(col: np.ndarray) -> float:
    """The normal-scale bandwidth of a univariate Gaussian KDE of ``col``."""
    with np.errstate(over="ignore"):
        sd = float(np.std(col, ddof=1))
    if not 0 < sd < math.inf:  # an infinite bandwidth would put every point inside
        raise ValueError("degenerate sample: zero variance" if sd <= 0
                         else f"marginal standard deviation is {sd:g}")
    return (4.0 / 3.0) ** 0.2 * sd * col.size ** (-0.2)


def _kde1(col: np.ndarray, h: float, t: np.ndarray) -> np.ndarray:
    """The univariate Gaussian KDE of ``col`` with bandwidth ``h`` at ``t``."""
    n = col.size

    def rows(sl):
        z = (t[sl, None] - col) / h
        return np.exp(-0.5 * z * z).sum(axis=1)

    return _row_map(np.empty(t.size), n, rows) / (n * h * math.sqrt(2.0 * math.pi))


def _npcop_density_scores(ecdf: _MarginalEcdf, copfit, pts: np.ndarray, h: tuple, q: np.ndarray) -> np.ndarray:
    # pseudo-coordinates n/(n+1) * F_n, clamped to [1/(n+1), n/(n+1)] so
    # the normal quantile stays finite; sample points with distinct
    # coordinates land exactly on ranks/(n+1)
    n = ecdf.n
    u = np.clip(ecdf.counts(q) / (n + 1.0), 1.0 / (n + 1.0), n / (n + 1.0))
    c = copulas.npcop_pdf(copfit, u[:, 0], u[:, 1])
    return c * _kde1(pts[:, 0], h[0], q[:, 0]) * _kde1(pts[:, 1], h[1], q[:, 1])


def _npcop_rect_scores(ecdf: _MarginalEcdf, copfit, eps: float, q: np.ndarray) -> np.ndarray:
    # plain ECDF bounds: 0 and 1 map to the infinite tails of the
    # transformed kernels inside npcop_rect_prob
    lo = ecdf.counts(q - eps) / ecdf.n
    hi = ecdf.counts(q + eps) / ecdf.n
    prob = copulas.npcop_rect_prob(copfit, lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1])
    return prob / (4.0 * eps * eps)


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


def _ecdf(sample: Sample2D) -> _MarginalEcdf:
    """The sample's marginal ECDF, kept per sample for every kind, k and eps that reads it."""
    return sample.derived(("ecdf",), partial(_MarginalEcdf, sample.points))


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
    with np.errstate(over="ignore"):
        sbar = float(np.std(sample.points, axis=0, ddof=1).mean())
    if not 0 < sbar < math.inf:  # an infinite bandwidth would put every point inside
        raise ValueError("degenerate sample: zero variance" if sbar <= 0 else f"mean standard deviation is {sbar:g}")
    # normal-scale rule (4/(d+2))^(1/(d+4)) n^(-1/(d+4)) sigma-bar; the
    # leading constant is exactly 1 for d = 2
    h = sbar * sample.n ** (-1.0 / 6.0)
    return partial(_kde_scores, sample.points, h), {"h": h}, None


def _fit_knn_eucl(sample: Sample2D, spec: MeasureSpec):
    return partial(_knn_eucl_scores, sample, spec.k), {}, None


def _fit_knn_cdf(sample: Sample2D, spec: MeasureSpec):
    return partial(_knn_cdf_scores, sample, spec.k, _ecdf(sample)), {}, None


def _fit_ecdf_rect(sample: Sample2D, spec: MeasureSpec):
    return partial(_ecdf_rect_scores, sample, spec.eps), {}, None


def _fit_npcop(sample: Sample2D, spec: MeasureSpec):
    """m0-npcop (no eps) or m3-npcop: one sample's ECDF (m2's too) and copula fit serve both."""
    pts = sample.points
    # m0-npcop's marginal bandwidths come first, so a constant column fails with their zero-variance error
    hm = None if spec.eps else (_marginal_h(sample.column(0)), _marginal_h(sample.column(1)))
    ecdf = _ecdf(sample)
    copfit = sample.derived(("npcop",), lambda: copulas.npcop_fit(copulas.pseudo_observations(pts)))
    hp = {"h1": copfit.h1, "h2": copfit.h2}
    if spec.eps:
        return partial(_npcop_rect_scores, ecdf, copfit, spec.eps), hp, None
    return partial(_npcop_density_scores, ecdf, copfit, pts, hm), dict(hp, hm1=hm[0], hm2=hm[1]), None


def _fit_pcop(sample: Sample2D, spec: MeasureSpec):
    """m0-pcop (no eps) or m3-pcop: one sample's marginal and copula fits serve both."""
    families = spec.marginal_families

    def fit():
        marginals = tuple(dists.fit_marginal_mle(sample.column(j), families[j]).model for j in range(2))
        u = np.column_stack([dists.marginal_cdf(marginals[j], sample.column(j)) for j in range(2)])
        model, _table = copulas.select_copula_aic(copulas.PseudoObservations(np.clip(u, _CDF_CLIP, 1.0 - _CDF_CLIP)))
        return model, marginals

    model, marginals = sample.derived(("parametric", families), fit)
    scores = (partial(_pcop_rect_scores, model, marginals, spec.eps) if spec.eps
              else partial(copulas.joint_pdf, model, marginals, _CDF_CLIP, 1.0 - _CDF_CLIP))
    return scores, model.params(), model.family


class _Kind(NamedTuple):
    param: str | None  # the hyperparameter it tunes: "k", "eps" or None
    orientation: Orientation  # which way its scores point
    min_n: int  # the fewest points it fits
    fit: Callable  # its fitter, above
    default: Callable | None = None  # (n, support class) -> its published k or eps rule
    families: bool = False  # it fits the two parametric marginal families a spec names
    checks: tuple = ()  # the sample checks fit_measure runs, in order, before the fitter


_CONC, _SPARS = Orientation.CONCENTRATION, Orientation.SPARSITY
# everything a kind is; the copula kinds fit marginal and copula models
_KINDS = {
    M0_KDE: _Kind(None, _CONC, 2, _fit_kde, checks=(_check_span, _check_density_scale)),
    M0_NPCOP: _Kind(None, _CONC, copulas._MIN_FIT_N, _fit_npcop, checks=(_check_density_scale,)),
    M0_PCOP: _Kind(None, _CONC, copulas._MIN_FIT_N, _fit_pcop, families=True, checks=(_check_density_scale,)),
    M1_KNN_EUCL: _Kind("k", _SPARS, 2, _fit_knn_eucl, lambda n, support: heuristic_k(n), checks=(_check_span,)),
    M2_KNN_CDF: _Kind("k", _CONC, 2, _fit_knn_cdf, lambda n, support: min(30, n), checks=(_check_span,)),
    M3_ECDF_RECT: _Kind("eps", _CONC, 2, _fit_ecdf_rect,
                        lambda n, support: 0.10 if support == SIMPLEX else math.exp(2.13 - 0.30 * math.log(n))),
    M3_NPCOP_RECT: _Kind("eps", _CONC, copulas._MIN_FIT_N, _fit_npcop, lambda n, support: math.exp(
        -1.22 - 0.23 * math.log(n) if support == SIMPLEX else 1.74 - 0.26 * math.log(n))),
    M3_PCOP_RECT: _Kind("eps", _CONC, copulas._MIN_FIT_N, _fit_pcop,
                        lambda n, support: 0.02 if support == SIMPLEX else math.exp(1.60 - 0.41 * math.log(n)),
                        families=True),
}
MEASURE_KINDS = tuple(_KINDS)


class FitError(RuntimeError):
    """A measure could not be fitted to the sample it was given."""


def fit_measure(spec: MeasureSpec, sample: Sample2D) -> FittedMeasure:
    """Fit one measure to a sample, its spec filled and checked by
    ``fill_spec``, with its ``_KINDS`` row's sample checks and fitter."""
    spec = fill_spec(spec, sample.n)
    kind = _KINDS[spec.kind]
    try:
        for check in kind.checks:
            check(sample)
        scores, hp, family = kind.fit(sample, spec)
    except Exception as exc:
        raise FitError(f"fitting measure {spec.kind} failed: {exc}") from exc
    if kind.param:
        hp[kind.param] = getattr(spec, kind.param)
    return FittedMeasure(spec, scores, hp, family)

