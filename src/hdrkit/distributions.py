"""Univariate marginal families and bivariate elliptical CDF primitives.

Marginal families cover the four simulation schemes used by the scenario
grid: normal, standard Student-t, two-component normal mixture with a
shared variance, and the Beta(1, a+1) law that arises as the marginal of a
Dirichlet(1, 1, a) vector (CDF ``1 - (1-x)^(a+1)`` on [0, 1]).

The normal and Student-t pdf, cdf and quantile are written on
``scipy.special`` (``ndtr``, ``ndtri``, ``stdtr``, ``stdtrit``, ``poch``),
bit for bit as ``scipy.stats`` forms them, so importing the package never
loads ``scipy.stats``; the t quantile and CDF also hold in the far lower
tail, where ``stdtrit`` and ``stdtr`` lose it. The bivariate normal CDF is
evaluated with a fixed-order Gauss-Legendre reduction, and the bivariate
Student-t CDF, which takes whole degrees of freedom only, with its finite
closed-form series; both are deterministic and vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "MarginalModel",
    "FitReport",
    "normal",
    "student_t",
    "normal_mixture",
    "beta11a",
    "marginal_pdf",
    "marginal_cdf",
    "marginal_quantile",
    "fit_marginal_mle",
    "bvn_cdf",
    "bvt_cdf",
]

NORMAL = "normal"
STUDENT_T = "student_t"
NORMAL_MIXTURE = "normal_mixture"
BETA11A = "beta11a"
MARGINAL_FAMILIES = (NORMAL, STUDENT_T, NORMAL_MIXTURE, BETA11A)

# profile-likelihood grid for t degrees of freedom (marginal fits)
NU_GRID = np.arange(1.0, 30.0 + 0.25, 0.5)
# mixture EM stops once a step gains less log-likelihood than _EM_TOL, or after _EM_MAX_ITER steps
_EM_TOL, _EM_MAX_ITER = 1e-8, 500
# stdtrit's CDF round trip is within 2e-13 from here to 0.5 on NU_GRID; below it,
# stdtrit can return +inf or an x off by a factor of 2 (nu = 2.5 at p = 1e-140)
_T_TAIL_P = 1e-15
_SQRT_2PI = np.sqrt(2 * np.pi)


@dataclass(frozen=True)
class MarginalModel:
    """One univariate family plus its parameters.

    Use the module-level constructors (:func:`normal`, :func:`student_t`,
    :func:`normal_mixture`, :func:`beta11a`) rather than filling fields by
    hand; they validate the parameter domains.
    """

    family: str
    mu: float = 0.0
    sigma: float = 1.0
    nu: float = 1.0
    w: float = 0.5
    mu1: float = 0.0
    mu2: float = 0.0
    a: float = 1.0


def normal(mu: float, sigma: float) -> MarginalModel:
    if not (math.isfinite(mu) and 0 < sigma < math.inf):
        raise ValueError(f"normal needs a finite mu and a positive finite sigma, got mu={mu:g}, sigma={sigma:g}")
    return MarginalModel(NORMAL, mu=float(mu), sigma=float(sigma))


def student_t(nu: float) -> MarginalModel:
    """Standard (location 0, scale 1) Student-t with ``nu`` degrees of freedom."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    return MarginalModel(STUDENT_T, nu=float(nu))


def normal_mixture(w: float, mu1: float, mu2: float, sigma: float) -> MarginalModel:
    """Two-component normal mixture ``w N(mu1, sigma^2) + (1-w) N(mu2, sigma^2)``."""
    if not 0.0 < w < 1.0:
        raise ValueError("w must be in (0, 1)")
    if not (math.isfinite(mu1) and math.isfinite(mu2) and 0 < sigma < math.inf):
        raise ValueError(f"mixture needs finite means and a positive finite sigma, got {mu1:g}, {mu2:g}, {sigma:g}")
    return MarginalModel(NORMAL_MIXTURE, w=float(w), mu1=float(mu1), mu2=float(mu2), sigma=float(sigma))


def beta11a(a: float) -> MarginalModel:
    """Beta(1, a+1) marginal of a Dirichlet(1, 1, a) vector."""
    if a <= 0:
        raise ValueError("a must be positive")
    return MarginalModel(BETA11A, a=float(a))


@dataclass(frozen=True)
class FitReport:
    model: MarginalModel
    loglik: float
    iterations: int
    converged: bool


def _norm_pdf(x, mu=0.0, s=1.0):
    z = (x - mu) / s
    return np.exp(-z ** 2 / 2.0) / _SQRT_2PI / s


def _norm_logpdf(x, mu, s):
    z = (x - mu) / s
    return -z ** 2 / 2.0 - np.log(_SQRT_2PI) - np.log(s)


def _t_logpdf(x, nu):
    return (np.log(special.poch(0.5 * nu, 0.5)) - 0.5 * (np.log(nu) + np.log(np.pi))
            - (nu + 1) / 2 * np.log1p(x * x / nu))


def _t_log_tail(nu):
    """``log(nu^(nu/2 - 1) / B(nu/2, 1/2))``: the lower tail is
    ``T(x) ~ exp(_t_log_tail(nu) - nu log|x|)`` as x -> -inf."""
    return (0.5 * nu - 1.0) * np.log(nu) - special.betaln(0.5 * nu, 0.5)


def _t_cdf(x, nu):
    """Student-t CDF; where ``stdtr`` underflows to 0 at a finite x (its x*x
    overflows past |x| ~ 1e154, where the CDF is still ~1e-155 for nu = 1),
    the leading tail term takes over."""
    out = special.stdtr(nu, x)
    lost = (out == 0.0) & np.isfinite(x)
    if np.any(lost):
        out = np.where(lost, np.exp(_t_log_tail(nu) - nu * np.log(np.where(lost, -x, 1.0))), out)
    return out


def _t_ppf(p, nu):
    """Student-t quantile; below ``_T_TAIL_P`` the leading tail term replaces
    ``stdtrit`` wherever its CDF lies closer to p."""
    x = special.stdtrit(nu, p)
    tail = p < _T_TAIL_P
    if np.any(tail):
        with np.errstate(divide="ignore"):  # p = 0 gives -inf
            lead = -np.exp((_t_log_tail(nu) - np.log(p)) / nu)
        closer = np.abs(_t_cdf(lead, nu) - p) < np.abs(_t_cdf(x, nu) - p)
        x = np.where(tail & closer, lead, x)
    return x


def marginal_pdf(m: MarginalModel, x):
    """Density of ``m`` at ``x`` (scalar or array)."""
    x = np.asarray(x, dtype=float)
    if m.family == NORMAL:
        out = _norm_pdf(x, m.mu, m.sigma)
    elif m.family == STUDENT_T:
        out = np.exp(_t_logpdf(x, m.nu))
    elif m.family == NORMAL_MIXTURE:
        out = m.w * _norm_pdf(x, m.mu1, m.sigma) + (1.0 - m.w) * _norm_pdf(x, m.mu2, m.sigma)
    elif m.family == BETA11A:
        inside = (x >= 0.0) & (x <= 1.0)
        out = np.where(inside, (m.a + 1.0) * np.maximum(1.0 - x, 0.0) ** m.a, 0.0)
    else:
        raise ValueError(f"unknown family {m.family!r}")
    return float(out) if out.ndim == 0 else out


def marginal_cdf(m: MarginalModel, x):
    """CDF of ``m`` at ``x`` (scalar or array)."""
    x = np.asarray(x, dtype=float)
    if m.family == NORMAL:
        out = special.ndtr((x - m.mu) / m.sigma)
    elif m.family == STUDENT_T:
        out = _t_cdf(x, m.nu)
    elif m.family == NORMAL_MIXTURE:
        out = m.w * special.ndtr((x - m.mu1) / m.sigma) + (1.0 - m.w) * special.ndtr((x - m.mu2) / m.sigma)
    elif m.family == BETA11A:
        xc = np.clip(x, 0.0, 1.0)
        out = 1.0 - (1.0 - xc) ** (m.a + 1.0)
    else:
        raise ValueError(f"unknown family {m.family!r}")
    return float(out) if out.ndim == 0 else out


def marginal_quantile(m: MarginalModel, p):
    """Inverse CDF of ``m`` at probability ``p`` in (0, 1)."""
    p = np.asarray(p, dtype=float)
    if not np.all((0.0 < p) & (p < 1.0)):
        raise ValueError("quantile at boundary")
    if m.family == NORMAL:
        out = m.mu + m.sigma * special.ndtri(p)
    elif m.family == STUDENT_T:
        out = _t_ppf(p, m.nu)
    elif m.family == NORMAL_MIXTURE:
        out = _mixture_quantile(m, p)
    elif m.family == BETA11A:
        out = 1.0 - (1.0 - p) ** (1.0 / (m.a + 1.0))
    else:
        raise ValueError(f"unknown family {m.family!r}")
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def _mixture_quantile(m: MarginalModel, p: np.ndarray) -> np.ndarray:
    """Chandrupatla's bracketed root solve on the mixture CDF (monotone,
    smooth) for every point at once; each element stops on its own, so a
    root depends only on its own ``p``."""
    from scipy.optimize import elementwise  # here, not at the top: scipy.optimize adds ~0.2 s to every CLI start

    z = special.ndtri(p)
    lo = min(m.mu1, m.mu2) + m.sigma * z - 1.0  # CDF(lo) <= p: both components shifted right of lo
    hi = max(m.mu1, m.mu2) + m.sigma * z + 1.0
    res = elementwise.find_root(lambda x, q: marginal_cdf(m, x) - q, (lo, hi), args=(p,),
                                tolerances={"xatol": 1e-13, "xrtol": 8.9e-16})
    if not np.all(res.success):
        raise RuntimeError("mixture quantile did not converge")
    return res.x


# ---------------------------------------------------------------------------
# maximum likelihood fitting


def fit_marginal_mle(column, family: str) -> FitReport:
    """Fit one marginal family to a 1-D sample by maximum likelihood.

    Families follow the scenario generators: the normal fit is closed form,
    the t fit profiles nu over a fixed grid with location/scale pinned at
    (0, 1), the mixture fit runs EM with a shared sigma, and the Beta(1, a+1)
    fit has a closed-form MLE for ``a``.
    """
    x = np.asarray(column, dtype=float)
    if x.size < 10:
        raise ValueError("need at least 10 observations")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate sample: zero variance")

    if family == NORMAL:
        with np.errstate(over="ignore"):  # normal() rejects a mean or sigma that overflows
            mu = float(np.mean(x))
            sigma = float(np.sqrt(np.mean((x - mu) ** 2)))
        model = normal(mu, sigma)
        ll = float(np.sum(_norm_logpdf(x, mu, sigma)))
        return FitReport(model, ll, 1, True)

    if family == STUDENT_T:
        lls = np.sum(_t_logpdf(x, NU_GRID[:, None]), axis=1)
        best = int(np.argmax(lls))
        return FitReport(student_t(float(NU_GRID[best])), float(lls[best]), len(NU_GRID), True)

    if family == NORMAL_MIXTURE:
        return _fit_mixture(x)

    if family == BETA11A:
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise ValueError("beta11a sample must lie in [0, 1]")
        # d/da sum[log(a+1) + a log(1-x)] = n/(a+1) + sum log(1-x) = 0
        s = float(np.sum(np.log1p(-np.minimum(x, 1.0 - 1e-15))))
        a = -x.size / s - 1.0
        if a <= 0:
            raise ValueError("beta11a MLE outside the parameter domain")
        model = beta11a(a)
        ll = float(np.sum(np.log(marginal_pdf(model, x))))
        return FitReport(model, ll, 1, True)

    raise ValueError(f"unknown family {family!r}")


def _em_mixture(x: np.ndarray, mu1: float, mu2: float):
    """EM for a two-component shared-sigma normal mixture.

    Returns ``(w, mu1, mu2, sigma, loglik_trace, converged)``; the trace is
    nondecreasing, which the test suite asserts.
    """
    n = x.size
    w = 0.5
    sigma = max(np.std(x) / 2.0, 1e-3)
    trace = []
    converged = False
    for _ in range(_EM_MAX_ITER):
        # E step
        la = np.log(w) + _norm_logpdf(x, mu1, sigma)
        lb = np.log1p(-w) + _norm_logpdf(x, mu2, sigma)
        mx = np.maximum(la, lb)
        den = mx + np.log(np.exp(la - mx) + np.exp(lb - mx))
        trace.append(float(np.sum(den)))
        r = np.exp(la - den)
        # M step (shared sigma)
        n1 = r.sum()
        n2 = n - n1
        if n1 < 1e-10 or n2 < 1e-10:
            break
        w = n1 / n
        mu1 = float(np.sum(r * x) / n1)
        mu2 = float(np.sum((1.0 - r) * x) / n2)
        var = float(np.sum(r * (x - mu1) ** 2 + (1.0 - r) * (x - mu2) ** 2) / n)
        sigma = max(np.sqrt(var), 1e-8)
        if len(trace) >= 2 and trace[-1] - trace[-2] < _EM_TOL:
            converged = True
            break
    return w, mu1, mu2, sigma, trace, converged


def _fit_mixture(x: np.ndarray) -> FitReport:
    """Quantile-split initialization plus two fixed random restarts."""
    q = np.quantile(x, [0.10, 0.25, 0.75, 0.90])
    inits = [(q[1], q[2]), (q[0], q[3])]
    rng = np.random.default_rng(0)  # fixed restarts keep the fit deterministic
    lo, hi = np.min(x), np.max(x)
    for _ in range(2):
        pair = np.sort(rng.uniform(lo, hi, size=2))
        inits.append((float(pair[0]), float(pair[1])))

    best = None
    iters = 0
    for mu1, mu2 in inits:
        if mu1 == mu2:
            mu2 = mu1 + max(1e-3, np.std(x) / 10.0)
        w, m1, m2, s, trace, conv = _em_mixture(x, float(mu1), float(mu2))
        iters += len(trace)
        if best is None or trace[-1] > best[0]:
            best = (trace[-1], w, m1, m2, s, conv)
    ll, w, m1, m2, s, conv = best
    # canonical order: mu1 <= mu2
    if m1 > m2:
        m1, m2, w = m2, m1, 1.0 - w
    return FitReport(normal_mixture(w, m1, m2, s), float(ll), iters, conv)


# ---------------------------------------------------------------------------
# bivariate elliptical CDFs

_BVN_X, _BVN_W = np.polynomial.legendre.leggauss(96)
# limits past this count as infinite: the series' arctan terms lose their
# branch further out; the t tail mass beyond it is below 1e-14 for nu >= 1
_BVT_BIG = 1e14


def bvn_cdf(rho: float, x, y):
    """Standard bivariate normal CDF ``P(X <= x, Y <= y)`` with correlation rho.

    Single-integral reduction: ``Phi(x) Phi(y)`` plus a Gauss-Legendre
    integral of the correlation derivative over [0, rho]. The integrand is
    analytic for |rho| < 1, so 96 nodes give near machine accuracy for
    |rho| <= 0.99 (well inside the 1e-7 budget).
    """
    if not -1.0 < rho < 1.0:
        raise ValueError("|rho| must be < 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = 0.5 * rho * (_BVN_X + 1.0)
    wr = 0.5 * rho * _BVN_W
    xx = x[..., None]
    yy = y[..., None]
    # exp argument is -inf at infinite x or y; that term contributes 0
    with np.errstate(invalid="ignore"):
        quad_arg = -(xx * xx - 2.0 * r * xx * yy + yy * yy) / (2.0 * (1.0 - r * r))
    quad_arg = np.where(np.isnan(quad_arg), -np.inf, quad_arg)
    integ = np.exp(quad_arg) / np.sqrt(1.0 - r * r)
    out = special.ndtr(x) * special.ndtr(y) + (integ * wr).sum(axis=-1) / (2.0 * np.pi)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def bvt_cdf(rho: float, nu: float, x, y):
    """Bivariate Student-t CDF ``P(X <= x, Y <= y)`` with correlation rho and
    nu degrees of freedom.

    nu must be a whole number >= 1, which covers every nu the package fits
    (the copula grid 2..30) or simulates (6); any other nu raises
    ``ValueError``. The finite series of Dunnett & Sobel (Biometrika 41,
    1954) in the form of Genz's ``bvtl`` (Stat. Comput. 14, 2004) takes
    floor(nu/2) terms and is within 3e-15 of an adaptive 1-D quadrature for
    nu in {1, 2, 3, 4, 6, 7, 30}.

    Infinite limits are exact: ``x = +inf`` gives ``T_nu(y)``, ``y = +inf``
    gives ``T_nu(x)``, and either limit at ``-inf`` gives 0; a limit beyond
    ``+-1e14`` counts as infinite (the t tail mass past it is below 1e-14).
    """
    if not -1.0 < rho < 1.0:
        raise ValueError("|rho| must be < 1")
    if not (nu >= 1 and float(nu).is_integer()):
        raise ValueError(f"nu must be a whole number >= 1, got {nu}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x, y = np.broadcast_arrays(x, y)
    big_x = np.abs(x) > _BVT_BIG
    big_y = np.abs(y) > _BVT_BIG
    xf = np.where(big_x, 0.0, x)
    yf = np.where(big_y, 0.0, y)
    out = _bvt_series(rho, int(nu), xf, yf)
    if big_x.any() or big_y.any():
        out = np.where(big_x & (x > 0), _t_cdf(y, nu), out)
        out = np.where(big_y & (y > 0), _t_cdf(x, nu), out)
        out = np.where((big_x & (x < 0)) | (big_y & (y < 0)), 0.0, out)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _bvt_series(rho: float, nu: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dunnett-Sobel series for integer nu >= 1 and finite x, y (Genz's bvtl).

    ``1 - xn`` is carried as its own ratio ``cn`` rather than subtracted, so
    the series keeps its accuracy when one limit is far out in the tail.
    """
    ors = 1.0 - rho * rho
    hrk = x - rho * y
    krh = y - rho * x
    ah = ors * (nu + y * y)
    ak = ors * (nu + x * x)
    xnhk, cnhk = hrk * hrk / (hrk * hrk + ah), ah / (hrk * hrk + ah)
    xnkh, cnkh = krh * krh / (krh * krh + ak), ak / (krh * krh + ak)
    hs = np.where(hrk < 0.0, -1.0, 1.0)
    ks = np.where(krh < 0.0, -1.0, 1.0)
    rx = 1.0 / (1.0 + x * x / nu)
    ry = 1.0 / (1.0 + y * y / nu)
    if nu % 2 == 0:
        bvt = np.arctan2(np.sqrt(ors), -rho) / (2.0 * np.pi)
        gmph = x / np.sqrt(16.0 * (nu + x * x))
        gmpk = y / np.sqrt(16.0 * (nu + y * y))
        btnckh = 2.0 * np.arctan2(np.sqrt(xnkh), np.sqrt(cnkh)) / np.pi
        btpdkh = 2.0 * np.sqrt(xnkh * cnkh) / np.pi
        btnchk = 2.0 * np.arctan2(np.sqrt(xnhk), np.sqrt(cnhk)) / np.pi
        btpdhk = 2.0 * np.sqrt(xnhk * cnhk) / np.pi
        for j in range(1, nu // 2 + 1):
            bvt = bvt + gmph * (1.0 + ks * btnckh) + gmpk * (1.0 + hs * btnchk)
            btnckh = btnckh + btpdkh
            btpdkh = btpdkh * cnkh * (2 * j) / (2 * j + 1)
            btnchk = btnchk + btpdhk
            btpdhk = btpdhk * cnhk * (2 * j) / (2 * j + 1)
            gmph = gmph * rx * (2 * j - 1) / (2 * j)
            gmpk = gmpk * ry * (2 * j - 1) / (2 * j)
        return bvt
    snu = math.sqrt(nu)
    qhrk = np.sqrt(x * x + y * y - 2.0 * rho * x * y + nu * ors)
    hkrn = x * y + rho * nu
    hkn = x * y - nu
    hpk = x + y
    bvt = np.arctan2(-snu * (hkn * qhrk + hpk * hkrn), hkn * hkrn - nu * hpk * qhrk) / (2.0 * np.pi)
    bvt = np.where(bvt < -1e-15, bvt + 1.0, bvt)
    gmph = x * rx / (2.0 * np.pi * snu)
    gmpk = y * ry / (2.0 * np.pi * snu)
    btnckh = btpdkh = np.sqrt(xnkh)
    btnchk = btpdhk = np.sqrt(xnhk)
    for j in range(1, (nu - 1) // 2 + 1):
        bvt = bvt + gmph * (1.0 + ks * btnckh) + gmpk * (1.0 + hs * btnchk)
        btpdkh = btpdkh * cnkh * (2 * j - 1) / (2 * j)
        btnckh = btnckh + btpdkh
        btpdhk = btpdhk * cnhk * (2 * j - 1) / (2 * j)
        btnchk = btnchk + btpdhk
        gmph = gmph * rx * (2 * j) / (2 * j + 1)
        gmpk = gmpk * ry * (2 * j) / (2 * j + 1)
    return bvt

