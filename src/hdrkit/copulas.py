"""Bivariate copula families: evaluation, sampling, fitting, and a
transformation-KDE nonparametric estimator.

Parametric families: Gaussian, Student-t, Frank, Clayton, Independence,
plus the one-parameter Dirichlet(1, 1, a) copula (evaluation-only; its
dependence is fixed by the simplex geometry and is never fitted).

The nonparametric estimator maps pseudo-observations through the normal
quantile, smooths with a product Gaussian kernel, and divides back by the
normal density.  Fixed normal-reference bandwidths keep it fully
deterministic and give closed-form rectangle probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy import special

from .core import _row_blocks, _row_map, _thread_map, _threads
from .distributions import _norm_pdf, _t_cdf, _t_ppf, beta11a, bvn_cdf, bvt_cdf, marginal_cdf, marginal_pdf

__all__ = [
    "CopulaModel",
    "PseudoObservations",
    "NpCopulaFit",
    "gaussian",
    "student_t_copula",
    "frank",
    "clayton",
    "independence",
    "dirichlet11a",
    "kendall_tau",
    "tau_to_param",
    "copula_cdf",
    "copula_pdf",
    "joint_pdf",
    "copula_sample",
    "fit_copula_mle",
    "select_copula_aic",
    "pseudo_observations",
    "npcop_fit",
    "npcop_pdf",
    "npcop_rect_prob",
]

GAUSSIAN = "gaussian"
STUDENT_T = "student_t"
FRANK = "frank"
CLAYTON = "clayton"
INDEPENDENCE = "independence"
DIRICHLET11A = "dirichlet11a"

# the families AIC selection chooses among, in tie-break order
FITTABLE_FAMILIES = (GAUSSIAN, STUDENT_T, FRANK, CLAYTON)

_RHO_MAX = 0.995
_MIN_FIT_N = 20  # the fewest pseudo-observations a copula fit takes, parametric or not
_THETA_MAX = 50.0
# profile grid for the t-copula degrees of freedom
NU_GRID_COPULA = np.arange(2.0, 31.0, 1.0)


@dataclass(frozen=True)
class CopulaModel:
    family: str
    rho: float = 0.0
    nu: float = 0.0
    theta: float = 0.0
    a: float = 0.0

    def params(self) -> dict:
        """The family's parameters by name."""
        names = {GAUSSIAN: ("rho",), STUDENT_T: ("rho", "nu"), FRANK: ("theta",), CLAYTON: ("theta",),
                 INDEPENDENCE: (), DIRICHLET11A: ("a",)}[self.family]
        return {name: getattr(self, name) for name in names}

    def n_params(self) -> int:
        return len(self.params())


def gaussian(rho: float) -> CopulaModel:
    if not -1.0 < rho < 1.0:
        raise ValueError("|rho| must be < 1")
    return CopulaModel(GAUSSIAN, rho=float(rho))


def student_t_copula(rho: float, nu: float) -> CopulaModel:
    if not -1.0 < rho < 1.0:
        raise ValueError("|rho| must be < 1")
    if nu <= 0:
        raise ValueError("nu must be positive")
    return CopulaModel(STUDENT_T, rho=float(rho), nu=float(nu))


def frank(theta: float) -> CopulaModel:
    if theta == 0.0:
        raise ValueError("Frank theta must be nonzero (theta -> 0 is independence)")
    return CopulaModel(FRANK, theta=float(theta))


def clayton(theta: float) -> CopulaModel:
    if theta <= 0.0:
        raise ValueError("Clayton theta must be positive")
    return CopulaModel(CLAYTON, theta=float(theta))


def independence() -> CopulaModel:
    return CopulaModel(INDEPENDENCE)


def dirichlet11a(a: float) -> CopulaModel:
    if a <= 0:
        raise ValueError("a must be positive")
    return CopulaModel(DIRICHLET11A, a=float(a))


# ---------------------------------------------------------------------------
# Kendall's tau calibration


def _debye1(t: float) -> float:
    """First Debye function ``D(t) = (1/t) int_0^t s / (e^s - 1) ds``: its
    Taylor series for |t| < 1e-2, ``D(t) = D(-t) - t/2`` for t < 0, and
    otherwise the closed form ``(pi^2/6 + t log(1 - e^-t) - Li2(e^-t)) / t``
    with ``Li2(z) = spence(1 - z)``."""
    if abs(t) < 1e-2:
        return 1.0 - t / 4.0 + t * t / 36.0 - t ** 4 / 3600.0
    if t < 0.0:
        return _debye1(-t) - t / 2.0
    q = -np.expm1(-t)  # 1 - e^-t
    return float((np.pi ** 2 / 6.0 + t * np.log(q) - special.spence(q)) / t)


def kendall_tau(c: CopulaModel) -> float:
    """Population Kendall's tau of a parametric copula (closed forms; Frank
    via the first Debye function)."""
    if c.family in (GAUSSIAN, STUDENT_T):
        return 2.0 * np.arcsin(c.rho) / np.pi
    if c.family == CLAYTON:
        return c.theta / (c.theta + 2.0)
    if c.family == FRANK:
        return 1.0 - 4.0 / c.theta * (1.0 - _debye1(c.theta))
    if c.family == INDEPENDENCE:
        return 0.0
    raise ValueError(f"no closed-form tau for {c.family!r}")


def tau_to_param(family: str, tau: float) -> CopulaModel:
    """Invert Kendall's tau to a copula parameter.

    Gaussian/Student-t: rho = sin(pi tau / 2); Clayton: theta = 2 tau / (1 - tau);
    Frank: Brent's method (``brentq``) on ``kendall_tau`` to 1e-10 over theta in [1e-6, 500], or
    [-500, -1e-6] for tau < 0, which reaches 1.1088e-7 <= tau <= 0.99203 and -0.99203 <= tau <=
    -1.1116e-7; a tau outside these raises. The Student-t nu is not identified by tau and defaults
    to 6 here.
    """
    if not -1.0 < tau < 1.0:
        raise ValueError("tau must be in (-1, 1)")
    if family == GAUSSIAN:
        return gaussian(np.sin(np.pi * tau / 2.0))
    if family == STUDENT_T:
        return student_t_copula(np.sin(np.pi * tau / 2.0), 6.0)
    if family == CLAYTON:
        if tau <= 0.0:
            raise ValueError("Clayton cannot attain tau <= 0")
        return clayton(2.0 * tau / (1.0 - tau))
    if family == FRANK:
        if tau == 0.0:
            raise ValueError("Frank tau = 0 is the independence limit")
        # below |theta| = 1e-6 the Debye form's 1 - D(theta) loses most of its digits
        lo, hi = (1e-6, 500.0) if tau > 0 else (-500.0, -1e-6)
        reach = kendall_tau(frank(lo)), kendall_tau(frank(hi))
        if not reach[0] <= tau <= reach[1]:
            raise ValueError(f"Frank reaches tau in [{reach[0]:.5g}, {reach[1]:.5g}] on this side of 0 "
                             f"(theta in [{lo:g}, {hi:g}]), not {tau!r}")
        from scipy import optimize  # here, not at the top: scipy.optimize adds ~0.2 s to every CLI start

        theta = optimize.brentq(lambda th: kendall_tau(frank(th)) - tau, lo, hi, xtol=1e-10)
        return frank(theta)
    if family == INDEPENDENCE:
        if tau != 0.0:
            raise ValueError("independence requires tau = 0")
        return independence()
    raise ValueError(f"cannot calibrate {family!r} by tau")


# ---------------------------------------------------------------------------
# CDF / PDF


def copula_cdf(c: CopulaModel, u, v):
    """Copula CDF C(u, v); boundary identities C(u,0)=0 and C(u,1)=u hold
    exactly for every family."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (np.all((0 <= u) & (u <= 1)) and np.all((0 <= v) & (v <= 1))):
        raise ValueError("u, v must lie in [0, 1]")
    u, v = np.broadcast_arrays(u, v)

    if c.family == INDEPENDENCE:
        out = u * v
    elif c.family == GAUSSIAN:
        with np.errstate(divide="ignore"):
            out = bvn_cdf(c.rho, special.ndtri(u), special.ndtri(v))
    elif c.family == STUDENT_T:
        with np.errstate(divide="ignore"):
            out = bvt_cdf(c.rho, c.nu, _t_ppf(u, c.nu), _t_ppf(v, c.nu))
    elif c.family == FRANK:
        th = c.theta
        out = -np.log1p(np.expm1(-th * u) * np.expm1(-th * v) / np.expm1(-th)) / th
    elif c.family == CLAYTON:
        th = c.theta
        with np.errstate(divide="ignore"):
            out = (u ** -th + v ** -th - 1.0) ** (-1.0 / th)
    elif c.family == DIRICHLET11A:
        p = 1.0 / (c.a + 1.0)
        t = np.maximum((1.0 - u) ** p + (1.0 - v) ** p - 1.0, 0.0)
        out = u + v - 1.0 + t ** (c.a + 1.0)
    else:
        raise ValueError(f"unknown family {c.family!r}")

    # pin the uniform-margin boundaries exactly against quadrature round-off
    out = np.where((u == 0.0) | (v == 0.0), 0.0, out)
    out = np.where(u == 1.0, v, np.where(v == 1.0, u, out))
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _interior(u, v):
    """``u`` and ``v`` as float arrays broadcast together, once both are
    checked to lie strictly inside the unit square, a copula density's domain."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (np.all((0 < u) & (u < 1)) and np.all((0 < v) & (v < 1))):
        raise ValueError("copula density at boundary")
    return np.broadcast_arrays(u, v)


def copula_pdf(c: CopulaModel, u, v):
    """Copula density c(u, v) at strictly interior points."""
    u, v = _interior(u, v)

    if c.family == INDEPENDENCE:
        out = np.ones_like(u)
    elif c.family == GAUSSIAN:
        r = c.rho
        x = special.ndtri(u)
        y = special.ndtri(v)
        out = np.exp(-(r * r * (x * x + y * y) - 2.0 * r * x * y) / (2.0 * (1.0 - r * r))) / np.sqrt(1.0 - r * r)
    elif c.family == STUDENT_T:
        out = np.exp(_t_log_density(_t_ppf(u, c.nu), _t_ppf(v, c.nu), c.nu)(c.rho))
    elif c.family == FRANK:
        th = c.theta
        # stable form: th (1-e^-th) e^{-th(u+v)} / (e^-th - e^-th u - e^-th v + e^{-th(u+v)})^2
        den = np.exp(-th) - np.exp(-th * u) - np.exp(-th * v) + np.exp(-th * (u + v))
        out = -th * np.expm1(-th) * np.exp(-th * (u + v)) / (den * den)
    elif c.family == CLAYTON:
        th = c.theta
        log_out = (
            np.log1p(th)
            - (th + 1.0) * (np.log(u) + np.log(v))
            - (2.0 + 1.0 / th) * np.log(u ** -th + v ** -th - 1.0)
        )
        out = np.exp(log_out)
    elif c.family == DIRICHLET11A:
        a = c.a
        p = 1.0 / (a + 1.0)
        m = (a + 1.0) / a  # Gamma(a) Gamma(a+2) / Gamma(a+1)^2
        t = (1.0 - u) ** p + (1.0 - v) ** p - 1.0
        with np.errstate(invalid="ignore"):
            val = np.maximum(t, 0.0) ** (a - 1.0) / (m * ((1.0 - u) * (1.0 - v)) ** (a * p))
        out = np.where(t >= 0.0, val, 0.0)
    else:
        raise ValueError(f"unknown family {c.family!r}")
    return float(out) if out.ndim == 0 else out


def joint_pdf(c: CopulaModel, marginals, lo: float, hi: float, q: np.ndarray) -> np.ndarray:
    """Joint density ``c(F1(x), F2(y)) f1(x) f2(y)`` of copula ``c`` and two
    marginal models at (m, 2) points, each marginal CDF clipped to
    ``[lo, hi]`` so the copula density is read strictly inside the square."""
    u = np.clip(marginal_cdf(marginals[0], q[:, 0]), lo, hi)
    v = np.clip(marginal_cdf(marginals[1], q[:, 1]), lo, hi)
    return copula_pdf(c, u, v) * marginal_pdf(marginals[0], q[:, 0]) * marginal_pdf(marginals[1], q[:, 1])


def _t_log_density(x, y, nu):
    """The t-copula log-density at t quantiles ``x, y`` as a function of rho.

    The rho-free terms are formed once, so a profile over rho reuses them.
    """
    log_num = special.gammaln((nu + 2.0) / 2.0) + special.gammaln(nu / 2.0) - 2.0 * special.gammaln((nu + 1.0) / 2.0)
    marg = (nu + 1.0) / 2.0 * (np.log1p(x * x / nu) + np.log1p(y * y / nu))

    def log_c(r):
        quad = (x * x - 2.0 * r * x * y + y * y) / (1.0 - r * r)
        return log_num - 0.5 * np.log(1.0 - r * r) - (nu + 2.0) / 2.0 * np.log1p(quad / nu) + marg

    return log_c


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class PseudoObservations:
    """Points in the open unit square, either rank-rescaled data or
    parametric-CDF transforms."""

    u: np.ndarray  # (n, 2)

    def __post_init__(self):
        arr = np.asarray(self.u, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("pseudo-observations must be (n, 2)")
        if not np.all((0.0 < arr) & (arr < 1.0)):
            raise ValueError("pseudo-observations must be strictly inside (0, 1)")
        object.__setattr__(self, "u", arr)

    @property
    def n(self) -> int:
        return self.u.shape[0]


def pseudo_observations(points: np.ndarray) -> PseudoObservations:
    """Rank transform to the open unit square with the ranks/(n+1) rescaling."""
    pts = np.asarray(points, dtype=float)
    if np.isnan(pts).any():
        raise ValueError("pseudo-observations of a NaN coordinate")
    # ordinal ranks (the inverse of a stable sort): ties rank in order of appearance
    ranks = np.argsort(np.argsort(pts, axis=0, kind="stable"), axis=0) + 1.0
    return PseudoObservations(ranks / (pts.shape[0] + 1.0))


def copula_sample(c: CopulaModel, n: int, rng: np.random.Generator) -> PseudoObservations:
    """Draw n iid pairs from the copula law.

    Elliptical families use correlated normal/t draws mapped through their
    univariate CDFs; Frank and Clayton use conditional inversion; the
    Dirichlet copula uses gamma-ratio simplex draws pushed through the
    closed-form Beta marginal CDFs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    if c.family == INDEPENDENCE:
        u = rng.random((n, 2))
    elif c.family in (GAUSSIAN, STUDENT_T):
        z = rng.standard_normal((n, 2))
        x = np.column_stack([z[:, 0], c.rho * z[:, 0] + np.sqrt(1.0 - c.rho ** 2) * z[:, 1]])
        if c.family == GAUSSIAN:
            u = special.ndtr(x)
        else:
            x /= np.sqrt(rng.chisquare(c.nu, n) / c.nu)[:, None]
            u = _t_cdf(x, c.nu)
    elif c.family in (FRANK, CLAYTON):
        th = c.theta
        u1 = rng.random(n)
        p = rng.random(n)
        if c.family == FRANK:
            eu = np.exp(-th * u1)
            ev = 1.0 + p * np.expm1(-th) / (eu * (1.0 - p) + p)
            u2 = -np.log(ev) / th
        else:
            u2 = ((p ** (-th / (th + 1.0)) - 1.0) * u1 ** -th + 1.0) ** (-1.0 / th)
        u = np.column_stack([u1, u2])
    elif c.family == DIRICHLET11A:
        u = marginal_cdf(beta11a(c.a), _dirichlet_draws(c.a, n, rng))
    else:
        raise ValueError(f"cannot sample from {c.family!r}")
    return PseudoObservations(_clip_open(u))


def _dirichlet_draws(a: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """The first two coordinates of n Dirichlet(1, 1, a) draws, as gamma
    ratios: an (n, 2) array of points in the 2-simplex."""
    g = np.column_stack([rng.standard_gamma(1.0, n), rng.standard_gamma(1.0, n), rng.standard_gamma(a, n)])
    return g[:, :2] / g.sum(axis=1)[:, None]


def _clip_open(u: np.ndarray) -> np.ndarray:
    eps = 1e-15
    return np.clip(u, eps, 1.0 - eps)


# ---------------------------------------------------------------------------
# maximum likelihood fitting and AIC selection


# one-parameter families: constructor and the bounds of the scalar search
_ONE_PARAM = {
    GAUSSIAN: (gaussian, (-_RHO_MAX, _RHO_MAX)),
    FRANK: (frank, (-_THETA_MAX, _THETA_MAX)),
    CLAYTON: (clayton, (1e-6, _THETA_MAX)),
}

_GOLDEN, _SQRT_EPS = 0.5 * (3.0 - math.sqrt(5.0)), math.sqrt(2.2e-16)


def _fminbound(func, lo: float, hi: float, xatol: float):
    """Minimise ``func`` over [lo, hi] by Brent's bounded search: golden
    sections with parabolic steps (Brent, *Algorithms for Minimization
    without Derivatives*, 1973), step for step as scipy's
    ``minimize_scalar(method="bounded")``, so the result is the same to the
    bit. Returns ``(x, func(x), failure)``: ``failure`` is None when the
    search converged, else why it stopped (500 calls, or a NaN)."""
    a, b = float(lo), float(hi)
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    fx = fnfc = ffulc = func(xf)
    num, fu, rat, e, failure = 1, math.inf, 0.0, 0.0, None
    xm, tol1 = 0.5 * (a + b), _SQRT_EPS * abs(xf) + xatol / 3.0
    while abs(xf - xm) > 2.0 * tol1 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the best three points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p, q, r, e = (-p if q > 0.0 else p), abs(q), e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden, rat = False, (p + 0.0) / q
                if xf + rat - a < 2.0 * tol1 or b - (xf + rat) < 2.0 * tol1:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu, num = func(x), num + 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm, tol1 = 0.5 * (a + b), _SQRT_EPS * abs(xf) + xatol / 3.0
        if num >= 500:
            failure = "the bounded search reached 500 function calls"
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        failure = "the bounded search met a NaN value"
    return xf, fx, failure


def _first_max(f, size: int) -> int:
    """The index of the first largest of ``f(0), ..., f(size - 1)``, by
    Fibonacci search (Kiefer, *Proc. AMS* 4, 1953), calling ``f`` at most
    once per index and about ``log_phi(size)`` times in all: at most 7
    times for 29 values. Indices past the end count as -inf.

    It is exact when the values rise strictly up to their first maximum and
    never rise after it. Then for probes a < b, ``f(a) < f(b)`` puts the
    first maximum after a, and otherwise it lies before b."""
    fib = [1, 1]
    while fib[-1] - 1 < size:
        fib.append(fib[-1] + fib[-2])
    k = len(fib) - 1  # the first maximum is among the fib[k] - 1 indices from lo
    if k < 3:
        return 0
    value = lambda i: f(i) if i < size else -math.inf
    lo, a, b = 0, fib[k - 2] - 1, fib[k - 1] - 1
    fa, fb = value(a), value(b)
    while True:
        rising = fa < fb
        if rising:
            lo = a + 1
        k -= 1
        if k == 2:
            return lo
        if rising:
            a, fa = b, fb
            b = lo + fib[k - 1] - 1
            fb = value(b)
        else:
            b, fb = a, fa
            a = lo + fib[k - 2] - 1
            fa = value(a)


def _t_profile(u: np.ndarray, v: np.ndarray):
    """The Student-t copula's profile fit as a function of an index into
    ``NU_GRID_COPULA``, returning ``(rho, nu, loglik)`` and computed once
    per index: rho maximises the log-likelihood within 0.25 of the start
    ``2 sin(pi r / 6)``."""
    with np.errstate(invalid="ignore", divide="ignore"):  # a constant column: NaN, so the whole range
        r_s = np.corrcoef(u, v)[0, 1]
    rho0 = float(np.clip(2.0 * np.sin(np.pi * r_s / 6.0), -_RHO_MAX + 0.01, _RHO_MAX - 0.01))
    lo = max(-_RHO_MAX, rho0 - 0.25)
    hi = min(_RHO_MAX, rho0 + 0.25)

    @cache
    def profile(i):
        nu = NU_GRID_COPULA[i]
        log_c = _t_log_density(_t_ppf(u, nu), _t_ppf(v, nu), nu)
        rho, f, _ = _fminbound(lambda r: -float(np.sum(log_c(r))), lo, hi, 1e-6)  # any stop still profiles
        return rho, float(nu), -f

    return profile


def fit_copula_mle(pseudo: PseudoObservations, family: str):
    """Maximize the copula log-likelihood over one family.

    Returns ``(CopulaModel, loglik)``. Every search is ``_fminbound``, a
    bounded Brent search. One-parameter families search their whole
    parameter range. The Student-t fits rho within 0.25 of the start
    ``2 sin(pi r / 6)`` for a given nu: r, the Pearson correlation of
    (u, v), is Spearman's rho for uniform margins, and the sine maps it to
    the elliptical rho (Kruskal, 1958). It takes nu from the integer grid
    ``NU_GRID_COPULA`` by a Fibonacci search over that profile
    log-likelihood (``_first_max``), 7 profile fits instead of 29.

    The search assumes the profile is unimodal: that it rises strictly to
    its first maximum and never rises after it. Then it returns the
    (rho, nu, loglik) of the first nu of greatest profile log-likelihood,
    as a loop over the whole grid would, bit for bit. Every profile
    checked had a single peak, and the search matched the whole loop on
    each: 132 replicates at n = 50 and 500 (12 each of S1, S2, S3, S5, S6,
    S7, S9, S10, S13, S14 and S16), 128 at n = 100 (8 of each of S1-S16),
    and the 5,000 points of the benchmark's ``apply`` input.
    """
    if pseudo.n < _MIN_FIT_N:
        raise ValueError(f"need at least {_MIN_FIT_N} pseudo-observations")
    if family not in FITTABLE_FAMILIES:
        raise ValueError(f"family {family!r} is not fittable")
    u, v = pseudo.u[:, 0], pseudo.u[:, 1]

    if family == STUDENT_T:
        profile = _t_profile(u, v)
        rho, nu, ll = profile(_first_max(lambda i: profile(i)[2], len(NU_GRID_COPULA)))
        return student_t_copula(rho, nu), ll

    make, bounds = _ONE_PARAM[family]

    def loglik(p):
        if family == FRANK and abs(p) < 1e-8:
            return 0.0  # independence limit: density == 1
        return float(np.sum(np.log(copula_pdf(make(p), u, v))))

    param, f, failure = _fminbound(lambda p: -loglik(p), *bounds, 1e-7)
    if failure:
        raise RuntimeError(f"copula MLE did not converge for {family}: {failure}")
    ll = -f  # the search returns f(x) for its x
    if family == FRANK and abs(param) < 1e-8:
        param = 1e-8 if param >= 0 else -1e-8  # keep theta != 0; near-independence
    return make(param), ll


def select_copula_aic(pseudo: PseudoObservations):
    """Fit each family in ``FITTABLE_FAMILIES`` and keep the AIC minimizer.

    AIC = 2k - 2 loglik with k the parameter count. Ties prefer fewer
    parameters, then ``FITTABLE_FAMILIES`` order. Per-family fit failures
    are skipped; only an all-fail run raises.

    Returns ``(CopulaModel, aic_table)`` where the table maps family name
    to ``(aic, loglik)`` for every family that fit.
    """
    table = {}
    errors = {}
    for fam in FITTABLE_FAMILIES:
        try:
            model, ll = fit_copula_mle(pseudo, fam)
        except Exception as exc:  # noqa: BLE001 - selection proceeds over successes
            errors[fam] = exc
            continue
        aic = 2.0 * model.n_params() - 2.0 * ll
        table[fam] = (aic, ll, model)
    if not table:
        raise RuntimeError(f"all candidate copula fits failed: {errors}")
    # the table is filled in FITTABLE_FAMILIES order, and min keeps the first of equal keys
    best_fam = min(table, key=lambda f: (table[f][0], table[f][2].n_params()))
    aic_table = {f: (table[f][0], table[f][1]) for f in table}
    return table[best_fam][2], aic_table


# ---------------------------------------------------------------------------
# transformation-KDE copula estimator


@dataclass(frozen=True)
class NpCopulaFit:
    """Normal-quantile transformed pseudo-observations with per-axis
    normal-reference bandwidths ``sigma_hat * n^(-1/6)``."""

    z: np.ndarray  # (n, 2)
    h1: float
    h2: float

    @property
    def n(self) -> int:
        return self.z.shape[0]


# sample points per chunk of npcop_rect_prob's kernel tables: at n = 5000,
# m3-npcop's ~3,300 distinct bounds per axis make each table 0.8 MB, so a
# thread's two tables and its 512-row gathers (1.9 MB) stay in its core's
# 2 MB L2. On two threads, widths 16 and 64 made `apply --measures all` no
# faster, and 64 raised its peak RSS from 65.4 to 68.5 MB.
_NPCOP_CHUNK = 32


def npcop_fit(pseudo: PseudoObservations) -> NpCopulaFit:
    if pseudo.n < _MIN_FIT_N:
        raise ValueError(f"need at least {_MIN_FIT_N} pseudo-observations")
    z = special.ndtri(pseudo.u)
    if not np.all(np.isfinite(z)):
        raise ValueError("pseudo-observation on the unit-square boundary")
    n = pseudo.n
    h = np.std(z, axis=0, ddof=1) * n ** (-1.0 / 6.0)
    return NpCopulaFit(z, float(h[0]), float(h[1]))


def npcop_pdf(fit: NpCopulaFit, u, v):
    """Transformation-KDE copula density at interior points (u, v)."""
    u, v = _interior(u, v)
    scalar = u.ndim == 0
    uf = np.atleast_1d(u).ravel()
    vf = np.atleast_1d(v).ravel()
    s = special.ndtri(uf)
    t = special.ndtri(vf)
    z1 = fit.z[:, 0]
    z2 = fit.z[:, 1]

    def rows(sl):
        return np.exp(-0.5 * (((s[sl, None] - z1) / fit.h1) ** 2 + ((t[sl, None] - z2) / fit.h2) ** 2)).sum(axis=-1)

    out = _row_map(np.empty(uf.size), fit.n, rows)
    out /= fit.n * 2.0 * np.pi * fit.h1 * fit.h2
    out /= _norm_pdf(s) * _norm_pdf(t)
    if scalar:
        return float(out[0])
    return out.reshape(u.shape)


def npcop_rect_prob(fit: NpCopulaFit, u_lo, u_hi, v_lo, v_hi):
    """Exact probability the fitted copula assigns to [u_lo,u_hi]x[v_lo,v_hi].

    The Gaussian product-kernel mixture integrates in closed form to
    differences of normal CDFs; boundary coordinates 0/1 map to -inf/+inf.

    The kernel is built from two whole-sample tables: one row
    ``ndtr((ndtri(c) - z1) / h1)`` per distinct u-bound ``c`` of the call,
    and one per distinct v-bound. ECDF bounds ``count/n`` repeat often
    (m3-npcop's in-sample bounds at n = 5000 take about a third as many
    distinct values as there are bounds), so this evaluates (distinct
    u-bounds + distinct v-bounds) * n normal CDFs instead of 4 * n per
    query. The tables are built over ``_NPCOP_CHUNK`` sample points at a
    time so they stay in cache. Each query's probability is the sum over a
    chunk's points of ``(U[hi] - U[lo]) * (V[hi] - V[lo])``, added up chunk
    by chunk from left to right. The chunks are fixed, so the result for a
    query depends only on its own bounds and the fit, not on the other
    queries or on the row blocks.

    A large call splits the chunks over ``core._threads``: a thread takes
    a whole chunk, builds its two tables and sums it into a vector of its
    own, and the calling thread adds those vectors in chunk order. No table
    entry is computed twice and every sum keeps its order.
    """
    u_lo = np.asarray(u_lo, dtype=float)
    u_hi = np.asarray(u_hi, dtype=float)
    v_lo = np.asarray(v_lo, dtype=float)
    v_hi = np.asarray(v_hi, dtype=float)
    if not np.all((0 <= u_lo) & (u_hi <= 1) & (0 <= v_lo) & (v_hi <= 1)):
        raise ValueError("interval outside [0, 1]")
    if not np.all((u_lo <= u_hi) & (v_lo <= v_hi)):
        raise ValueError("inverted interval")
    u_lo, u_hi, v_lo, v_hi = np.broadcast_arrays(u_lo, u_hi, v_lo, v_hi)
    shape = u_lo.shape
    m = u_lo.size
    with np.errstate(divide="ignore"):
        cu, iu = np.unique(special.ndtri(np.concatenate((u_lo.ravel(), u_hi.ravel()))), return_inverse=True)
        cv, iv = np.unique(special.ndtri(np.concatenate((v_lo.ravel(), v_hi.ravel()))), return_inverse=True)
    iu_lo, iu_hi, iv_lo, iv_hi = iu[:m], iu[m:], iv[:m], iv[m:]

    def chunk_sums(j):
        z = fit.z[j : j + _NPCOP_CHUNK]
        tab_u = cu[:, None] - z[:, 0]
        tab_u /= fit.h1
        special.ndtr(tab_u, out=tab_u)
        tab_v = cv[:, None] - z[:, 1]
        tab_v /= fit.h2
        special.ndtr(tab_v, out=tab_v)
        sums = np.empty(m)
        # a quarter of the rows a block may take: each thread's gathers stay
        # small. Not _row_map: this runs on a pool thread, so it would nest the pool
        for sl in _row_blocks(m, 4 * z.shape[0]):
            du = tab_u[iu_hi[sl]]
            du -= tab_u[iu_lo[sl]]
            dv = tab_v[iv_hi[sl]]
            dv -= tab_v[iv_lo[sl]]
            du *= dv
            sums[sl] = du.sum(axis=-1)
        return sums

    out = np.zeros(m)
    for sums in _thread_map(chunk_sums, range(0, fit.n, _NPCOP_CHUNK), _threads(m * fit.n)):
        out += sums
    out = np.clip(out / fit.n, 0.0, 1.0)
    if not shape:
        return float(out[0])
    return out.reshape(shape)
