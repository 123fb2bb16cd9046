import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from hdrkit import distributions as D

RHO = math.sin(math.pi / 4.0)

FAMILIES = [
    D.normal(0.0, 1.0),
    D.normal(1.0, math.sqrt(2.0)),
    D.student_t(2.0),
    D.student_t(6.0),
    D.normal_mixture(0.5, 0.0, 9.0, math.sqrt(2.0)),
    D.beta11a(2.0),
]


class TestPdf:
    def test_standard_normal_at_zero(self):
        assert_allclose(D.marginal_pdf(D.normal(0, 1), 0.0), 1.0 / math.sqrt(2 * math.pi), rtol=1e-12)

    def test_mixture_at_zero(self):
        m = D.normal_mixture(0.5, 0.0, 9.0, math.sqrt(2.0))
        expect = 0.5 / (math.sqrt(2 * math.pi) * math.sqrt(2.0))  # second mode contributes ~5e-10
        assert_allclose(D.marginal_pdf(m, 0.0), expect, rtol=1e-4)

    def test_beta_at_half(self):
        assert_allclose(D.marginal_pdf(D.beta11a(2.0), 0.5), 3.0 * 0.25, rtol=1e-12)

    def test_beta_outside_support_is_zero(self):
        m = D.beta11a(2.0)
        assert D.marginal_pdf(m, -0.1) == 0.0
        assert D.marginal_pdf(m, 1.1) == 0.0

    @pytest.mark.parametrize("m", FAMILIES, ids=lambda m: m.family)
    def test_integrates_to_one(self, m):
        if m.family == "beta11a":
            lo, hi = 0.0, 1.0
        else:
            lo = D.marginal_quantile(m, 1e-10)
            hi = D.marginal_quantile(m, 1.0 - 1e-10)
        val, _ = integrate.quad(lambda x: D.marginal_pdf(m, x), lo, hi, limit=300)
        assert abs(val - 1.0) < 1e-6


class TestCdf:
    def test_normal_975(self):
        assert_allclose(D.marginal_cdf(D.normal(0, 1), 1.959964), 0.975, atol=1e-7)

    def test_t2_symmetry(self):
        assert D.marginal_cdf(D.student_t(2.0), 0.0) == 0.5

    def test_beta_closed_form(self):
        assert_allclose(D.marginal_cdf(D.beta11a(2.0), 0.5), 1.0 - 0.5 ** 3, rtol=1e-12)


class TestQuantile:
    def test_normal_median(self):
        assert D.marginal_quantile(D.normal(0, 1), 0.5) == 0.0

    def test_t2_closed_form(self):
        # invert F(t) = 1/2 + t / (2 sqrt(2 + t^2)) at p = 0.975
        p = 0.975
        expect = (2 * p - 1) / math.sqrt(2 * p * (1 - p))
        assert_allclose(D.marginal_quantile(D.student_t(2.0), p), expect, atol=1e-4)
        assert_allclose(expect, 4.30265, atol=1e-4)

    def test_beta_closed_form(self):
        assert_allclose(D.marginal_quantile(D.beta11a(2.0), 0.875), 0.5, rtol=1e-12)

    def test_boundary_errors(self):
        with pytest.raises(ValueError, match="boundary"):
            D.marginal_quantile(D.normal(0, 1), 0.0)
        with pytest.raises(ValueError, match="boundary"):
            D.marginal_quantile(D.normal(0, 1), 1.0)

    @pytest.mark.parametrize("m", FAMILIES, ids=lambda m: m.family)
    def test_cdf_quantile_round_trip(self, m):
        rng = np.random.default_rng(5)
        p = rng.uniform(1e-4, 1.0 - 1e-4, size=1000)
        q = D.marginal_quantile(m, p)
        assert_allclose(D.marginal_cdf(m, q), p, atol=1e-8)


class TestStudentTLowerTail:
    P = 10.0 ** -np.arange(15, 301)  # every decade from 1e-15 to 1e-300

    @pytest.mark.parametrize("nu", D.NU_GRID)
    def test_quantile_finite_negative_and_round_trips(self, nu):
        m = D.student_t(nu)
        q = D.marginal_quantile(m, self.P)
        assert np.all(np.isfinite(q)) and np.all(q < 0.0)
        assert_allclose(D.marginal_cdf(m, q), self.P, rtol=1e-10, atol=0)

    def test_scalar_and_copula_boundary(self):
        # stdtrit(6, 1e-300) is +inf; a 0-d p stays a float, and p = 0 maps to -inf as in scipy.stats
        x = D.marginal_quantile(D.student_t(6.0), 1e-300)
        assert type(x) is float and x < 0.0
        assert np.array_equal(D._t_ppf(np.array([0.0, 1.0]), 6.0), [-np.inf, np.inf])


class TestMixtureQuantile:
    M = D.normal_mixture(0.3, -1.0, 2.0, 0.8)

    def test_one_vectorised_solve(self, monkeypatch):
        calls = []
        cdf = D.marginal_cdf
        monkeypatch.setattr(D, "marginal_cdf", lambda m, x: calls.append(1) or cdf(m, x))
        p = np.random.default_rng(3).uniform(size=1000)
        q = D.marginal_quantile(self.M, p)
        assert len(calls) <= 30
        assert_allclose(cdf(self.M, q), p, rtol=0, atol=1e-14)

    def test_tail_round_trip(self):
        # the bounds copulas._clip_open puts on every copula draw, and a deep lower tail
        p = np.array([1e-15, 1.0 - 1e-15, 1e-300])
        assert_allclose(D.marginal_cdf(self.M, D.marginal_quantile(self.M, p)), p, rtol=0, atol=1e-14)

    def test_each_root_depends_only_on_its_own_p(self):
        p = np.random.default_rng(4).uniform(size=500)
        q = D.marginal_quantile(self.M, p)
        one = [D.marginal_quantile(self.M, pi) for pi in p]
        assert all(type(x) is float for x in one)
        assert np.array_equal(q, np.array(one))

    def test_unconverged_root_raises(self, monkeypatch):
        monkeypatch.setattr(D, "marginal_cdf", lambda m, x: np.full_like(x, np.nan))
        with pytest.raises(RuntimeError, match="did not converge"):
            D.marginal_quantile(self.M, np.array([0.2, 0.7]))


class TestMle:
    def test_normal_recovery(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0.0, math.sqrt(2.0), size=10 ** 4)
        rep = D.fit_marginal_mle(x, "normal")
        assert rep.converged
        assert abs(rep.model.mu) < 0.05
        assert abs(rep.model.sigma - math.sqrt(2.0)) < 0.05

    def test_t_profile_recovery(self):
        rng = np.random.default_rng(11)
        x = rng.standard_t(2.0, size=10 ** 4)
        rep = D.fit_marginal_mle(x, "student_t")
        assert rep.converged
        assert 1.5 <= rep.model.nu <= 3.0

    def test_mixture_recovery(self):
        rng = np.random.default_rng(12)
        comp = rng.random(10 ** 4) < 0.5
        x = np.where(comp, rng.normal(0.0, math.sqrt(2.0), 10 ** 4), rng.normal(9.0, math.sqrt(2.0), 10 ** 4))
        rep = D.fit_marginal_mle(x, "normal_mixture")
        assert rep.converged
        assert abs(rep.model.mu1 - 0.0) < 0.15
        assert abs(rep.model.mu2 - 9.0) < 0.15
        assert abs(rep.model.w - 0.5) < 0.05
        # grid cross-check: no (mu1, mu2) grid pair beats the EM log-likelihood
        best = rep.loglik
        for mu1 in np.linspace(-1, 1, 5):
            for mu2 in np.linspace(8, 10, 5):
                m = D.normal_mixture(0.5, mu1, mu2, math.sqrt(2.0))
                ll = float(np.sum(np.log(D.marginal_pdf(m, x))))
                assert ll <= best + 1e-6

    def test_beta_recovery(self):
        rng = np.random.default_rng(13)
        x = 1.0 - (1.0 - rng.random(10 ** 4)) ** (1.0 / 3.0)  # Beta(1, 3) by inversion
        rep = D.fit_marginal_mle(x, "beta11a")
        assert abs(rep.model.a - 2.0) < 0.1

    def test_constant_column_errors(self):
        with pytest.raises(ValueError, match="degenerate"):
            D.fit_marginal_mle(np.ones(100), "normal")

    @pytest.mark.parametrize("mu,sigma", [(0.0, math.inf), (0.0, math.nan), (math.inf, 1.0), (math.nan, 1.0)])
    def test_normal_models_reject_non_finite_parameters(self, mu, sigma):
        with pytest.raises(ValueError, match="finite"):
            D.normal(mu, sigma)
        with pytest.raises(ValueError, match="finite"):
            D.normal_mixture(0.5, mu, 1.0, sigma)
        with pytest.raises(ValueError, match="finite"):
            D.normal_mixture(0.5, 1.0, mu, sigma)

    def test_normal_fit_of_overflowing_squares_fails_quietly(self):
        # (1e200 - mean)^2 overflows, so sigma is inf: the fit must fail, with no numpy warning
        x = np.append(np.random.default_rng(15).normal(size=200), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive finite sigma, got mu=4.97.*e\\+197, sigma=inf"):
                D.fit_marginal_mle(x, "normal")

    def test_em_loglik_monotone(self):
        rng = np.random.default_rng(14)
        x = np.concatenate([rng.normal(0, 1.4, 300), rng.normal(9, 1.4, 300)])
        _, _, _, _, trace, _ = D._em_mixture(x, 1.0, 7.0)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-12)


class TestBvnCdf:
    def test_origin_closed_form(self):
        assert_allclose(D.bvn_cdf(RHO, 0.0, 0.0), 0.25 + math.asin(RHO) / (2 * math.pi), atol=1e-7)
        assert_allclose(D.bvn_cdf(RHO, 0.0, 0.0), 0.375, atol=1e-7)

    def test_independence_origin(self):
        assert_allclose(D.bvn_cdf(0.0, 0.0, 0.0), 0.25, atol=1e-12)

    @pytest.mark.parametrize("rho", [0.0, -0.0])
    def test_independence_is_the_product_exactly(self, rho):
        from scipy.special import ndtr

        x = np.array([-np.inf, -3.0, -0.5, 0.0, 0.5, 3.0, np.inf])
        xx, yy = np.meshgrid(x, x)
        assert np.array_equal(D.bvn_cdf(rho, xx, yy), ndtr(xx) * ndtr(yy))

    def test_far_tail(self):
        assert_allclose(D.bvn_cdf(0.5, 8.0, 8.0), 1.0, atol=1e-7)

    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.9])
    @pytest.mark.parametrize("x", [-2.0, 0.0, 2.0])
    def test_marginal_limit(self, rho, x):
        from scipy.special import ndtr

        assert_allclose(D.bvn_cdf(rho, x, np.inf), ndtr(x), atol=1e-7)

    def test_two_increasing_on_random_rectangles(self):
        rng = np.random.default_rng(20)
        for rho in (-0.8, 0.3, 0.95):
            a = rng.normal(size=(200, 2))
            b = a + rng.exponential(size=(200, 2))
            val = (
                D.bvn_cdf(rho, b[:, 0], b[:, 1])
                - D.bvn_cdf(rho, a[:, 0], b[:, 1])
                - D.bvn_cdf(rho, b[:, 0], a[:, 1])
                + D.bvn_cdf(rho, a[:, 0], a[:, 1])
            )
            assert np.all(val >= -1e-12)


class TestBvtCdf:
    def test_origin_matches_elliptical_closed_form(self):
        assert_allclose(D.bvt_cdf(RHO, 6.0, 0.0, 0.0), 0.375, atol=1e-5)

    def test_independent_quadrant(self):
        assert_allclose(D.bvt_cdf(0.0, 6.0, 0.0, 0.0), 0.25, atol=1e-8)

    def test_total_mass(self):
        assert_allclose(D.bvt_cdf(0.3, 6.0, np.inf, np.inf), 1.0, atol=1e-9)

    def test_marginal_limit(self):
        from scipy import stats

        assert_allclose(D.bvt_cdf(0.7, 6.0, 1.3, np.inf), stats.t.cdf(1.3, 6.0), atol=1e-6)

    def test_against_2d_quadrature(self):
        # independent oracle: adaptive 2-D quadrature of the bivariate t density
        from scipy.stats import multivariate_t

        rho, nu = RHO, 6.0
        mvt = multivariate_t(shape=[[1.0, rho], [rho, 1.0]], df=nu)
        for x, y in [(0.7, -0.3), (-1.2, 0.5), (1.5, 1.5)]:
            ref, _ = integrate.dblquad(lambda t, s: mvt.pdf([s, t]), -40, x, -40, y, epsabs=1e-9)
            assert_allclose(D.bvt_cdf(rho, nu, x, y), ref, atol=1e-6)


def _bvt_reference(rho, nu, x, y):
    """Adaptive 1-D quadrature of ``P(X <= x, Y <= y)``: the t density of X
    times the conditional t CDF (nu+1 degrees of freedom) of Y, split at the
    conditional mean's crossing of y so no bump is missed."""
    from scipy import stats

    c = math.sqrt((nu + 1.0) / (1.0 - rho * rho))

    def f(s):
        return stats.t.pdf(s, nu) * stats.t.cdf((y - rho * s) * c / math.sqrt(nu + s * s), nu + 1.0)

    breaks = sorted({b for b in (-1.0, 0.0, 1.0, y / rho) if b < x})
    edges = [-np.inf, *breaks, x]
    return sum(integrate.quad(f, a, b, epsabs=1e-15, epsrel=1e-13, limit=500)[0] for a, b in zip(edges[:-1], edges[1:]))


class TestBvtClosedForm:
    POINTS = [(0.7, -0.3), (-1.2, 0.5), (1.5, 1.5), (-3.1, -2.4), (1.7236, -100.29), (-100.29, 1.7236)]

    @pytest.mark.parametrize("nu", [1, 2, 3, 6, 7, 30])
    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.72])
    def test_against_adaptive_reference(self, nu, rho):
        x, y = np.array(self.POINTS).T
        got = D.bvt_cdf(rho, float(nu), x, y)
        ref = [_bvt_reference(rho, nu, a, b) for a, b in self.POINTS]
        assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_tail_point_the_quadrature_missed(self):
        # the Gauss-Legendre rule was off by -1.23e-5 here
        assert_allclose(D.bvt_cdf(0.72, 2.0, 1.7236, -100.29), _bvt_reference(0.72, 2, 1.7236, -100.29),
                        rtol=0, atol=1e-12)

    @pytest.mark.parametrize("nu", [1.0, 2.0, 5.0, 6.0])
    def test_infinite_limits_exact(self, nu):
        from scipy import stats

        t = np.array([-2.5, -0.3, 0.0, 1.3, 40.0])
        inf = np.full_like(t, np.inf)
        assert np.array_equal(D.bvt_cdf(0.6, nu, inf, t), stats.t.cdf(t, nu))
        assert np.array_equal(D.bvt_cdf(-0.6, nu, t, inf), stats.t.cdf(t, nu))
        assert np.all(D.bvt_cdf(0.6, nu, -inf, t) == 0.0)
        assert np.all(D.bvt_cdf(0.6, nu, t, -inf) == 0.0)
        assert D.bvt_cdf(0.6, nu, np.inf, np.inf) == 1.0
        assert D.bvt_cdf(0.6, nu, np.inf, -np.inf) == 0.0

    @pytest.mark.parametrize("nu", [1.0, 2.0, 3.0, 30.0])
    def test_far_limits_within_frechet_bounds(self, nu):
        from scipy import stats

        for rho in (-0.9, 0.3, 0.95):
            for x, y in [(1e10, 0.5), (-1e10, 0.5), (0.5, -1e10), (1e8, 1e8), (-1e6, -1e6), (1e13, -2.0)]:
                fx, fy = stats.t.cdf(x, nu), stats.t.cdf(y, nu)
                val = D.bvt_cdf(rho, nu, x, y)
                assert max(0.0, fx + fy - 1.0) - 1e-14 <= val <= min(fx, fy) + 1e-14

    @pytest.mark.parametrize("nu", [6.5, 0.0, 0.5, np.inf, np.nan])
    def test_nu_not_a_whole_number_raises(self, nu):
        with pytest.raises(ValueError, match="whole number"):
            D.bvt_cdf(RHO, nu, 0.7, -0.3)


class TestScipyStatsOracle:
    """The package forms the normal and t functions from scipy.special alone;
    each must equal scipy.stats bit for bit."""

    X = np.concatenate([np.random.default_rng(20).standard_t(3.0, 4000) * 3.0, [0.0, -0.0, 1e-300, 40.0, -250.0]])
    P = np.concatenate([np.random.default_rng(21).uniform(size=4000), [1e-15, 1e-10, 0.5, 1.0 - 1e-15]])

    @pytest.mark.parametrize("nu", D.NU_GRID)
    def test_student_t(self, nu):
        m = D.student_t(nu)
        assert np.array_equal(D.marginal_cdf(m, self.X), stats.t.cdf(self.X, nu))
        assert np.array_equal(D.marginal_quantile(m, self.P), stats.t.ppf(self.P, nu))
        assert np.array_equal(D.marginal_pdf(m, self.X), stats.t.pdf(self.X, nu))
        assert np.array_equal(D._t_logpdf(self.X, nu), stats.t.logpdf(self.X, nu))

    def test_t_profile_loglik(self):
        x = self.X[:4000]
        rep = D.fit_marginal_mle(x, "student_t")
        lls = [np.sum(stats.t.logpdf(x, nu)) for nu in D.NU_GRID]
        assert rep.loglik == max(lls) and rep.model.nu == D.NU_GRID[int(np.argmax(lls))]

    @pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (-2.5, 0.3), (10.0, 7.0)])
    def test_normal(self, mu, sigma):
        assert np.array_equal(D.marginal_pdf(D.normal(mu, sigma), self.X), stats.norm.pdf(self.X, mu, sigma))
        assert np.array_equal(D._norm_pdf(self.X, mu, sigma), stats.norm.pdf(self.X, mu, sigma))
        assert np.array_equal(D._norm_logpdf(self.X, mu, sigma), stats.norm.logpdf(self.X, mu, sigma))


@pytest.mark.parametrize("call, message", [
    (lambda: D.student_t(0), "nu must be positive"),
    (lambda: D.normal_mixture(1.5, 0.0, 1.0, 1.0), "w must be in (0, 1)"),
    (lambda: D.beta11a(0), "a must be positive"),
    (lambda: D.marginal_pdf(D.MarginalModel("bogus"), 0.5), "unknown family 'bogus'"),
    (lambda: D.marginal_cdf(D.MarginalModel("bogus"), 0.5), "unknown family 'bogus'"),
    (lambda: D.marginal_quantile(D.MarginalModel("bogus"), 0.5), "unknown family 'bogus'"),
    (lambda: D.fit_marginal_mle(np.arange(20.0), "bogus"), "unknown family 'bogus'"),
    (lambda: D.fit_marginal_mle(np.arange(5.0), "normal"), "need at least 10 observations"),
    (lambda: D.fit_marginal_mle(np.r_[np.arange(19.0), np.nan], "normal"), "sample contains non-finite values"),
    (lambda: D.fit_marginal_mle(np.linspace(-0.1, 0.9, 20), "beta11a"), "beta11a sample must lie in [0, 1]"),
    # log(1 - 0.7) = -1.2: the closed-form a = -n / sum log(1 - x) - 1 is below 0
    (lambda: D.fit_marginal_mle(np.r_[np.full(19, 0.7), 0.71], "beta11a"), "beta11a MLE outside the parameter domain"),
    (lambda: D.bvn_cdf(1.0, 0.0, 0.0), "|rho| must be < 1"),
    (lambda: D.bvt_cdf(1.0, 3, 0.0, 0.0), "|rho| must be < 1"),
], ids=["t-nu", "mixture-w", "beta-a", "pdf-family", "cdf-family", "quantile-family", "mle-family",
        "mle-five-points", "mle-nan", "mle-beta-outside", "mle-beta-negative-a", "bvn-rho-one", "bvt-rho-one"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_mixture_fit_nudges_equal_quantile_starts(monkeypatch):
    # 60% of the values tied at 0: the quartile start (q25, q75) is (0, 0)
    x = np.r_[np.linspace(-2.0, -1.0, 20), np.zeros(60), np.linspace(1.0, 2.0, 20)]
    starts = []
    em = D._em_mixture
    monkeypatch.setattr(D, "_em_mixture", lambda x, mu1, mu2: starts.append((mu1, mu2)) or em(x, mu1, mu2))
    assert D.fit_marginal_mle(x, "normal_mixture").model.family == D.NORMAL_MIXTURE
    assert starts[0] == (0.0, max(1e-3, np.std(x) / 10.0))
