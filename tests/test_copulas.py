import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, optimize, stats

from hdrkit import copulas as C, core, distributions as D, measures as M
from hdrkit.core import Sample2D
from oracles import ecdf1, npcop_rect_prob as chunked_rect_prob, npcop_rect_prob_rows as rows_rect_prob, t_copula_full_profile

RHO = math.sin(math.pi / 4.0)

TAU_FAMILIES = {
    "gaussian": C.gaussian(RHO),
    "student_t": C.student_t_copula(RHO, 6.0),
    "frank": C.frank(5.75),
    "clayton": C.clayton(2.0),
}
ALL_FAMILIES = dict(TAU_FAMILIES, independence=C.independence(), dirichlet11a=C.dirichlet11a(2.0))

# finite-difference steps balance truncation error against CDF evaluation
# noise
_FD_STEP = {"gaussian": 2e-3, "student_t": 5e-3, "frank": 2e-3, "clayton": 2e-3,
            "independence": 2e-3, "dirichlet11a": 2e-3}


def _family_cases():
    return [pytest.param(c, id=name) for name, c in ALL_FAMILIES.items()]


class TestTauCalibration:
    def test_gaussian(self):
        assert_allclose(C.tau_to_param("gaussian", 0.5).rho, RHO, rtol=1e-12)

    def test_clayton(self):
        assert_allclose(C.tau_to_param("clayton", 0.5).theta, 2.0, rtol=1e-12)

    def test_frank_debye_root(self):
        theta = C.tau_to_param("frank", 0.5).theta
        # the exact Debye-function root; the simulation grid rounds it to 5.75
        assert_allclose(theta, 5.7362827, atol=1e-5)
        assert abs(theta - 5.75) < 0.02

    def test_clayton_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            C.tau_to_param("clayton", -0.2)

    @pytest.mark.parametrize("family,tau", [("gaussian", 0.5), ("gaussian", -0.3), ("clayton", 0.5),
                                            ("clayton", 0.2), ("frank", 0.5), ("frank", -0.4)])
    def test_round_trip(self, family, tau):
        model = C.tau_to_param(family, tau)
        assert_allclose(C.kendall_tau(model), tau, atol=1e-8)

    @pytest.mark.parametrize("tau", [1e-9, 1e-7, 0.9921, 0.999, -1e-9, -1.1e-7, -0.9921, -0.995])
    def test_frank_outside_its_reach_names_the_range(self, tau):
        # brentq's bracket, theta in [1e-6, 500] or its negative, reaches these taus on each side of 0
        reach = r"\[1\.1088e-07, 0\.99203\]" if tau > 0 else r"\[-0\.99203, -1\.1116e-07\]"
        with pytest.raises(ValueError, match=f"Frank reaches tau in {reach} on this side of 0"):
            C.tau_to_param("frank", tau)

    @pytest.mark.parametrize("tau", [1.109e-7, 0.99202, -1.112e-7, -0.99202])
    def test_frank_just_inside_its_reach(self, tau):
        theta = C.tau_to_param("frank", tau).theta
        assert 1e-6 <= abs(theta) <= 500.0 and math.copysign(1.0, theta) == math.copysign(1.0, tau)
        assert_allclose(C.kendall_tau(C.frank(theta)), tau, rtol=0, atol=1e-9)  # xtol 1e-10 on theta


class TestDebye:
    # +-[1e-8, 500], plus both sides of the switch from the series to the closed form at |t| = 1e-2
    T = np.concatenate([np.logspace(-8, np.log10(500.0), 200), [np.nextafter(1e-2, 0.0), 1e-2, 0.0099, 0.0101]])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_against_quadrature(self, sign):
        for t in sign * self.T:
            ref = integrate.quad(lambda s: s / np.expm1(s), 0.0, t, limit=200)[0] / t
            assert_allclose(C._debye1(t), ref, rtol=1e-10, atol=0)


class TestCdf:
    def test_clayton_closed_form(self):
        assert_allclose(C.copula_cdf(C.clayton(2.0), 0.5, 0.5), 7.0 ** -0.5, rtol=1e-12)

    def test_frank_value(self):
        # cross-checked against 2-D quadrature of the Frank density
        val = C.copula_cdf(C.frank(5.75), 0.5, 0.5)
        assert_allclose(val, 0.3890, atol=1e-4)
        ref, _ = integrate.dblquad(
            lambda v, u: C.copula_pdf(C.frank(5.75), u, v), 1e-9, 0.5, 1e-9, 0.5, epsabs=1e-8
        )
        assert_allclose(val, ref, atol=1e-6)

    @pytest.mark.parametrize("c", _family_cases())
    def test_uniform_margins(self, c):
        u = np.linspace(0.0, 1.0, 31)
        assert_allclose(C.copula_cdf(c, u, np.ones_like(u)), u, atol=1e-9)
        assert_allclose(C.copula_cdf(c, np.ones_like(u), u), u, atol=1e-9)
        assert_allclose(C.copula_cdf(c, u, np.zeros_like(u)), 0.0, atol=1e-12)

    @pytest.mark.parametrize("c", _family_cases())
    def test_two_increasing(self, c):
        rng = np.random.default_rng(33)
        lo = rng.uniform(0.0, 1.0, size=(1000, 2))
        hi = lo + rng.uniform(0.0, 1.0, size=(1000, 2)) * (1.0 - lo)
        val = (
            C.copula_cdf(c, hi[:, 0], hi[:, 1])
            - C.copula_cdf(c, lo[:, 0], hi[:, 1])
            - C.copula_cdf(c, hi[:, 0], lo[:, 1])
            + C.copula_cdf(c, lo[:, 0], lo[:, 1])
        )
        assert np.all(val >= -1e-12)

    @pytest.mark.parametrize("nu", [6.5, 0.0])
    def test_student_t_needs_whole_nu(self, nu):
        c = C.CopulaModel("student_t", rho=RHO, nu=nu)  # student_t_copula itself rejects nu = 0
        with pytest.raises(ValueError, match="whole number"):
            C.copula_cdf(c, 0.3, 0.6)


class TestPdf:
    def test_independence_is_one(self):
        assert C.copula_pdf(C.independence(), 0.37, 0.81) == 1.0

    def test_gaussian_median_point(self):
        assert_allclose(C.copula_pdf(C.gaussian(RHO), 0.5, 0.5), 1.0 / math.sqrt(1.0 - RHO ** 2), rtol=1e-6)
        assert_allclose(C.copula_pdf(C.gaussian(RHO), 0.5, 0.5), math.sqrt(2.0), rtol=1e-6)

    def test_dirichlet_origin_limit(self):
        # c(0+, 0+) = a/(a+1), matching the direct density ratio f/(f1 f2)
        # at the simplex origin: a(a+1) / (a+1)^2
        val = C.copula_pdf(C.dirichlet11a(2.0), 1e-12, 1e-12)
        assert_allclose(val, 2.0 / 3.0, rtol=1e-6)

    def test_dirichlet_outside_support_zero(self):
        assert C.copula_pdf(C.dirichlet11a(2.0), 0.95, 0.95) == 0.0

    def test_boundary_errors(self):
        with pytest.raises(ValueError, match="boundary"):
            C.copula_pdf(C.gaussian(0.5), 0.0, 0.5)

    def test_student_t_non_integer_nu(self):
        # density and sampling take any nu > 0; only the CDF needs a whole nu
        from scipy.stats import multivariate_t

        c = C.student_t_copula(RHO, 6.5)
        u = C.copula_sample(c, 4000, np.random.default_rng(5)).u
        assert abs(stats.kendalltau(u[:, 0], u[:, 1]).statistic - 0.5) < 0.03
        x, y = stats.t.ppf(u[:50], 6.5).T
        joint = multivariate_t(shape=[[1.0, RHO], [RHO, 1.0]], df=6.5).pdf(np.column_stack([x, y]))
        assert_allclose(C.copula_pdf(c, u[:50, 0], u[:50, 1]), joint / (stats.t.pdf(x, 6.5) * stats.t.pdf(y, 6.5)),
                        rtol=1e-10)

    @pytest.mark.parametrize("c", _family_cases())
    def test_density_normalization_against_clipped_mass(self, c):
        # Gauss-Legendre 200x200 on the square clipped 1e-4 from the
        # boundary; uniform margins bound the clipped-out mass exactly via
        # the copula CDF, so quadrature must match it to 1e-3
        delta = 1e-4
        xg, wg = np.polynomial.legendre.leggauss(200)
        u = delta + (1.0 - 2.0 * delta) * (xg + 1.0) / 2.0
        w = (1.0 - 2.0 * delta) * wg / 2.0
        U, V = np.meshgrid(u, u, indexing="ij")
        quad = float(np.sum(np.outer(w, w) * C.copula_pdf(c, U, V)))
        mass = (
            C.copula_cdf(c, 1 - delta, 1 - delta)
            - C.copula_cdf(c, delta, 1 - delta)
            - C.copula_cdf(c, 1 - delta, delta)
            + C.copula_cdf(c, delta, delta)
        )
        assert mass >= 1.0 - 4.0 * delta
        assert abs(quad - mass) < 1e-3
        assert abs(quad + (1.0 - mass) - 1.0) < 1e-3

    @pytest.mark.parametrize("c", _family_cases())
    def test_cdf_pdf_finite_difference(self, c):
        rng = np.random.default_rng(44)
        uv = rng.uniform(0.06, 0.94, size=(100, 2))
        if c.family == "dirichlet11a":
            ok = (1 - uv[:, 0]) ** (1 / 3) + (1 - uv[:, 1]) ** (1 / 3) - 1 > 0.05
            uv = uv[ok]
        h = _FD_STEP[c.family]
        fd = (
            C.copula_cdf(c, uv[:, 0] + h, uv[:, 1] + h)
            - C.copula_cdf(c, uv[:, 0] - h, uv[:, 1] + h)
            - C.copula_cdf(c, uv[:, 0] + h, uv[:, 1] - h)
            + C.copula_cdf(c, uv[:, 0] - h, uv[:, 1] - h)
        ) / (4.0 * h * h)
        pdf = C.copula_pdf(c, uv[:, 0], uv[:, 1])
        assert np.max(np.abs(fd - pdf) / np.abs(pdf)) < 1e-3


class TestSampling:
    def _tau(self, c, n=10 ** 5, seed=77):
        u = C.copula_sample(c, n, np.random.default_rng(seed)).u
        return stats.kendalltau(u[:, 0], u[:, 1]).statistic

    @pytest.mark.parametrize("name", list(TAU_FAMILIES))
    def test_tau_half_families(self, name):
        c = TAU_FAMILIES[name]
        target = C.kendall_tau(c)
        assert abs(self._tau(c) - target) < 0.01

    def test_independence_tau_zero(self):
        assert abs(self._tau(C.independence())) < 0.01

    def test_dirichlet_tau(self):
        # reference tau from 2-D quadrature of 4 E[C(U,V)] - 1
        c = C.dirichlet11a(2.0)
        xg, wg = np.polynomial.legendre.leggauss(400)
        u = (xg + 1.0) / 2.0
        w = wg / 2.0
        U, V = np.meshgrid(u, u, indexing="ij")
        W = np.outer(w, w)
        tau_ref = 4.0 * float(np.sum(W * C.copula_cdf(c, U, V) * C.copula_pdf(c, U, V))) - 1.0
        assert_allclose(tau_ref, -0.2, atol=1e-4)
        assert abs(self._tau(c) - tau_ref) < 0.01

    def test_gaussian_spearman(self):
        # closed form rho_S = (6/pi) asin(rho/2)
        u = C.copula_sample(C.gaussian(RHO), 10 ** 5, np.random.default_rng(5)).u
        rho_s = stats.spearmanr(u[:, 0], u[:, 1]).statistic
        assert abs(rho_s - 6.0 / math.pi * math.asin(RHO / 2.0)) < 0.01

    def test_dirichlet_copula_maps_the_s17_draws(self):
        # one gamma-ratio draw: the copula pushes S17's points through the Beta(1, a + 1) CDF
        from hdrkit import scenarios

        pts = scenarios.sample_scenario(scenarios.scenario("S17"), 500, np.random.default_rng(4)).points
        u = C.copula_sample(C.dirichlet11a(2.0), 500, np.random.default_rng(4)).u
        assert np.array_equal(u, np.clip(1.0 - (1.0 - pts) ** 3.0, 1e-15, 1.0 - 1e-15))

    def test_zero_draws_errors(self):
        with pytest.raises(ValueError):
            C.copula_sample(C.independence(), 0, np.random.default_rng(0))


def _t_fit_over_the_whole_range(pseudo):
    """The t-copula MLE with no start: for each nu of the profile grid, rho
    searched over the whole of (-0.995, 0.995) to 1e-10. Returns
    ``(rho, nu, loglik)`` at the first nu of greatest log-likelihood."""
    u, v = pseudo.u[:, 0], pseudo.u[:, 1]
    best = None
    for nu in C.NU_GRID_COPULA:
        log_c = C._t_log_density(D._t_ppf(u, nu), D._t_ppf(v, nu), nu)
        res = optimize.minimize_scalar(lambda r: -float(np.sum(log_c(r))), bounds=(-0.995, 0.995),
                                       method="bounded", options={"xatol": 1e-10})
        if best is None or -res.fun > best[2]:
            best = (float(res.x), float(nu), -float(res.fun))
    return best


class TestFitting:
    def test_clayton_recovery(self):
        u = C.copula_sample(C.clayton(2.0), 10 ** 4, np.random.default_rng(8))
        model, ll = C.fit_copula_mle(u, "clayton")
        assert abs(model.theta - 2.0) < 0.15
        assert ll > 0

    def test_independence_as_frank(self):
        u = C.copula_sample(C.independence(), 10 ** 4, np.random.default_rng(9))
        model, _ = C.fit_copula_mle(u, "frank")
        assert abs(model.theta) < 0.15

    def test_gaussian_recovery(self):
        u = C.copula_sample(C.gaussian(RHO), 10 ** 4, np.random.default_rng(10))
        model, _ = C.fit_copula_mle(u, "gaussian")
        assert abs(model.rho - RHO) < 0.02

    @pytest.mark.parametrize("family", ["gaussian", "frank", "clayton", "student_t"])
    def test_loglik_is_the_log_density_sum_at_the_fit(self, family):
        pseudo = C.copula_sample(TAU_FAMILIES[family], 300, np.random.default_rng(13))
        model, ll = C.fit_copula_mle(pseudo, family)
        direct = float(np.sum(np.log(C.copula_pdf(model, pseudo.u[:, 0], pseudo.u[:, 1]))))
        if family == "student_t":  # the profile sums log-densities; copula_pdf exponentiates them
            assert_allclose(ll, direct, rtol=1e-12)
        else:
            assert ll == direct

    @pytest.mark.parametrize("sid", ["S1", "S6", "S11", "S16"])
    @pytest.mark.parametrize("rep", [0, 1])
    def test_t_fit_does_not_depend_on_its_start(self, sid, rep):
        from hdrkit import scenarios

        pts = scenarios.sample_scenario(scenarios.scenario(sid), 200, np.random.default_rng(rep)).points
        pseudo = C.pseudo_observations(pts)
        model, ll = C.fit_copula_mle(pseudo, "student_t")
        rho, nu, ll_ref = _t_fit_over_the_whole_range(pseudo)
        assert model.nu == nu
        assert abs(model.rho - rho) <= 1e-6
        assert abs(ll - ll_ref) <= 1e-10 * abs(ll_ref)

    @pytest.mark.parametrize("c", [0.1, 0.9])
    def test_t_fit_of_a_constant_column(self, c):
        # a column of 0.1s has variance 0, so the correlation start is NaN and
        # each nu searches the whole rho range; a column of 0.9s has a
        # round-off variance, and the start is within 1e-15 of 0
        u = np.column_stack([np.full(200, c), np.arange(1, 201) / 201.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, _ = C.fit_copula_mle(C.PseudoObservations(u), "student_t")
        assert abs(model.rho) < 1e-6
        assert model.nu == 30.0

    def test_aic_selects_clayton(self):
        u = C.copula_sample(C.clayton(2.0), 10 ** 4, np.random.default_rng(11))
        model, table = C.select_copula_aic(u)
        assert model.family == "clayton"
        assert set(table) == set(C.FITTABLE_FAMILIES)

    def test_aic_gaussian_parameter(self):
        u = C.copula_sample(C.gaussian(RHO), 10 ** 4, np.random.default_rng(12))
        model, _ = C.select_copula_aic(u)
        assert model.family in ("gaussian", "student_t")
        assert abs(model.rho - RHO) < 0.02

    def test_params_name_each_family_parameter(self):
        cases = [
            (C.gaussian(0.3), {"rho": 0.3}),
            (C.student_t_copula(0.3, 5.0), {"rho": 0.3, "nu": 5.0}),
            (C.frank(2.0), {"theta": 2.0}),
            (C.clayton(1.5), {"theta": 1.5}),
            (C.dirichlet11a(2.0), {"a": 2.0}),
            (C.independence(), {}),
        ]
        for model, expect in cases:
            assert model.params() == expect, model.family
            assert model.n_params() == len(model.params())


class TestScipyStatsOracle:
    """pseudo_observations replaces scipy.stats' ordinal ranks; it must
    equal them bit for bit, ties included."""

    @pytest.mark.parametrize("n", [20, 500, 5000])
    def test_ordinal_ranks_with_ties(self, n):
        pts = np.round(np.random.default_rng(n).standard_normal((n, 2)), 1)
        assert len(np.unique(pts[:, 0])) < n
        expect = stats.rankdata(pts, method="ordinal", axis=0) / (n + 1.0)
        assert np.array_equal(C.pseudo_observations(pts).u, expect)


def _same_search(func, lo, hi, xatol):
    """``_fminbound`` against scipy's bounded Brent search: both must probe
    the same points, and x, fun and success must agree to the bit."""
    probes = ([], [])
    x, fx, failure = C._fminbound(lambda t: probes[0].append(t) or func(t), lo, hi, xatol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the NaN cases
        res = optimize.minimize_scalar(lambda t: probes[1].append(t) or func(t), bounds=(lo, hi), method="bounded",
                                       options={"xatol": xatol})
    assert probes[0] == probes[1]
    assert np.float64(x).tobytes() == np.float64(res.x).tobytes()
    assert np.float64(fx).tobytes() == np.float64(res.fun).tobytes()
    assert (failure is None) == res.success
    return failure


class TestBoundedSearchOracle:
    """The copula fits' bounded Brent search is a port of scipy's
    ``minimize_scalar(method="bounded")``; scipy stays its oracle."""

    @pytest.fixture(scope="class", params=["S1", "S6", "S16"])
    def pseudo(self, request):
        from hdrkit import scenarios

        pts = scenarios.sample_scenario(scenarios.scenario(request.param), 300, np.random.default_rng(4)).points
        return C.pseudo_observations(pts)

    def test_t_profile_at_every_nu(self, pseudo):
        u, v = pseudo.u[:, 0], pseudo.u[:, 1]
        rho0 = float(np.clip(2.0 * np.sin(np.pi * np.corrcoef(u, v)[0, 1] / 6.0), -0.985, 0.985))
        for nu in C.NU_GRID_COPULA:
            log_c = C._t_log_density(D._t_ppf(u, nu), D._t_ppf(v, nu), nu)
            assert _same_search(lambda r: -float(np.sum(log_c(r))), max(-0.995, rho0 - 0.25),
                                min(0.995, rho0 + 0.25), 1e-6) is None

    @pytest.mark.parametrize("family", ["gaussian", "frank", "clayton"])
    def test_one_parameter_logliks(self, pseudo, family):
        make, (lo, hi) = C._ONE_PARAM[family]
        u, v = pseudo.u[:, 0], pseudo.u[:, 1]

        def nll(p):
            if family == "frank" and abs(p) < 1e-8:
                return -0.0
            return -float(np.sum(np.log(C.copula_pdf(make(p), u, v))))

        assert _same_search(nll, lo, hi, 1e-7) is None

    def test_flat_and_empty_intervals(self):
        assert _same_search(lambda x: 1.0, -2.0, 3.0, 1e-7) is None
        assert _same_search(lambda x: (x - 0.3) ** 2, 0.5, 0.5, 1e-7) is None

    def test_nan_fails(self):
        assert "NaN" in _same_search(lambda x: float("nan"), -1.0, 1.0, 1e-7)
        # finite for five calls, NaN after: the search ends on a NaN value
        def nan_after_five():
            calls = iter(range(10 ** 6))
            return lambda x: x * x if next(calls) < 5 else float("nan")

        x, fx, failure = C._fminbound(nan_after_five(), -1.0, 0.7, 1e-7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = optimize.minimize_scalar(nan_after_five(), bounds=(-1.0, 0.7), method="bounded",
                                           options={"xatol": 1e-7})
        assert (x, fx, res.success) == (res.x, res.fun, False)
        assert "NaN" in failure

    def test_call_limit_fails(self):
        # |x| with no x tolerance never meets the stopping test at 0
        assert "500 function calls" in _same_search(abs, -1.0, 1.0, 0.0)

    def test_unconverged_fit_names_its_cause(self, monkeypatch):
        pseudo = C.copula_sample(C.gaussian(RHO), 100, np.random.default_rng(3))
        monkeypatch.setattr(C, "copula_pdf", lambda c, u, v: np.full(u.shape, np.nan))
        with pytest.raises(RuntimeError, match="did not converge for gaussian: .*NaN"):
            C.fit_copula_mle(pseudo, "gaussian")


def _pcop_pseudo(monkeypatch, sid, points):
    """The pseudo-observations m0-pcop's t-copula fit sees on ``points``,
    fitted with scenario ``sid``'s marginal families."""
    from hdrkit import benchmark, scenarios

    seen = []
    fit = C.fit_copula_mle
    monkeypatch.setattr(C, "fit_copula_mle", lambda pseudo, fam: fam == C.STUDENT_T and seen.append(pseudo)
                        or fit(pseudo, fam))
    M.fit_measure(benchmark.measure_spec_for(scenarios.scenario(sid), "m0-pcop"), Sample2D(points))
    monkeypatch.setattr(C, "fit_copula_mle", fit)
    (pseudo,) = seen
    return pseudo


class TestNuSearch:
    """The t-copula fit searches the nu grid; the loop over all of it is the
    oracle, as scipy is for ``_fminbound``."""

    @pytest.mark.parametrize("sid,n,seed", [
        *[(sid, 500, seed) for sid in ("S1", "S6", "S16", "S3") for seed in (1, 2)],
        ("S6", 5000, 1),  # the points `apply` labels in the benchmark's apply-n5000
    ])
    def test_same_fit_as_the_full_profile_in_at_most_9_fits(self, monkeypatch, sid, n, seed):
        from hdrkit import benchmark

        pts = benchmark.simulate_scenario(sid, n, seed)[0].points
        pseudo = _pcop_pseudo(monkeypatch, sid, (pts - pts.mean(axis=0)) / pts.std(axis=0))
        calls = []
        ppf = C._t_ppf
        monkeypatch.setattr(C, "_t_ppf", lambda *a: calls.append(1) or ppf(*a))
        model, ll = C.fit_copula_mle(pseudo, "student_t")
        assert len(calls) <= 2 * 9  # two quantile columns per profile fit
        monkeypatch.setattr(C, "_t_ppf", ppf)
        assert (model.rho, model.nu, ll) == t_copula_full_profile(pseudo)

    @staticmethod
    def _sequences():
        """Length-29 sequences that rise strictly to their first maximum and
        never rise after it: every peak position, peak plateaus, falls in
        steps, monotone runs, and a constant one."""
        for p in range(29):
            for width in (1, 2, 5):
                for step in (1, 3):
                    top = min(28, p + width - 1)
                    yield [float(i - p) if i < p else 0.0 if i <= top else -float((i - top + step - 1) // step)
                           for i in range(29)]
        yield [float(i) for i in range(29)]
        yield [-float(i) for i in range(29)]
        yield [1.0] * 29
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = int(rng.integers(29))
            rise = np.cumsum(rng.uniform(0.01, 1.0, p + 1))
            fall = rise[-1] - np.cumsum(rng.choice([0.0, 0.5, 2.0], 28 - p))
            yield [*rise.tolist(), *fall.tolist()]

    def test_search_finds_the_first_maximum(self):
        for values in self._sequences():
            calls = []
            got = C._first_max(lambda i: calls.append(i) or values[i], len(values))
            assert got == values.index(max(values)), values
            assert len(calls) == len(set(calls)) <= 7, values

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 8, 13, 20])
    def test_any_length(self, size):
        for p in range(size):
            values = [-abs(i - p) for i in range(size)]
            assert C._first_max(values.__getitem__, size) == p


class TestNpCopula:
    def test_bandwidths_near_reference(self):
        u = C.copula_sample(C.independence(), 10 ** 4, np.random.default_rng(14))
        fit = C.npcop_fit(u)
        ref = (10 ** 4) ** (-1.0 / 6.0)  # sigma of Phi^-1(U) is 1
        assert abs(fit.h1 - ref) < 0.02
        assert abs(fit.h2 - ref) < 0.02

    def test_minimal_input(self):
        u = C.copula_sample(C.independence(), 20, np.random.default_rng(15))
        fit = C.npcop_fit(u)
        assert np.isfinite([fit.h1, fit.h2]).all()

    def test_boundary_pseudo_obs_rejected(self):
        with pytest.raises(ValueError):
            C.PseudoObservations(np.array([[0.0, 0.5]]))

    def test_pdf_single_kernel_identity(self):
        fit = C.NpCopulaFit(np.zeros((1, 2)), 1.0, 1.0)
        assert_allclose(C.npcop_pdf(fit, 0.5, 0.5), 1.0, rtol=1e-12)

    def test_pdf_consistency_independence(self):
        u = C.copula_sample(C.independence(), 10 ** 5, np.random.default_rng(16))
        fit = C.npcop_fit(u)
        assert abs(C.npcop_pdf(fit, 0.5, 0.5) - 1.0) < 0.05

    def test_clayton_lower_tail_ordering(self):
        u = C.copula_sample(C.clayton(2.0), 10 ** 5, np.random.default_rng(17))
        fit = C.npcop_fit(u)
        assert C.npcop_pdf(fit, 0.05, 0.05) > C.npcop_pdf(fit, 0.05, 0.95)

    def test_rect_full_square(self):
        u = C.copula_sample(C.gaussian(0.5), 200, np.random.default_rng(18))
        fit = C.npcop_fit(u)
        assert_allclose(C.npcop_rect_prob(fit, 0.0, 1.0, 0.0, 1.0), 1.0, rtol=1e-12)

    def test_rect_empty_interval(self):
        u = C.copula_sample(C.gaussian(0.5), 200, np.random.default_rng(19))
        fit = C.npcop_fit(u)
        assert C.npcop_rect_prob(fit, 0.3, 0.3, 0.1, 0.9) == 0.0

    def test_rect_inverted_errors(self):
        u = C.copula_sample(C.gaussian(0.5), 200, np.random.default_rng(20))
        fit = C.npcop_fit(u)
        with pytest.raises(ValueError, match="inverted"):
            C.npcop_rect_prob(fit, 0.5, 0.4, 0.1, 0.9)

    def test_rect_product_measure(self):
        u = C.copula_sample(C.independence(), 10 ** 5, np.random.default_rng(21))
        fit = C.npcop_fit(u)
        assert abs(C.npcop_rect_prob(fit, 0.2, 0.4, 0.2, 0.4) - 0.04) < 0.005

    def test_rect_matches_pdf_quadrature(self):
        # 50 random rectangles, n=500 fit: closed form vs tensor quadrature
        # of npcop_pdf in u-space
        u = C.copula_sample(C.gaussian(RHO), 500, np.random.default_rng(22))
        fit = C.npcop_fit(u)
        rng = np.random.default_rng(23)
        xg, wg = np.polynomial.legendre.leggauss(120)
        for _ in range(50):
            a1, a2 = rng.uniform(0.05, 0.80, size=2)
            b1 = a1 + rng.uniform(0.02, 0.95 - a1)
            b2 = a2 + rng.uniform(0.02, 0.95 - a2)
            uu = a1 + (b1 - a1) * (xg + 1.0) / 2.0
            vv = a2 + (b2 - a2) * (xg + 1.0) / 2.0
            wu = (b1 - a1) * wg / 2.0
            wv = (b2 - a2) * wg / 2.0
            U, V = np.meshgrid(uu, vv, indexing="ij")
            quad = float(np.sum(np.outer(wu, wv) * C.npcop_pdf(fit, U, V)))
            assert abs(quad - C.npcop_rect_prob(fit, a1, b1, a2, b2)) < 1e-4


def oracle_rect_prob(fit, *bounds):
    return chunked_rect_prob(fit, *bounds, chunk=C._NPCOP_CHUNK)


class TestNpRectSharedRows:
    """npcop_rect_prob evaluates one kernel row per distinct bound from
    whole-sample tables; it must stay bit-identical to the four-ndtr
    products summed in its fixed sample chunks, and within rounding of the
    same products summed over whole rows."""

    @staticmethod
    def _in_sample_bounds(n=120, eps=0.6):
        # m3-npcop's bounds: plain ECDF values count/n of the sample's own
        # points -/+ eps, with repeated points and a wide eps so 0 and 1 occur
        rng = np.random.default_rng(40)
        pts = np.vstack([rng.normal(size=(n - 20, 2)), np.repeat(rng.normal(size=(5, 2)), 4, axis=0)])
        fit = C.npcop_fit(C.pseudo_observations(pts))
        lo = np.column_stack([ecdf1(pts[:, j], pts[:, j] - eps) for j in range(2)])
        hi = np.column_stack([ecdf1(pts[:, j], pts[:, j] + eps) for j in range(2)])
        return fit, (lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1])

    @staticmethod
    def _random_bounds():
        u = C.copula_sample(C.clayton(2.0), 150, np.random.default_rng(41))
        b = np.sort(np.random.default_rng(42).uniform(0.0, 1.0, size=(4, 90, 2)), axis=2)
        return C.npcop_fit(u), (b[0, :, 0], b[0, :, 1], b[1, :, 0], b[1, :, 1])

    def test_random_bounds(self):
        fit, args = self._random_bounds()
        assert np.array_equal(C.npcop_rect_prob(fit, *args), oracle_rect_prob(fit, *args))
        # a 2-D batch keeps its shape
        args2 = tuple(a.reshape(9, 10) for a in args)
        got = C.npcop_rect_prob(fit, *args2)
        assert got.shape == (9, 10) and np.array_equal(got, oracle_rect_prob(fit, *args2))

    def test_scalar_call(self):
        u = C.copula_sample(C.gaussian(0.5), 60, np.random.default_rng(43))
        fit = C.npcop_fit(u)
        got = C.npcop_rect_prob(fit, 0.2, 0.55, 0.1, 0.7)
        assert isinstance(got, float) and got == oracle_rect_prob(fit, 0.2, 0.55, 0.1, 0.7)

    @pytest.mark.parametrize("budget", [1, C._NPCOP_CHUNK * 7, 10 ** 9], ids=["one-row", "remainder", "one-block"])
    def test_in_sample_bounds(self, monkeypatch, budget):
        # 1-row blocks, blocks of 7 rows (17 and a remainder of 1), and all
        # 120 queries in one block; n = 120 also ends in a short chunk
        fit, b = self._in_sample_bounds()
        assert fit.n % C._NPCOP_CHUNK
        assert np.any(b[0] == 0.0) and np.any(b[1] == 1.0) and np.any(b[2] == 0.0) and np.any(b[3] == 1.0)
        monkeypatch.setattr(core, "_BLOCK_BUDGET", budget)
        assert np.array_equal(C.npcop_rect_prob(fit, *b), oracle_rect_prob(fit, *b))

    def test_close_to_whole_row_sums(self):
        # the chunked sums differ from whole-row sums only by rounding
        fit, b = self._in_sample_bounds()
        assert_allclose(C.npcop_rect_prob(fit, *b), rows_rect_prob(fit, *b), rtol=1e-13, atol=0)
        fit, b = self._random_bounds()
        assert_allclose(C.npcop_rect_prob(fit, *b), rows_rect_prob(fit, *b), rtol=1e-13, atol=0)
        b2 = tuple(a.reshape(9, 10) for a in b)
        assert_allclose(C.npcop_rect_prob(fit, *b2), rows_rect_prob(fit, *b2), rtol=1e-13, atol=0)
        assert_allclose(C.npcop_rect_prob(fit, 0.2, 0.55, 0.1, 0.7), rows_rect_prob(fit, 0.2, 0.55, 0.1, 0.7),
                        rtol=1e-13, atol=0)

    def test_in_sample_call_shares_kernel_rows(self, monkeypatch):
        n = 400
        pts = np.random.default_rng(44).normal(size=(n, 2))
        f = M.fit_measure(M.MeasureSpec("m3-npcop"), Sample2D(pts))
        eps = f.hyperparams["eps"]
        distinct = [np.unique(np.concatenate([ecdf1(pts[:, j], pts[:, j] - eps), ecdf1(pts[:, j], pts[:, j] + eps)])).size
                    for j in range(2)]
        entries = []
        ndtr = C.special.ndtr
        monkeypatch.setattr(C.special, "ndtr", lambda x, *a, **kw: entries.append(np.size(x)) or ndtr(x, *a, **kw))
        f.score(pts)
        # one kernel row per distinct bound of each axis, where the four-ndtr
        # formula evaluates 4 n^2 entries
        assert sum(entries) == (distinct[0] + distinct[1]) * n


def _npfit():
    return C.npcop_fit(C.copula_sample(C.gaussian(0.5), 40, np.random.default_rng(45)))


# a NaN compares False both ways, so a range check must fail it, not pass it
_NAN = np.array([0.3, np.nan])


@pytest.mark.parametrize("call", [
    lambda: C.copula_cdf(C.gaussian(0.5), _NAN, 0.5),
    lambda: C.copula_pdf(C.clayton(2.0), 0.5, _NAN),
    lambda: C.npcop_pdf(_npfit(), _NAN, 0.5),
    lambda: C.npcop_rect_prob(_npfit(), 0.1, 0.9, 0.2, _NAN),
    lambda: C.PseudoObservations(np.column_stack([_NAN, [0.2, 0.4]])),
    lambda: D.marginal_quantile(D.normal(0.0, 1.0), _NAN),
    lambda: C.pseudo_observations(np.column_stack([_NAN, [0.2, 0.4]])),
], ids=["copula_cdf", "copula_pdf", "npcop_pdf", "npcop_rect_prob", "PseudoObservations", "marginal_quantile",
        "pseudo_observations"])
def test_nan_coordinate_raises(call):
    with pytest.raises(ValueError):
        call()


_U10, _U30 = (C.pseudo_observations(np.random.default_rng(1).normal(size=(n, 2))) for n in (10, 30))


@pytest.mark.parametrize("call, message", [
    (lambda: C.gaussian(1.0), "|rho| must be < 1"),
    (lambda: C.student_t_copula(1.0, 5.0), "|rho| must be < 1"),
    (lambda: C.student_t_copula(0.5, 0.0), "nu must be positive"),
    (lambda: C.frank(0.0), "Frank theta must be nonzero (theta -> 0 is independence)"),
    (lambda: C.clayton(0.0), "Clayton theta must be positive"),
    (lambda: C.dirichlet11a(0.0), "a must be positive"),
    (lambda: C.kendall_tau(C.dirichlet11a(1.0)), "no closed-form tau for 'dirichlet11a'"),
    (lambda: C.tau_to_param("gaussian", 1.0), "tau must be in (-1, 1)"),
    (lambda: C.tau_to_param("frank", 0.0), "Frank tau = 0 is the independence limit"),
    (lambda: C.tau_to_param("independence", 0.2), "independence requires tau = 0"),
    (lambda: C.tau_to_param("dirichlet11a", 0.2), "cannot calibrate 'dirichlet11a' by tau"),
    (lambda: C.copula_cdf(C.CopulaModel("bogus"), 0.5, 0.5), "unknown family 'bogus'"),
    (lambda: C.copula_pdf(C.CopulaModel("bogus"), 0.5, 0.5), "unknown family 'bogus'"),
    (lambda: C.copula_sample(C.CopulaModel("bogus"), 5, np.random.default_rng(0)), "cannot sample from 'bogus'"),
    (lambda: C.PseudoObservations(np.full((3, 3), 0.5)), "pseudo-observations must be (n, 2)"),
    (lambda: C.fit_copula_mle(_U10, "gaussian"), "need at least 20 pseudo-observations"),
    (lambda: C.fit_copula_mle(_U30, "independence"), "family 'independence' is not fittable"),
    (lambda: C.npcop_fit(_U10), "need at least 20 pseudo-observations"),
], ids=["gaussian-rho", "t-rho", "t-nu", "frank-theta", "clayton-theta", "dirichlet-a", "tau-of-dirichlet",
        "tau-one", "frank-tau-zero", "independence-tau", "dirichlet-by-tau", "cdf-family", "pdf-family",
        "sample-family", "pseudo-shape", "mle-ten-points", "mle-independence", "npcop-ten-points"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_tau_calibration_without_a_parameter_to_solve():
    assert C.kendall_tau(C.independence()) == 0.0
    assert C.tau_to_param("independence", 0.0) == C.independence()
    # tau does not identify the t copula's nu: it is set to 6
    assert C.tau_to_param("student_t", 0.3) == C.student_t_copula(np.sin(np.pi * 0.3 / 2.0), 6.0)


class TestSelectionSkipsFailedFits:
    PSEUDO = C.pseudo_observations(np.random.default_rng(2).normal(size=(60, 2)))

    def test_failed_family_left_out(self, monkeypatch):
        fit = C.fit_copula_mle
        want = {f: fit(self.PSEUDO, f) for f in C.FITTABLE_FAMILIES if f != "student_t"}

        def fail_t(pseudo, family):
            if family == "student_t":
                raise RuntimeError("no fit")
            return fit(pseudo, family)

        monkeypatch.setattr(C, "fit_copula_mle", fail_t)
        model, table = C.select_copula_aic(self.PSEUDO)
        assert list(table) == list(want)
        best = min(want, key=lambda f: 2.0 * want[f][0].n_params() - 2.0 * want[f][1])
        assert model == want[best][0]

    def test_all_failed_raises(self, monkeypatch):
        monkeypatch.setattr(C, "fit_copula_mle", lambda pseudo, family: 1 / 0)
        with pytest.raises(RuntimeError, match="all candidate copula fits failed"):
            C.select_copula_aic(self.PSEUDO)
