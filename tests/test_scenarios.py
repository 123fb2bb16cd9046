import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

import hdrkit as hk
from hdrkit import distributions as D
from hdrkit.benchmark import oracle_rng
from hdrkit.scenarios import SCENARIO_IDS, build_truth_oracle, label_truth, sample_scenario, scenario, true_density
from oracles import m0_pcop_from_models

RHO = math.sin(math.pi / 4.0)


class TestGridStructure:
    def test_anchor_captions(self):
        assert scenario("S1").description == "Gaussian copula - Student-t marginals"
        assert scenario("S6").description == "Student-t copula - Gaussian marginals"
        assert scenario("S11").description == "Frank copula - Gaussian & Gaussian mixture marginals"
        assert scenario("S16").description == "Clayton copula - Gaussian mixture marginals"

    def test_copula_blocks(self):
        assert scenario("S1").copula.family == "gaussian" and scenario("S1").copula.rho == RHO
        assert scenario("S6").copula.family == "student_t" and scenario("S6").copula.nu == 6.0
        assert scenario("S11").copula.family == "frank" and scenario("S11").copula.theta == 5.75
        assert scenario("S16").copula.family == "clayton" and scenario("S16").copula.theta == 2.0

    def test_marginal_schemes(self):
        s2 = scenario("S2")
        assert s2.marginals[0].family == "normal" and s2.marginals[0].mu == 0.0
        assert s2.marginals[1].mu == 1.0
        assert_allclose(s2.marginals[0].sigma ** 2, 2.0)
        s3 = scenario("S3")  # bimodal: second component shifted by +5 beyond mu22 = 8
        assert s3.marginals[1].family == "normal_mixture"
        assert (s3.marginals[1].mu1, s3.marginals[1].mu2) == (1.0, 13.0)
        s4 = scenario("S4")
        assert (s4.marginals[0].mu1, s4.marginals[0].mu2) == (0.0, 9.0)
        assert (s4.marginals[1].mu1, s4.marginals[1].mu2) == (1.0, 8.0)

    def test_s17_simplex(self):
        s17 = scenario("S17")
        assert s17.is_simplex
        assert s17.copula.family == "dirichlet11a" and s17.copula.a == 2.0

    def test_unknown_id_errors(self):
        with pytest.raises(ValueError):
            scenario("S18")


class TestSampling:
    def test_no_points_errors(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            sample_scenario(scenario("S1"), 0, np.random.default_rng(0))

    def test_s2_moments(self):
        s = scenario("S2")
        pts = sample_scenario(s, 10 ** 5, np.random.default_rng(0)).points
        assert np.all(np.abs(pts.mean(axis=0) - [0.0, 1.0]) < 0.02)
        assert np.all(np.abs(pts.var(axis=0) - 2.0) < 0.05)

    def test_s16_tau(self):
        s = scenario("S16")
        pts = sample_scenario(s, 10 ** 5, np.random.default_rng(1)).points
        tau = stats.kendalltau(pts[:, 0], pts[:, 1]).statistic
        assert abs(tau - 0.5) < 0.01

    def test_s17_simplex_closure_and_mean(self):
        s = scenario("S17")
        pts = sample_scenario(s, 10 ** 5, np.random.default_rng(2)).points
        assert np.all(pts[:, 0] >= 0.0)
        assert np.all(pts[:, 1] >= 0.0)
        assert np.all(pts.sum(axis=1) <= 1.0)
        assert abs(pts[:, 0].mean() - 0.25) < 0.005

    @pytest.mark.parametrize("sid", SCENARIO_IDS)
    def test_marginals_ks_below_critical(self, sid):
        s = scenario(sid)
        n = 10 ** 4
        pts = sample_scenario(s, n, np.random.default_rng(100 + s.index)).points
        crit = 1.6276 / math.sqrt(n)  # asymptotic 1% Kolmogorov-Smirnov critical value
        for j in (0, 1):
            stat = stats.kstest(pts[:, j], lambda t: D.marginal_cdf(s.marginals[j], t)).statistic
            assert stat < crit


class TestTrueDensity:
    def test_s17_plugin_value(self):
        assert_allclose(true_density(scenario("S17"), [(0.25, 0.25)])[0], 3.0, rtol=1e-12)

    def test_s2_mode_value(self):
        val = true_density(scenario("S2"), [(0.0, 1.0)])[0]
        assert_allclose(val, 1.0 / (2.0 * math.pi * 2.0 * math.sqrt(1.0 - RHO ** 2)), rtol=1e-9)
        assert_allclose(val, 0.11254, atol=1e-5)

    def test_s17_outside_simplex_zero(self):
        assert true_density(scenario("S17"), [(0.6, 0.6)])[0] == 0.0

    @pytest.mark.parametrize("sid", SCENARIO_IDS[:16])
    def test_is_m0_pcop_with_the_true_models(self, sid):
        # the copula scenarios' density is m0-pcop scored with the true
        # models, to the bit, wherever the marginal CDFs lie in [1e-12,
        # 1 - 1e-12]; past that each keeps its own clip (5e-300 for the
        # truth, 1e-12 for m0-pcop), so a far point tells them apart
        s = scenario(sid)
        measure = m0_pcop_from_models(s.copula, s.marginals)
        pts = sample_scenario(s, 200, np.random.default_rng(9)).points
        assert np.array_equal(true_density(s, pts), measure.score(pts))
        far = np.array([[float(D.marginal_quantile(s.marginals[0], 1e-14)), pts[0, 1]]])
        assert D.marginal_cdf(s.marginals[0], far[:, 0])[0] < 1e-12
        assert true_density(s, far)[0] != measure.score(far)[0]

    @pytest.mark.parametrize("sid", SCENARIO_IDS)
    def test_density_normalization(self, sid):
        s = scenario(sid)
        if s.is_simplex:
            # triangle map x1 = u, x2 = v (1 - u), Jacobian (1 - u)
            xg, wg = np.polynomial.legendre.leggauss(100)
            u = (xg + 1.0) / 2.0
            w = wg / 2.0
            U, V = np.meshgrid(u, u, indexing="ij")
            pts = np.column_stack([U.ravel(), (V * (1.0 - U)).ravel()])
            vals = true_density(s, pts).reshape(U.shape) * (1.0 - U)
            total = float(np.sum(np.outer(w, w) * vals))
        else:
            # per-axis quantile-spaced cells with a Gauss-Legendre rule in
            # each cell; the omitted tails carry <= 2e-7 marginal mass
            levels = [1e-7, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1 - 1e-7]
            xg, wg = np.polynomial.legendre.leggauss(24)
            nodes, weights = [], []
            for j in (0, 1):
                edges = D.marginal_quantile(s.marginals[j], np.array(levels))
                nj, wj = [], []
                for a, b in zip(edges[:-1], edges[1:]):
                    nj.append(a + (b - a) * (xg + 1.0) / 2.0)
                    wj.append((b - a) * wg / 2.0)
                nodes.append(np.concatenate(nj))
                weights.append(np.concatenate(wj))
            X, Y = np.meshgrid(nodes[0], nodes[1], indexing="ij")
            vals = true_density(s, np.column_stack([X.ravel(), Y.ravel()])).reshape(X.shape)
            total = float(np.sum(np.outer(weights[0], weights[1]) * vals))
        assert abs(total - 1.0) < 2e-3


class TestTruthOracle:
    def test_requires_large_reference(self):
        with pytest.raises(ValueError):
            build_truth_oracle(scenario("S2"), 0.05, 10 ** 4, np.random.default_rng(0))

    def test_f_alpha_stable_across_seeds(self):
        s = scenario("S2")
        a = build_truth_oracle(s, 0.05, 10 ** 6, np.random.default_rng(1)).f_alpha
        b = build_truth_oracle(s, 0.05, 10 ** 6, np.random.default_rng(2)).f_alpha
        assert abs(a - b) / a < 0.01

    def test_f_alpha_monotone_in_alpha(self):
        s = scenario("S2")
        lo = build_truth_oracle(s, 0.5, 10 ** 5, np.random.default_rng(3)).f_alpha
        hi = build_truth_oracle(s, 0.95, 10 ** 5, np.random.default_rng(3)).f_alpha
        assert hi > lo

    def test_s17_analytic_quantile(self):
        # f = 6 X3 with X3 ~ Beta(2, 2), so f_alpha = 6 betaincinv(2,2,alpha)
        from scipy.special import betaincinv

        oracle = build_truth_oracle(scenario("S17"), 0.05, 10 ** 6, oracle_rng(42, "S17"))
        assert_allclose(oracle.f_alpha, 6.0 * betaincinv(2.0, 2.0, 0.05), rtol=2e-3)

    def test_s2_analytic_quantile(self):
        # a bivariate normal's density is exp(-Q/2) / (2 pi sqrt(det S)) with
        # Q ~ chi2_2, so f_alpha = alpha / (2 pi sqrt(det S)); rtol is about
        # 2.5 Monte Carlo standard errors at 1e6 draws
        s = scenario("S2")
        m1, m2 = s.marginals
        det = (m1.sigma * m2.sigma) ** 2 * (1.0 - s.copula.rho ** 2)
        oracle = build_truth_oracle(s, 0.05, 10 ** 6, oracle_rng(42, "S2"))
        assert_allclose(oracle.f_alpha, 0.05 / (2.0 * math.pi * math.sqrt(det)), rtol=1e-2)

    def test_label_truth_basics(self):
        s = scenario("S2")
        oracle = build_truth_oracle(s, 0.05, 10 ** 5, np.random.default_rng(4))
        labels = label_truth(oracle, s, [(0.0, 1.0), (40.0, -40.0)])
        assert labels[0] and not labels[1]

    def test_truth_fraction_on_fresh_draws(self):
        s = scenario("S2")
        oracle = build_truth_oracle(s, 0.05, 10 ** 6, np.random.default_rng(5))
        fresh = sample_scenario(s, 10 ** 5, np.random.default_rng(6))
        frac = float(np.mean(label_truth(oracle, s, fresh.points)))
        assert abs(frac - 0.95) < 3.0 * math.sqrt(0.05 * 0.95 / 10 ** 5) + 0.002

    def test_s17_outside_simplex_labels_outside(self):
        s = scenario("S17")
        oracle = build_truth_oracle(s, 0.05, 10 ** 5, np.random.default_rng(7))
        assert not label_truth(oracle, s, [(0.7, 0.7)])[0]

    def test_scenario_mismatch_errors(self):
        oracle = build_truth_oracle(scenario("S2"), 0.05, 10 ** 5, np.random.default_rng(8))
        with pytest.raises(ValueError):
            label_truth(oracle, scenario("S3"), [(0.0, 0.0)])
