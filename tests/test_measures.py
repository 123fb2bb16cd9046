import math
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

import hdrkit as hk
from hdrkit import copulas as C, core, distributions as D, measures as M
from hdrkit.benchmark import measure_spec_for, replicate_rng, run_tune
from hdrkit.core import Orientation, Sample2D
from oracles import ecdf1, kde_scores, knn_eucl_scores, rect_count


class TestHeuristics:
    @pytest.mark.parametrize("n,expect", [(50, 5), (100, 7), (500, 16), (1000, 22), (2, 1)])
    def test_k_rule_paper_instances(self, n, expect):
        assert M.heuristic_k(n) == expect

    def test_eps_published_instances(self):
        assert_allclose(M.heuristic_eps("m3-ecdf", 500), 1.30, atol=0.005)
        assert_allclose(M.heuristic_eps("m3-pcop", 500), 0.39, atol=0.005)
        assert_allclose(M.heuristic_eps("m3-npcop", 500), 1.13, atol=0.005)

    @pytest.mark.parametrize("support", [M.UNBOUNDED, M.SIMPLEX])
    @pytest.mark.parametrize("n", [20, 60, 500, 5000])
    def test_every_default_rule_exact(self, n, support):
        # the published rules written out; the filled k or eps must be these very numbers
        ln = math.log(n)
        simplex = support == M.SIMPLEX
        want = {
            "m1": ("k", int(math.floor(math.sqrt(n / 2.0) + 0.5))),
            "m2": ("k", min(30, n)),
            "m3-ecdf": ("eps", 0.10 if simplex else math.exp(2.13 - 0.30 * ln)),
            "m3-npcop": ("eps", math.exp(-1.22 - 0.23 * ln) if simplex else math.exp(1.74 - 0.26 * ln)),
            "m3-pcop": ("eps", 0.02 if simplex else math.exp(1.60 - 0.41 * ln)),
        }
        for kind, (param, value) in want.items():
            spec = M.fill_spec(M.build_spec(kind, support_class=support, marginal_families=("normal", "normal")), n)
            got = getattr(spec, param)
            assert got == value and type(got) is type(value), (kind, got, value)
            if param == "eps":
                assert M.heuristic_eps(kind, n, support) == value, kind

    def test_eps_simplex(self):
        assert M.heuristic_eps("m3-ecdf", 500, M.SIMPLEX) == 0.10
        assert M.heuristic_eps("m3-pcop", 500, M.SIMPLEX) == 0.02
        assert_allclose(M.heuristic_eps("m3-npcop", 500, M.SIMPLEX), math.exp(-1.22 - 0.23 * math.log(500)))

    def test_eps_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            M.heuristic_eps("m1", 100)


class TestSpecFilling:
    def test_m1_k_filled(self):
        rng = np.random.default_rng(0)
        samp = Sample2D(rng.normal(size=(50, 2)))
        f = M.fit_measure(M.MeasureSpec("m1"), samp)
        assert f.spec.k == 5

    def test_m2_k_default_30(self):
        rng = np.random.default_rng(1)
        samp = Sample2D(rng.normal(size=(100, 2)))
        f = M.fit_measure(M.MeasureSpec("m2"), samp)
        assert f.spec.k == 30

    def test_pcop_recovers_clayton_mixture_marginals(self):
        s16 = hk.scenario("S16")
        hits = 0
        for rep in range(10):
            rng = replicate_rng(1, "S16", 500, "spec-fill", rep)
            samp = hk.sample_scenario(hk.scenario("S16"), 500, rng)
            f = M.fit_measure(measure_spec_for(s16, "m0-pcop"), samp)
            if f.fitted_copula_family == "clayton":
                hits += 1
        assert hits >= 8

    def test_pcop_recovers_clayton_theta(self):
        # Clayton(2) + Gaussian marginals at n=500: family selected and
        # theta inside the +-0.4 replicate-spread band
        s14 = hk.scenario("S14")
        for rep in range(10):
            rng = replicate_rng(5, "S14", 500, "pcop-theta", rep)
            samp = hk.sample_scenario(s14, 500, rng)
            f = M.fit_measure(measure_spec_for(s14, "m0-pcop"), samp)
            assert f.fitted_copula_family == "clayton"
            assert abs(f.hyperparams["theta"] - 2.0) <= 0.4

    def test_invalid_spec_combinations(self):
        with pytest.raises(ValueError):
            M.MeasureSpec("m0-kde", k=5)
        with pytest.raises(ValueError):
            M.MeasureSpec("m1", eps=0.5)
        with pytest.raises(ValueError):
            M.MeasureSpec("m1", marginal_families=("normal", "normal"))
        # only the parametric-copula kinds read marginal families
        for kind in ("m0-npcop", "m3-npcop"):
            with pytest.raises(ValueError, match="takes no marginal families"):
                M.MeasureSpec(kind, marginal_families=("normal", "normal"))

    @pytest.mark.parametrize("families", [(), ("normal",), ("nrml", "normal"), ("normal", "normal", "normal")])
    def test_pcop_needs_two_known_families(self, families):
        for kind in ("m0-pcop", "m3-pcop"):
            with pytest.raises(ValueError, match="takes two marginal families"):
                M.MeasureSpec(kind, marginal_families=families)

    def test_pcop_without_families_rejected_before_fitting(self):
        for kind in ("m0-pcop", "m3-pcop"):
            with pytest.raises(ValueError, match=f"^{kind} requires marginal_families$"):
                M.fill_spec(M.MeasureSpec(kind), 100)
        # a list is kept as a tuple
        spec = M.fill_spec(M.MeasureSpec("m3-pcop", marginal_families=["beta11a", "normal_mixture"]), 100)
        assert spec.marginal_families == ("beta11a", "normal_mixture")
        # the injected-model measures name their models' families
        marg = (D.normal(0.0, 1.0), D.student_t(5.0))
        assert M.m0_pcop_from_models(C.gaussian(0.5), marg).spec.marginal_families == ("normal", "student_t")
        assert M.m3_pcop_from_models(C.gaussian(0.5), marg, 0.1).spec.marginal_families == ("normal", "student_t")

    def test_one_point_sample_rejected(self):
        samp = Sample2D([(0.5, 1.5)])
        for kind in M.MEASURE_KINDS:
            least = 20 if kind in ("m0-npcop", "m0-pcop", "m3-npcop", "m3-pcop") else 2
            spec = M.build_spec(kind, marginal_families=("normal", "normal"))
            with pytest.raises(ValueError, match=f"^{kind} needs at least {least} points$"):
                M.fit_measure(spec, samp)

    @pytest.mark.parametrize("eps,message", [
        (np.inf, "must be finite"), (-np.inf, "must be finite"), (np.nan, "must be finite"),
        (0.0, "must be positive"), (-0.1, "must be positive"),
        (1e-320, "out of range"), (1e-155, "out of range"), (1e154, "out of range"),
    ])
    def test_eps_must_give_a_positive_finite_box_area(self, eps, message):
        for kind in ("m3-ecdf", "m3-npcop", "m3-pcop"):
            with pytest.raises(ValueError, match=message):
                M.MeasureSpec(kind, eps=eps)
            with pytest.raises(ValueError, match=message):
                M.build_spec(kind, eps=eps, marginal_families=("normal", "normal"))
        with pytest.raises(ValueError, match=message):
            M.m3_pcop_from_models(C.gaussian(0.5), (D.normal(0.0, 1.0), D.normal(0.0, 1.0)), eps)
        # the box area of these is a normal, finite float, and so are the scores
        for eps in (1e-154, 1e153):
            assert M.MeasureSpec("m3-ecdf", eps=eps).eps == eps
        samp = Sample2D(np.random.default_rng(2).normal(size=(30, 2)))
        for kind in ("m3-ecdf", "m3-npcop"):
            for eps in (1e-154, 1e153):
                M.fit_measure(M.MeasureSpec(kind, eps=eps), samp).score_vector(samp)

    def test_k_must_be_whole(self):
        for k in (2.5, np.inf, np.nan):
            with pytest.raises(ValueError, match="whole number"):
                M.MeasureSpec("m2", k=k)
            with pytest.raises(ValueError, match="whole number"):
                M.build_spec("m1", k=k)
        spec = M.build_spec("m1", k=2.0)
        assert spec == M.MeasureSpec("m1", k=2) and type(spec.k) is int


class TestQueryShape:
    def test_only_m_by_2_queries_or_one_point(self):
        s6 = hk.scenario("S6")
        samp = hk.sample_scenario(s6, 40, replicate_rng(5, "S6", 40, "query-shape", 0))
        for kind in M.MEASURE_KINDS:
            f = M.fit_measure(measure_spec_for(s6, kind), samp)
            one = f.score(samp.points[3])
            assert type(one) is float and one == f.score(samp.points[3:4])[0], kind
            assert f.score(np.empty((0, 2))).shape == (0,), kind
            for bad in (np.zeros((5, 3)), np.zeros((5, 1)), np.zeros(3), np.zeros((2, 2, 2)), 1.0):
                with pytest.raises(ValueError, match=r"expected \(m, 2\) query points, got shape"):
                    f.score(bad)

    def test_queries_not_copied(self):
        seen = []
        f = M.FittedMeasure(M.MeasureSpec("m1"), lambda q: seen.append(q) or np.zeros(q.shape[0]), {})
        q = np.zeros((4, 2))
        f.score(q)
        assert seen[0] is q


class TestKdeScore:
    def test_single_kernel_center(self):
        f = M.FittedMeasure(M.MeasureSpec("m0-kde"), partial(M._kde_scores, np.zeros((1, 2)), 1.0), {"h": 1.0})
        assert_allclose(f.score((0.0, 0.0)), 1.0 / (2.0 * math.pi), rtol=1e-12)

    def test_single_kernel_radius_five(self):
        f = M.FittedMeasure(M.MeasureSpec("m0-kde"), partial(M._kde_scores, np.zeros((1, 2)), 1.0), {"h": 1.0})
        assert_allclose(f.score((3.0, 4.0)), math.exp(-12.5) / (2.0 * math.pi), rtol=1e-10)

    @pytest.mark.parametrize("n", [2, 60, 700])
    def test_matches_whole_matrix_oracle(self, n):
        rng = np.random.default_rng(n)
        pts = rng.normal(size=(n, 2))
        queries = np.vstack([pts, rng.normal(size=(25, 2))])
        f = M.fit_measure(M.MeasureSpec("m0-kde"), Sample2D(pts))
        assert np.array_equal(f.score(queries), kde_scores(pts, queries, f.hyperparams["h"]))

    def test_kde_consistency_at_mode(self):
        s2 = hk.scenario("S2")
        rng = replicate_rng(3, "S2", 10 ** 4, "kde-mode", 0)
        samp = hk.sample_scenario(s2, 10 ** 4, rng)
        f = M.fit_measure(M.MeasureSpec("m0-kde"), samp)
        mode = np.array([[0.0, 1.0]])
        truth = hk.true_density(s2, mode)[0]
        assert abs(f.score(mode)[0] - truth) / truth < 0.15


class TestKnnScores:
    def test_m1_self_is_zero_at_k1(self):
        samp = Sample2D([(0, 0), (5, 5), (9, 1)])
        f = M.fit_measure(M.MeasureSpec("m1", k=1), samp)
        assert f.score((0.0, 0.0)) == 0.0

    def test_m1_small_sum(self):
        samp = Sample2D([(0, 0), (1, 0), (0, 1)])
        f = M.fit_measure(M.MeasureSpec("m1", k=3), samp)
        assert_allclose(f.score((0.0, 0.0)), 2.0, rtol=1e-12)

    def test_m1_symmetric_midpoint(self):
        samp = Sample2D([(0, 0), (2, 0)])
        f = M.fit_measure(M.MeasureSpec("m1", k=2), samp)
        assert_allclose(f.score((1.0, 0.0)), 2.0, rtol=1e-12)

    @pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (60, 5), (60, 60), (700, 19), (700, 150), (700, 700)])
    def test_m1_matches_whole_matrix_oracle(self, n, k):
        rng = np.random.default_rng(n + k)
        pts = rng.normal(size=(n, 2))
        queries = np.vstack([pts, rng.normal(size=(25, 2))])
        f = M.fit_measure(M.MeasureSpec("m1", k=k), Sample2D(pts))
        assert np.array_equal(f.score(queries), knn_eucl_scores(pts, queries, k))

    def test_m2_k1_zero(self):
        rng = np.random.default_rng(5)
        samp = Sample2D(rng.normal(size=(40, 2)))
        f = M.fit_measure(M.MeasureSpec("m2", k=1), samp)
        assert np.all(f.score(samp.points) == 0.0)

    def test_m2_k1_zero_off_sample_and_with_duplicates(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(40, 2))
        pts[7] = pts[3]
        f = M.fit_measure(M.MeasureSpec("m2", k=1), Sample2D(pts))
        queries = np.vstack([pts, rng.normal(size=(25, 2))])
        assert np.array_equal(f.score(queries), np.zeros(len(queries)))

    def test_m2_two_point_value(self):
        samp = Sample2D([(0, 0), (1, 1)])
        f = M.fit_measure(M.MeasureSpec("m2", k=2), samp)
        assert_allclose(f.score((0.0, 0.0)), 0.5, rtol=1e-12)

    def test_m2_cluster_beats_tail(self):
        s2 = hk.scenario("S2")
        rng = replicate_rng(6, "S2", 1000, "m2-rank", 0)
        samp = hk.sample_scenario(s2, 1000, rng)
        f = M.fit_measure(M.MeasureSpec("m2"), samp)
        dens = hk.true_density(s2, samp.points)
        cluster = samp.points[np.argmax(dens)]
        tail = samp.points[np.argmin(dens)]
        assert f.score(cluster) > f.score(tail)

    def test_m2_semimetric_facts(self):
        rng = np.random.default_rng(7)
        col = rng.normal(size=50)

        def m2_restricted(a, b):
            return abs(stats.norm.cdf(a) - stats.norm.cdf(b)) / abs(a - b)

        for _ in range(50):
            a, b = rng.normal(size=2)
            if a == b:
                continue
            assert m2_restricted(a, b) > 0.0
            assert m2_restricted(a, b) == m2_restricted(b, a)
        # documented triangle-inequality counterexample: collinear 1 < 2 < 3
        lhs = m2_restricted(1.0, 2.0)
        rhs = m2_restricted(1.0, 3.0) + m2_restricted(3.0, 2.0)
        assert lhs > rhs


def _m2_reference(pts, queries, k):
    """m2 by brute force: a full stable argsort of each distance row, the
    point's nearest neighbour (itself, for sample points) dropped."""

    def ecdf(q):
        return np.column_stack([ecdf1(pts[:, j], q[:, j]) for j in range(2)])

    f_pts, fq = ecdf(pts), ecdf(queries)
    dx = queries[:, 0:1] - pts[:, 0]
    dy = queries[:, 1:2] - pts[:, 1]
    d = np.sqrt(dx * dx + dy * dy)
    idx = np.argsort(d, axis=1, kind="stable")[:, 1:k]
    dist = d[np.arange(idx.shape[0])[:, None], idx]
    du = fq[:, None, 0] - f_pts[idx, 0]
    dv = fq[:, None, 1] - f_pts[idx, 1]
    dp = np.sqrt(du * du + dv * dv)
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.where(dist > 0.0, dp / dist, 0.0)
    return terms.sum(axis=1)


class TestM2Selection:
    @pytest.mark.parametrize("data", ["random", "rounded", "duplicated"])
    def test_bit_identical_to_full_argsort(self, data):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(400, 2))
        if data == "rounded":
            pts = np.round(pts, 1)
        elif data == "duplicated":
            pts = np.repeat(pts[:100], 4, axis=0)
        samp = Sample2D(pts)
        queries = np.vstack([pts, rng.normal(size=(50, 2))])
        for k in (2, 9, 30, 400):
            got = M.fit_measure(M.MeasureSpec("m2", k=k), samp).score(queries)
            assert np.array_equal(got, _m2_reference(pts, queries, k)), k

    def test_default_k_clamped_to_sample_size(self):
        rng = np.random.default_rng(22)
        samp = Sample2D(rng.normal(size=(25, 2)))
        f = M.fit_measure(M.MeasureSpec("m2"), samp)
        assert f.spec.k == 25
        assert np.array_equal(f.score(samp.points), _m2_reference(samp.points, samp.points, 25))
        with pytest.raises(ValueError, match="exceeds sample size"):
            M.fit_measure(M.MeasureSpec("m2", k=30), samp)


class TestBlockedKernel:
    def test_block_boundaries_keep_bits(self, monkeypatch):
        rng = np.random.default_rng(25)
        pts = rng.normal(size=(60, 2))
        samp = Sample2D(pts)
        queries = np.vstack([pts, rng.normal(size=(10, 2))])
        fits = [M.fit_measure(M.build_spec(kind, marginal_families=("normal", "normal")), samp)
                for kind in M.MEASURE_KINDS]
        copfit = C.npcop_fit(C.pseudo_observations(pts))
        u = np.sort(rng.uniform(0.01, 0.99, size=(70, 4)), axis=1)

        def run():
            return (
                [f.score(queries) for f in fits],
                C.npcop_pdf(copfit, u[:, 0], u[:, 3]),
                C.npcop_rect_prob(copfit, u[:, 0], u[:, 1], u[:, 2], u[:, 3]),
            )

        whole = run()
        # 70 queries against 60 points: blocks of 8 rows at width n (8 and a
        # remainder of 6) and of 4 rows at width 2n (17 and a remainder of 2)
        monkeypatch.setattr(core, "_BLOCK_BUDGET", 500)
        blocked = run()
        for kind, a, b in zip(M.MEASURE_KINDS, whole[0], blocked[0]):
            assert np.array_equal(a, b), kind
        assert np.array_equal(whole[1], blocked[1])
        assert np.array_equal(whole[2], blocked[2])


class TestSharedParametricFit:
    def test_pcop_kinds_fit_once_per_sample(self, monkeypatch):
        calls = []
        select = M.copulas.select_copula_aic
        monkeypatch.setattr(M.copulas, "select_copula_aic", lambda *a: calls.append(1) or select(*a))
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(200, 2))
        samp = Sample2D(pts)
        families = ("normal", "normal")
        m0 = M.fit_measure(M.MeasureSpec("m0-pcop", marginal_families=families), samp)
        m3 = M.fit_measure(M.MeasureSpec("m3-pcop", marginal_families=families), samp)
        assert len(calls) == 1
        # a fresh sample with the same points fits again, to the same model
        alone = M.fit_measure(M.MeasureSpec("m3-pcop", marginal_families=families), Sample2D(pts))
        assert len(calls) == 2
        assert m3.hyperparams == alone.hyperparams
        assert np.array_equal(m3.score(pts), alone.score(pts))
        assert m0.fitted_copula_family == m3.fitted_copula_family
        # other marginal families are a separate fit
        M.fit_measure(M.MeasureSpec("m0-pcop", marginal_families=("student_t", "normal")), samp)
        assert len(calls) == 3


class TestSharedNpcopFit:
    def test_npcop_kinds_fit_once_per_sample(self, monkeypatch):
        calls = []
        fit = M.copulas.npcop_fit
        monkeypatch.setattr(M.copulas, "npcop_fit", lambda *a: calls.append(1) or fit(*a))
        pts = np.random.default_rng(24).normal(size=(150, 2))
        samp = Sample2D(pts)
        shared = [M.fit_measure(M.MeasureSpec(kind), samp) for kind in ("m0-npcop", "m3-npcop")]
        assert len(calls) == 1
        # each kind alone on its own copy of the points scores the same bits
        alone = [M.fit_measure(M.MeasureSpec(kind), Sample2D(pts.copy())) for kind in ("m0-npcop", "m3-npcop")]
        assert len(calls) == 3
        for a, b in zip(shared, alone):
            assert a.hyperparams == b.hyperparams
            assert np.array_equal(a.score(pts), b.score(pts))


class TestEcdfRectMemo:
    EPS = (0.02, 0.1, 0.35, 1.5)

    @pytest.mark.parametrize("case", ["random", "rounded", "duplicated"])
    def test_memo_bit_identical_to_blocked_pass(self, monkeypatch, case):
        rng = np.random.default_rng(26)
        pts = {
            "random": rng.normal(size=(80, 2)),
            # a 0.1 grid puts many pairs exactly on the box edge at eps = 0.1
            "rounded": np.round(rng.uniform(0.0, 1.0, size=(80, 2)), 1),
            "duplicated": np.repeat(rng.normal(size=(20, 2)), 4, axis=0),
        }[case]
        samp = Sample2D(pts)
        fits = [M.fit_measure(M.MeasureSpec("m3-ecdf", eps=eps), samp) for eps in self.EPS]
        memo = [f.score_vector(samp).scores for f in fits]
        assert ("chebyshev",) in samp._derived
        # a copy of the points is not the sample's own array: blocked pass
        copied = [f.score(samp.points.copy()) for f in fits]
        # the sample's own points, but too many to memoise: blocked pass in blocks of 6 rows
        monkeypatch.setattr(M, "_MEMO_MAX", 80 * 80 - 1)
        monkeypatch.setattr(core, "_BLOCK_BUDGET", 500)
        blocked = [f.score(samp.points) for f in fits]
        for eps, a, b, c in zip(self.EPS, memo, copied, blocked):
            assert np.array_equal(a, b), eps
            assert np.array_equal(a, c), eps

    def test_memo_not_stored_beyond_one_block(self, monkeypatch):
        # the memo cap, not the row-block budget, decides
        pts = np.random.default_rng(27).normal(size=(60, 2))
        monkeypatch.setattr(M, "_MEMO_MAX", 60 * 60 - 1)
        monkeypatch.setattr(core, "_BLOCK_BUDGET", 10 ** 9)
        samp = Sample2D(pts)
        M.fit_measure(M.MeasureSpec("m3-ecdf", eps=0.3), samp).score_vector(samp)
        assert ("chebyshev",) not in samp._derived
        monkeypatch.setattr(M, "_MEMO_MAX", 60 * 60)
        monkeypatch.setattr(core, "_BLOCK_BUDGET", 1)
        M.fit_measure(M.MeasureSpec("m3-ecdf", eps=0.3), samp).score_vector(samp)
        assert samp._derived[("chebyshev",)].shape == (60, 60)

    def test_memo_stored_at_n500_with_default_budget(self):
        # tune-c06 scores its eps grid on n = 500 samples; 500^2 entries
        # exceed one row block but not the memo cap
        samp = Sample2D(np.random.default_rng(28).normal(size=(500, 2)))
        assert 500 * 500 > core._BLOCK_BUDGET
        M.fit_measure(M.MeasureSpec("m3-ecdf", eps=0.3), samp).score_vector(samp)
        assert samp._derived[("chebyshev",)].shape == (500, 500)

    def test_eps_grid_builds_matrix_once_per_replicate(self, monkeypatch):
        calls = []
        cheb = M._chebyshev
        monkeypatch.setattr(M, "_chebyshev", lambda *a: calls.append(1) or cheb(*a))
        _, rows = run_tune("S17", 60, "m3-ecdf", [0.02, 0.05, 0.1, 0.2], reps=5, seed=42, ref_size=10 ** 5,
                           workers=1)
        assert len(rows) == 4
        assert len(calls) == 5


class TestKnnEuclMemo:
    KIND = "m1"

    @pytest.mark.parametrize("case", ["random", "rounded", "duplicated"])
    def test_memo_bit_identical_to_blocked_pass(self, monkeypatch, case):
        rng = np.random.default_rng(29)
        pts = {
            "random": rng.normal(size=(80, 2)),
            # a 0.1 grid ties many distances, the k-th one too
            "rounded": np.round(rng.uniform(0.0, 1.0, size=(80, 2)), 1),
            "duplicated": np.repeat(rng.normal(size=(20, 2)), 4, axis=0),
        }[case]
        samp = Sample2D(pts)
        ks = (1, 7, 79, 80)
        fits = [M.fit_measure(M.MeasureSpec(self.KIND, k=k), samp) for k in ks]
        memo = [f.score_vector(samp).scores for f in fits]
        assert samp._derived[("euclid",)].shape == (80, 80)
        # a copy of the points is not the sample's own array: blocked pass
        copied = [f.score(samp.points.copy()) for f in fits]
        # the sample's own points, but too many to memoise: blocked pass in blocks of 6 rows
        monkeypatch.setattr(M, "_MEMO_MAX", 80 * 80 - 1)
        monkeypatch.setattr(core, "_BLOCK_BUDGET", 500)
        blocked = [f.score(samp.points) for f in fits]
        for k, a, b, c in zip(ks, memo, copied, blocked):
            assert np.array_equal(a, b), k
            assert np.array_equal(a, c), k
            if self.KIND == "m1":
                assert np.array_equal(a, knn_eucl_scores(pts, pts, k)), k

    def test_memo_not_stored_beyond_cap(self, monkeypatch):
        pts = np.random.default_rng(30).normal(size=(60, 2))
        monkeypatch.setattr(M, "_MEMO_MAX", 60 * 60 - 1)
        samp = Sample2D(pts)
        M.fit_measure(M.MeasureSpec(self.KIND, k=5), samp).score_vector(samp)
        assert ("euclid",) not in samp._derived
        monkeypatch.setattr(M, "_MEMO_MAX", 60 * 60)
        M.fit_measure(M.MeasureSpec(self.KIND, k=5), samp).score_vector(samp)
        assert samp._derived[("euclid",)].shape == (60, 60)

    def test_k_grid_builds_matrix_once_per_replicate(self, monkeypatch):
        calls = []
        euclid = M._euclid
        monkeypatch.setattr(M, "_euclid", lambda *a: calls.append(1) or euclid(*a))
        _, rows = run_tune("S2", 50, self.KIND, [1, 5, 20, 50], reps=5, seed=42, ref_size=10 ** 5, workers=1)
        assert len(rows) == 4
        assert len(calls) == 5


class TestKnnCdfMemo(TestKnnEuclMemo):
    """m2 reads the in-sample Euclidean matrix m1 keeps."""

    KIND = "m2"

    def test_m1_and_m2_share_one_matrix(self, monkeypatch):
        calls = []
        euclid = M._euclid
        monkeypatch.setattr(M, "_euclid", lambda *a: calls.append(1) or euclid(*a))
        samp = Sample2D(np.random.default_rng(31).normal(size=(60, 2)))
        for kind in ("m1", "m2", "m1", "m2"):
            M.fit_measure(M.MeasureSpec(kind, k=5), samp).score_vector(samp)
        assert len(calls) == 1


class TestRowCounts:
    @pytest.mark.parametrize("n", [300, 2000])
    def test_counts_exact_when_every_point_is_in_every_box(self, n):
        # above 255 a uint8 accumulator would wrap; the memo path at its cap
        # (n = 2000) and the blocked pass must both count every point
        pts = np.random.default_rng(31).uniform(0.0, 1.0, size=(n, 2))
        samp = Sample2D(pts)
        f = M.fit_measure(M.MeasureSpec("m3-ecdf", eps=2.0), samp)
        expect = np.full(n, n / (n * 4.0 * 2.0 * 2.0))
        assert np.array_equal(f.score_vector(samp).scores, expect)
        assert ("chebyshev",) in samp._derived
        assert np.array_equal(f.score(pts.copy()), expect)

    def test_rows_wider_than_uint16_do_not_wrap(self):
        mask = np.ones((2, (1 << 16) + 3), dtype=bool)
        mask[1, ::2] = False
        assert core._row_counts(mask).tolist() == [(1 << 16) + 3, (1 << 15) + 1]
        assert core._row_counts(mask[:, : 1 << 15]).tolist() == [1 << 15, 1 << 14]


class TestRectScores:
    def test_uniform_density_exact_models(self):
        # independence copula + (near-)uniform margins injected: every box
        # fully inside the unit square scores the constant density 1
        from hdrkit import copulas as C

        uniform = D.beta11a(1e-12)  # Beta(1, 1 + 1e-12), CDF x within 1e-12
        eps = 0.05
        f = M.m3_pcop_from_models(C.independence(), (uniform, uniform), eps)
        rng = np.random.default_rng(8)
        queries = rng.uniform(0.2, 0.8, size=(50, 2))
        assert np.max(np.abs(f.score(queries) - 1.0)) < 1e-9

    def test_ecdf_rect_arithmetic(self):
        samp = Sample2D([(0, 0), (10, 10), (-10, 10), (10, -10)])
        f = M.fit_measure(M.MeasureSpec("m3-ecdf", eps=0.5), samp)
        assert_allclose(f.score((0.0, 0.0)), (1.0 / 4.0) / (4.0 * 0.25), rtol=1e-12)

    def test_ecdf_rect_counts_match_oracle(self):
        rng = np.random.default_rng(24)
        pts = rng.normal(size=(300, 2))
        samp = Sample2D(pts)
        queries = np.vstack([pts[:60], rng.normal(size=(40, 2))])
        for eps in (0.05, 0.4, 2.0):
            got = M.fit_measure(M.MeasureSpec("m3-ecdf", eps=eps), samp).score(queries)
            counts = np.array([rect_count(samp, q - eps, q + eps) for q in queries])
            assert np.array_equal(got, counts / (300 * 4.0 * eps * eps)), eps

    def test_pcop_rect_matches_density_at_mode(self):
        s2 = hk.scenario("S2")
        f = M.m3_pcop_from_models(s2.copula, s2.marginals, eps=0.01)
        mode = np.array([[0.0, 1.0]])
        truth = hk.true_density(s2, mode)[0]
        assert abs(f.score(mode)[0] - truth) / truth < 0.02

    def test_pcop_rect_eps_refinement(self):
        # Cauchy-style convergence at 20 interior points of the exact model
        s2 = hk.scenario("S2")
        qs1 = D.marginal_quantile(s2.marginals[0], np.linspace(0.15, 0.85, 5))
        qs2 = D.marginal_quantile(s2.marginals[1], np.linspace(0.2, 0.8, 4))
        pts = np.array([(a, b) for a in qs1 for b in qs2])
        truth = hk.true_density(s2, pts)
        prev = None
        for eps in (0.08, 0.04, 0.02, 0.01):
            f = M.m3_pcop_from_models(s2.copula, s2.marginals, eps=eps)
            err = np.abs(f.score(pts) - truth) / truth
            if prev is not None:
                assert err.mean() < prev
            prev = err.mean()
        f_02 = M.m3_pcop_from_models(s2.copula, s2.marginals, eps=0.02).score(pts)
        f_01 = M.m3_pcop_from_models(s2.copula, s2.marginals, eps=0.01).score(pts)
        assert np.max(np.abs(f_02 / f_01 - 1.0)) < 0.01


class TestCopulaDensityScores:
    def test_pcop_density_equals_bivariate_normal(self):
        # Gaussian copula + normal marginals is the bivariate normal law
        s2 = hk.scenario("S2")
        f = M.m0_pcop_from_models(s2.copula, s2.marginals)
        rho = s2.copula.rho
        pts = np.array([[0.0, 1.0], [1.0, 0.0], [-2.0, 3.0]])
        z = (pts - np.array([0.0, 1.0])) / math.sqrt(2.0)
        quad = (z[:, 0] ** 2 - 2 * rho * z[:, 0] * z[:, 1] + z[:, 1] ** 2) / (1 - rho ** 2)
        ref = np.exp(-quad / 2.0) / (2 * math.pi * 2.0 * math.sqrt(1 - rho ** 2))
        assert_allclose(f.score(pts), ref, rtol=1e-9)

    def test_independence_product_form(self):
        from hdrkit import copulas as C

        marg = (D.normal(0.0, 1.0), D.normal(5.0, 2.0))
        f = M.m0_pcop_from_models(C.independence(), marg)
        pts = np.array([[0.3, 4.0], [-1.0, 7.0]])
        ref = D.marginal_pdf(marg[0], pts[:, 0]) * D.marginal_pdf(marg[1], pts[:, 1])
        assert_allclose(f.score(pts), ref, rtol=1e-12)

    def test_npcop_mode_tail_ratio(self):
        s2 = hk.scenario("S2")
        rng = replicate_rng(9, "S2", 10 ** 4, "npcop-ratio", 0)
        samp = hk.sample_scenario(s2, 10 ** 4, rng)
        f = M.fit_measure(M.MeasureSpec("m0-npcop"), samp)
        mode = f.score((0.0, 1.0))
        tail = f.score((15.0, -12.0))
        assert mode / max(tail, 1e-300) > 10.0


class TestOrientationAndPurity:
    def test_orientation_table(self):
        rng = np.random.default_rng(10)
        samp = Sample2D(rng.normal(size=(60, 2)))
        s2 = hk.scenario("S2")
        for tok in M.MEASURE_KINDS:
            f = M.fit_measure(measure_spec_for(s2, tok), samp)
            expect = Orientation.SPARSITY if tok == "m1" else Orientation.CONCENTRATION
            assert f.orientation is expect

    def test_scores_bit_identical(self):
        rng = np.random.default_rng(11)
        samp = Sample2D(rng.normal(size=(100, 2)))
        s2 = hk.scenario("S2")
        queries = rng.normal(size=(37, 2))
        for tok in M.MEASURE_KINDS:
            f = M.fit_measure(measure_spec_for(s2, tok), samp)
            a = f.score(queries)
            b = f.score(queries)
            assert np.array_equal(a, b)

    def test_rank_preservation_s2(self):
        # finite-sample proxy for the order-preservation property
        s2 = hk.scenario("S2")
        rng = replicate_rng(42, "S2", 1000, "rankcheck", 0)
        samp = hk.sample_scenario(s2, 1000, rng)
        dens = hk.true_density(s2, samp.points)
        rho = {}
        for tok in ("m0-kde", "m1", "m3-ecdf", "m0-pcop", "m3-pcop"):
            f = M.fit_measure(measure_spec_for(s2, tok), samp)
            sc = f.score(samp.points)
            if f.orientation is Orientation.SPARSITY:
                sc = -sc
            rho[tok] = stats.spearmanr(sc, dens).statistic
        assert rho["m0-kde"] >= 0.95
        assert rho["m3-ecdf"] >= 0.95
        # the k = round(sqrt(n/2)) neighborhood is too local for a 0.95
        # whole-sample rank correlation (that needs k ~ 50 at n = 1000)
        assert rho["m1"] >= 0.90
        assert rho["m0-pcop"] >= 0.99
        assert rho["m3-pcop"] >= 0.99

    def test_fit_error_carries_measure_identity(self):
        samp = Sample2D(np.ones((30, 2)))
        with pytest.raises(RuntimeError, match="m0-kde"):
            M.fit_measure(M.MeasureSpec("m0-kde"), samp)
