"""The 17 simulation scenarios: calibrated copulas crossed with marginal
schemes, plus a Dirichlet simplex case.

S1-S16 form a 4x4 grid. The copula block (rows of four) runs Gaussian,
Student-t (nu=6), Frank, Clayton, all calibrated to Kendall tau = 0.5
(rho = sin(pi/4) ~ 0.7071, Frank theta = 5.75, Clayton theta = 2). The
marginal scheme cycles heavy-tailed t2, unimodal normal, bimodal
(normal x normal mixture), quadrimodal (two mixtures), with sigma^2 = 2
and mixture means (0, 9) and (1, 8+5). S17 is Dirichlet(1, 1, 2) on the
2-simplex, whose marginals are Beta(1, 3).

Sampling is two steps: the generator's draws (``copulas._copula_draws``,
or ``copulas._dirichlet_draws`` for S17), then a transform of each row of
them to a point, elementwise.

The truth oracle is Monte Carlo: the density threshold of the true
100(1-alpha)% HDR is the alpha-quantile of the true density over a large
fresh reference sample, the density-quantile rule the estimators use
(``hdr.density_quantile_hdr``). The oracle makes the reference draws
whole, then forms their points and true density one row block at a time,
so it keeps only the draws and one density vector, never the sample; its
f_alpha is the one the whole sample gives, to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import copulas, distributions as dists
from .core import Sample2D, _check_alpha, _row_blocks
from .hdr import density_quantile_hdr

__all__ = [
    "Scenario",
    "TruthOracle",
    "SCENARIO_IDS",
    "scenario",
    "sample_scenario",
    "true_density",
    "build_truth_oracle",
    "label_truth",
]

SCENARIO_IDS = tuple(f"S{i}" for i in range(1, 18))

_SIGMA = math.sqrt(2.0)
_RHO = math.sin(math.pi / 4.0)
_COPULA_BLOCKS = (
    ("Gaussian copula", lambda: copulas.gaussian(_RHO)),
    ("Student-t copula", lambda: copulas.student_t_copula(_RHO, 6.0)),
    ("Frank copula", lambda: copulas.frank(5.75)),
    ("Clayton copula", lambda: copulas.clayton(2.0)),
)
_MARGINAL_SCHEMES = (
    ("Student-t marginals", lambda: (dists.student_t(2.0), dists.student_t(2.0))),
    ("Gaussian marginals", lambda: (dists.normal(0.0, _SIGMA), dists.normal(1.0, _SIGMA))),
    (
        "Gaussian & Gaussian mixture marginals",
        lambda: (dists.normal(0.0, _SIGMA), dists.normal_mixture(0.5, 1.0, 13.0, _SIGMA)),
    ),
    (
        "Gaussian mixture marginals",
        lambda: (dists.normal_mixture(0.5, 0.0, 9.0, _SIGMA), dists.normal_mixture(0.5, 1.0, 8.0, _SIGMA)),
    ),
)


@dataclass(frozen=True)
class Scenario:
    id: str
    copula: copulas.CopulaModel
    marginals: tuple  # pair of MarginalModel (Beta(1, a+1) pair for S17)
    description: str
    is_simplex: bool = False

    @property
    def index(self) -> int:
        return int(self.id[1:])


def scenario(sid) -> Scenario:
    """Build one scenario by id ('S1'..'S17', case-insensitive, or 1..17)."""
    if isinstance(sid, int):
        sid = f"S{sid}"
    sid = sid.upper()
    if sid not in SCENARIO_IDS:
        raise ValueError(f"unknown scenario {sid!r} (expected S1..S17)")
    idx = int(sid[1:])
    if idx == 17:
        a = 2.0
        return Scenario(
            sid,
            copulas.dirichlet11a(a),
            (dists.beta11a(a), dists.beta11a(a)),
            "Dirichlet(1,1,2) on the 2-simplex",
            is_simplex=True,
        )
    cop_name, cop_fn = _COPULA_BLOCKS[(idx - 1) // 4]
    marg_name, marg_fn = _MARGINAL_SCHEMES[(idx - 1) % 4]
    return Scenario(sid, cop_fn(), marg_fn(), f"{cop_name} - {marg_name}")


def sample_scenario(s: Scenario, n: int, rng: np.random.Generator) -> Sample2D:
    """Draw n points: copula uniforms pushed through the marginal quantiles
    for S1-S16, gamma-ratio simplex draws for S17."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if s.is_simplex:
        return Sample2D(copulas._dirichlet_points(copulas._dirichlet_draws(s.copula.a, n, rng)))
    return Sample2D(_quantiles(s, copulas.copula_sample(s.copula, n, rng)))


def _quantiles(s: Scenario, pseudo: copulas.PseudoObservations) -> np.ndarray:
    """The (m, 2) points at copula pairs: each marginal's quantile of its column."""
    u = pseudo.u
    x1 = dists.marginal_quantile(s.marginals[0], u[:, 0])
    x2 = dists.marginal_quantile(s.marginals[1], u[:, 1])
    return np.column_stack([x1, x2])


_U_OPEN_HI = np.nextafter(1.0, 0.0)


def true_density(s: Scenario, points) -> np.ndarray:
    """Closed-form joint density of the scenario at (m, 2) points.

    S1-S16 use the copula factorization ``copulas.joint_pdf``, which
    m0-pcop scores with too, the marginal CDFs clipped to [5e-300, 1);
    S17 uses the Dirichlet density a(a+1) (1 - x1 - x2)^(a-1) directly
    (zero off the simplex).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if s.is_simplex:
        a = s.copula.a
        x1, x2 = pts[:, 0], pts[:, 1]
        rem = 1.0 - x1 - x2
        inside = (x1 >= 0.0) & (x2 >= 0.0) & (rem >= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = a * (a + 1.0) * np.maximum(rem, 0.0) ** (a - 1.0)
        return np.where(inside, val, 0.0)
    return copulas.joint_pdf(s.copula, s.marginals, 5e-300, _U_OPEN_HI, pts)


@dataclass(frozen=True)
class TruthOracle:
    """True-HDR membership test: density >= the Monte Carlo alpha-quantile
    f_alpha of the true density over ``ref_size`` fresh draws."""

    scenario_id: str
    alpha: float
    f_alpha: float
    ref_size: int


def build_truth_oracle(s: Scenario, alpha: float, ref_size: int, rng: np.random.Generator) -> TruthOracle:
    if ref_size < 10 ** 5:
        raise ValueError("ref_size must be at least 1e5")
    _check_alpha(alpha)
    f_alpha = density_quantile_hdr(_reference_density(s, ref_size, rng), alpha).threshold
    return TruthOracle(s.id, float(alpha), f_alpha, ref_size)


def _reference_density(s: Scenario, ref_size: int, rng: np.random.Generator) -> np.ndarray:
    """The true density at ``sample_scenario(s, ref_size, rng)``'s points,
    to the bit, with the generator left in the same state.

    The draws are made whole, in ``sample_scenario``'s order, since one
    stream feeds them all. Every later stage is a function of its own row,
    so the points and their density are formed one 8,192-row block at a
    time: no stage holds more than a block, the whole reference sample
    never exists, and the draws are freed on return. The blocks run on the
    calling thread, not through ``core._row_map``, because
    ``perfbench/spans.py`` wraps ``true_density`` and the functions it calls
    and keeps one span stack, for that thread.
    """
    if s.is_simplex:
        draws = copulas._dirichlet_draws(s.copula.a, ref_size, rng)
        points = copulas._dirichlet_points
    else:
        draws = copulas._copula_draws(s.copula, ref_size, rng)
        points = lambda block: _quantiles(s, copulas._copula_transform(s.copula, block))
    density = np.empty(ref_size)
    for sl in _row_blocks(ref_size, 8):  # 8,192 rows a block
        density[sl] = true_density(s, points([d[sl] for d in draws]))
    return density


def label_truth(oracle: TruthOracle, s: Scenario, points) -> np.ndarray:
    """Boolean inside-labels of points against the true HDR."""
    if oracle.scenario_id != s.id:
        raise ValueError("oracle was built for a different scenario")
    return true_density(s, points) >= oracle.f_alpha
