"""Golden output digests: the sha256 of each CLI output on a fixed set of
runs. A refactor that claims to keep every output bit must keep these; a
declared output change updates them in the same diff.

The digests were recorded with the numpy and scipy versions below; with any
other version the floating-point bits may legitimately differ, so the check
is skipped."""

import hashlib

import numpy as np
import pytest
import scipy

import hdrkit as hk
from hdrkit import measures
from hdrkit.benchmark import measure_spec_for, oracle_rng, replicate_rng
from hdrkit.cli import main

RECORDED_VERSIONS = ("2.4.6", "1.17.1")

pytestmark = pytest.mark.skipif(
    (np.__version__, scipy.__version__) != RECORDED_VERSIONS,
    reason=f"digests recorded with numpy/scipy {'/'.join(RECORDED_VERSIONS)}",
)

_COMMON = ["--seed", "42", "--ref-size", "100000", "--workers", "2"]

GOLDEN = {
    "bench": "6d404ac64ed90a2dcb36d57ec502e36230fdce869da69c3397ea32e20a701f0a",
    "bench-summary": "70d01cd0a8d019ccf2e9121259acaae211096101fbf5928fbe09fef6a3031f3d",
    "tune-s2-m1": "bef347b1838dde3fa94a85511761ae409473909b4c461c7ed2d8981e94f873b9",
    "tune-s17-m3-ecdf": "409818493b13e913035490fbdb6f37fa429243989ad2fc8dd1320835a836ccce",
    "simulate-s16": "ce26db11ea265de152c86a1498bc30520b4c4a7c49c2da06bb4e38a3d18185d0",
    "simulate-s17": "47e1b7d30e8f5188ea0fc64cc92eaccf62794d5c6881d1caf1b4386f7e4bc814",
    "apply-labels": "f5affa04bb1253bcf613b6516b70f9018888ea32ef176eac9127df72c9c5504b",
    "apply-svg": "7a66c9134fc1a112233fc0f1be256086e82b0a97adbd9889c88d59a8d4d15df8",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    runs = [
        ["bench", "--scenarios", "S1,S6,S10,S14,S17", "--n", "60", "--measures", "all", "--reps", "2",
         "--out", str(d / "bench"), "--summary", str(d / "bench-summary"), *_COMMON],
        ["tune", "--scenario", "S2", "--n", "60", "--measure", "m1", "--grid", "1:10", "--reps", "3",
         "--out", str(d / "tune-s2-m1"), *_COMMON],
        ["tune", "--scenario", "S17", "--n", "60", "--measure", "m3-ecdf", "--grid", "0.02,0.05,0.1,0.2",
         "--reps", "3", "--out", str(d / "tune-s17-m3-ecdf"), *_COMMON],
        ["simulate", "--scenario", "S16", "--n", "200", "--seed", "42", "--out", str(d / "simulate-s16")],
        ["simulate", "--scenario", "S17", "--n", "200", "--seed", "42", "--out", str(d / "simulate-s17")],
        ["simulate", "--scenario", "S6", "--n", "400", "--seed", "1", "--out", str(d / "s6")],
        ["apply", "--input", str(d / "s6"), "--x", "x1", "--y", "x2", "--measures", "all",
         "--out", str(d / "apply-labels"), "--svg", str(d / "apply-svg")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    return {name: _digest(d / name) for name in GOLDEN}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(digests, name):
    assert digests[name] == GOLDEN[name]


# sha256 of the float64 bytes of each kind's scores at the points of a fixed
# 60-point S6 sample plus 25 new ones: the new points reach the scorers'
# out-of-sample paths (m3-ecdf's blocked count, m2's query ECDF), which the
# CLI runs above never take
SCORES = {
    "m0-kde": "1a2df172b999f010524ef64f1adbde40d72180dbb6e48acc8b72cc2a22e911be",
    "m0-npcop": "f641586b1234cd334cbebebc311d868cb8472d838c464620f83bd0110d897491",
    "m0-pcop": "de368a1211a93457a8b9aba82b76b26be933ced99b015c656d7891ab7d1ad456",
    "m1": "842bdb4b5e1480be88ec93f507777566be56bba0b8ac1b20da1a30890a858f41",
    "m2": "7002bcbe797a4692bc81cd94f016ad274ef0962e5658b94f3c6124b12feb1619",
    "m3-ecdf": "a499b8eeaa1307f063e36dd869191d2629491c33f851a5ff42b4ff10f77cc712",
    "m3-npcop": "ef9a1c12a9c4b838af3869db3c9d7876a36fd475c8c4e82e3ac0653ba95aa880",
    "m3-pcop": "30978f93b91b09691ee6ac213201c03ea744a6d271e4ccf160f1d5817d3957ed",
}


@pytest.mark.parametrize("kind", measures.MEASURE_KINDS)
def test_scores_digest(kind):
    s6 = hk.scenario("S6")
    sample = hk.sample_scenario(s6, 60, replicate_rng(42, "S6", 60, "scores", 0))
    new = hk.sample_scenario(s6, 25, replicate_rng(42, "S6", 25, "scores", 1)).points
    q = np.vstack([sample.points, new])
    scores = measures.fit_measure(measure_spec_for(s6, kind), sample).score(q)
    assert scores.dtype == np.float64 and scores.shape == (85,)
    assert hashlib.sha256(scores.tobytes()).hexdigest() == SCORES[kind]


# sha256 of the truth thresholds f_alpha (their reprs, comma-joined) of five
# scenarios at ref size 1e5: a threshold that moves shows here even when it
# flips no label in the CLI runs above
F_ALPHAS = "c15ab50039521acbda5819a6fa20e2a1d0fbe02b527319346e823a4b3fe07488"


def test_truth_thresholds_digest():
    f_alphas = [hk.build_truth_oracle(hk.scenario(sid), 0.05, 10 ** 5, oracle_rng(42, sid)).f_alpha
                for sid in ("S1", "S6", "S11", "S16", "S17")]
    assert hashlib.sha256(",".join(map(repr, f_alphas)).encode()).hexdigest() == F_ALPHAS
