"""Golden output digests: the sha256 of each CLI output on a fixed set of
runs. A refactor that claims to keep every output bit must keep these; a
declared output change updates them in the same diff.

The digests were recorded with the numpy and scipy versions below; with any
other version the floating-point bits may legitimately differ, so the check
is skipped. One numpy build also computes different bits at different x86
dispatch levels (its float64 exp and log loops round some last bits
differently, and np.partition leaves the k smallest in another order, which
m1 sums in), so there is one table per level: X86_V4 for AVX-512 hosts,
X86_V3 for AVX2 ones and X86_V2 for the baseline. A host that is not x86
has no table, and skips. An AVX-512 host checks the two lower tables too,
by recomputing them in a child Python whose numpy has the higher levels
switched off (``NPY_DISABLE_CPU_FEATURES``)."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_features__

import hdrkit as hk
from hdrkit import copulas, measures
from hdrkit.benchmark import measure_spec_for, oracle_rng, replicate_rng
from hdrkit.cli import main

RECORDED_VERSIONS = ("2.4.6", "1.17.1")

# the x86 dispatch levels, highest first, and every dispatch target in
# ascending order: a level is reached by switching off the targets after it
LEVELS = ("X86_V4", "X86_V3", "X86_V2")
_TARGETS = ("X86_V2", "X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")


def dispatch_level():
    """The highest x86 level this process's numpy dispatches to, or None
    on a host that is not x86."""
    return next((level for level in LEVELS if __cpu_features__.get(level)), None)


LEVEL = dispatch_level()

pytestmark = [
    pytest.mark.skipif((np.__version__, scipy.__version__) != RECORDED_VERSIONS,
                       reason=f"digests recorded with numpy/scipy {'/'.join(RECORDED_VERSIONS)}"),
    pytest.mark.skipif(LEVEL is None, reason="digests recorded at the x86 dispatch levels only"),
]

_COMMON = ["--seed", "42", "--ref-size", "100000", "--workers", "2"]

OUTPUTS = ("bench", "bench-summary", "tune-s2-m1", "tune-s17-m3-ecdf", "simulate-s16", "simulate-s17",
           "apply-labels", "apply-svg")

# scores-<kind>: sha256 of the float64 bytes of each kind's scores at the
# points of a fixed 60-point S6 sample plus 25 new ones: the new points
# reach the scorers' out-of-sample paths (m3-ecdf's blocked count, m2's
# query ECDF), which the CLI runs never take.
# truth-thresholds: sha256 of the truth thresholds f_alpha (their reprs,
# comma-joined) of five scenarios at ref size 1e5: a threshold that moves
# shows here even when it flips no label in the CLI runs.
# copula-sample: sha256 of 500 copula_sample draws of each of seven models
# (_COPULAS), each from a fresh Philox(7): S17 draws through
# _dirichlet_draws directly, so no other digest pins the Dirichlet-copula
# or the independence draw.
GOLDEN = {
    "X86_V4": {
        "bench": "6d404ac64ed90a2dcb36d57ec502e36230fdce869da69c3397ea32e20a701f0a",
        "bench-summary": "70d01cd0a8d019ccf2e9121259acaae211096101fbf5928fbe09fef6a3031f3d",
        "tune-s2-m1": "bef347b1838dde3fa94a85511761ae409473909b4c461c7ed2d8981e94f873b9",
        "tune-s17-m3-ecdf": "409818493b13e913035490fbdb6f37fa429243989ad2fc8dd1320835a836ccce",
        "simulate-s16": "ce26db11ea265de152c86a1498bc30520b4c4a7c49c2da06bb4e38a3d18185d0",
        "simulate-s17": "47e1b7d30e8f5188ea0fc64cc92eaccf62794d5c6881d1caf1b4386f7e4bc814",
        "apply-labels": "f5affa04bb1253bcf613b6516b70f9018888ea32ef176eac9127df72c9c5504b",
        "apply-svg": "7a66c9134fc1a112233fc0f1be256086e82b0a97adbd9889c88d59a8d4d15df8",
        "scores-m0-kde": "1a2df172b999f010524ef64f1adbde40d72180dbb6e48acc8b72cc2a22e911be",
        "scores-m0-npcop": "f641586b1234cd334cbebebc311d868cb8472d838c464620f83bd0110d897491",
        "scores-m0-pcop": "de368a1211a93457a8b9aba82b76b26be933ced99b015c656d7891ab7d1ad456",
        "scores-m1": "842bdb4b5e1480be88ec93f507777566be56bba0b8ac1b20da1a30890a858f41",
        "scores-m2": "7002bcbe797a4692bc81cd94f016ad274ef0962e5658b94f3c6124b12feb1619",
        "scores-m3-ecdf": "a499b8eeaa1307f063e36dd869191d2629491c33f851a5ff42b4ff10f77cc712",
        "scores-m3-npcop": "ef9a1c12a9c4b838af3869db3c9d7876a36fd475c8c4e82e3ac0653ba95aa880",
        "scores-m3-pcop": "30978f93b91b09691ee6ac213201c03ea744a6d271e4ccf160f1d5817d3957ed",
        "truth-thresholds": "c15ab50039521acbda5819a6fa20e2a1d0fbe02b527319346e823a4b3fe07488",
        "copula-sample": "35ddd97768651179642302abc60ed8fc2c5fbfd8a075f26421e82b392cc7d75c",
    },
}
# the entries that differ at each lower level from the level above it
GOLDEN["X86_V3"] = {**GOLDEN["X86_V4"], **{
    "bench": "b1e7bbf1910c53d082bb9685d97220bf0c65e0b084bb1f0d12f896c454cbefb5",
    "simulate-s16": "24faf9dbced73011b792f4824c37d65ebc9eb0c8c217fca8c45a7a6166fe4f72",
    "scores-m0-kde": "c8a6f28ff1dabd4b8e73ad81b754b41992ed83091eabf89d17dfbfe7bf83e545",
    "scores-m0-npcop": "ed49caa40f047174fe1b45a7333b27458c712ca5824807035a8ddf9182b27508",
    "scores-m0-pcop": "b2765d0b5d81ef3c1641d8bc21b421089fb9fde0916fbafe377741921e47a1bd",
    "scores-m3-pcop": "5d44e73f2a21ab919a3ae2921a09a1325ba46efe1bcaa9237521db6694cb3942",
    "truth-thresholds": "66f8d00c5c5d7267d6dc2d1dba0f928045a72d1e510949994585f369b05407c2",
    "copula-sample": "6bcfce720465cef0621fd360cebb47b4f133b9a2abe915a60e401defe84800c0",
}}
GOLDEN["X86_V2"] = {**GOLDEN["X86_V3"], **{
    "scores-m1": "ef5d2906d5fcc6629e1f34959de525d515b5667cf48a05675499be8087919b68",
}}

_COPULAS = (copulas.independence(), copulas.gaussian(0.7), copulas.student_t_copula(0.7, 6),
            copulas.frank(5.75), copulas.frank(-3.0), copulas.clayton(2.0), copulas.dirichlet11a(2.0))


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(d: Path) -> dict:
    """The digest of each of ``OUTPUTS``, written under ``d``."""
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
    return {name: _digest(d / name) for name in OUTPUTS}


def scores_digest(kind: str) -> str:
    s6 = hk.scenario("S6")
    sample = hk.sample_scenario(s6, 60, replicate_rng(42, "S6", 60, "scores", 0))
    new = hk.sample_scenario(s6, 25, replicate_rng(42, "S6", 25, "scores", 1)).points
    q = np.vstack([sample.points, new])
    scores = measures.fit_measure(measure_spec_for(s6, kind), sample).score(q)
    assert scores.dtype == np.float64 and scores.shape == (85,)
    return hashlib.sha256(scores.tobytes()).hexdigest()


def truth_thresholds_digest() -> str:
    f_alphas = [hk.build_truth_oracle(hk.scenario(sid), 0.05, 10 ** 5, oracle_rng(42, sid)).f_alpha
                for sid in ("S1", "S6", "S11", "S16", "S17")]
    return hashlib.sha256(",".join(map(repr, f_alphas)).encode()).hexdigest()


def copula_sample_digest() -> str:
    draws = [copulas.copula_sample(c, 500, np.random.Generator(np.random.Philox(7))).u for c in _COPULAS]
    return hashlib.sha256(b"".join(u.tobytes() for u in draws)).hexdigest()


def all_digests(d: Path) -> dict:
    """Every digest of a ``GOLDEN`` table, with the outputs written under ``d``."""
    out = output_digests(d)
    out.update({f"scores-{kind}": scores_digest(kind) for kind in measures.MEASURE_KINDS})
    out["truth-thresholds"] = truth_thresholds_digest()
    out["copula-sample"] = copula_sample_digest()
    return out


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return output_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", OUTPUTS)
def test_output_digest(digests, name):
    assert digests[name] == GOLDEN[LEVEL][name]


@pytest.mark.parametrize("kind", measures.MEASURE_KINDS)
def test_scores_digest(kind):
    assert scores_digest(kind) == GOLDEN[LEVEL][f"scores-{kind}"]


def test_truth_thresholds_digest():
    assert truth_thresholds_digest() == GOLDEN[LEVEL]["truth-thresholds"]


def test_copula_sample_digest():
    assert copula_sample_digest() == GOLDEN[LEVEL]["copula-sample"]


def _disabled(level: str):
    """The ``NPY_DISABLE_CPU_FEATURES`` value that brings this process's
    numpy down to ``level`` (what it switches off already, and the targets
    above ``level`` it has), or None when it cannot: it is at or below
    ``level``, or the build has a target to switch off in its baseline."""
    if LEVEL is None or LEVELS.index(LEVEL) >= LEVELS.index(level):
        return None
    off = [f for f in _TARGETS[_TARGETS.index(level) + 1:] if __cpu_features__.get(f)]
    if set(off) & set(__cpu_baseline__):
        return None
    return " ".join(os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split() + off)


@pytest.mark.parametrize("level", LEVELS[1:])
def test_lower_level_digests(level, tmp_path):
    """The ``level`` table, recomputed in a child Python dispatching at that level."""
    off = _disabled(level)
    if off is None:
        pytest.skip(f"this host cannot bring numpy down to {level}")
    src = Path(hk.__file__).parents[1]
    path = [str(src), str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=off, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = ("import json, pathlib, sys, test_golden as g; "
            "print(json.dumps([g.dispatch_level(), g.all_digests(pathlib.Path(sys.argv[1]))]))")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    child_level, got = json.loads(proc.stdout.splitlines()[-1])
    assert child_level == level
    assert {k: v for k, v in got.items() if v != GOLDEN[level][k]} == {}
