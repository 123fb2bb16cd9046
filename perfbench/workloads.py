"""The benchmark's workloads: the hdrkit CLI calls each one times, the input
it prepares untimed, and the checks on the CSVs the calls write.

Every workload runs single-process (``--workers 1`` wherever the command
takes it) with its seed passed through ``--seed``. An *operation* is one
expected (scenario, n, measure, replicate) row for ``tune`` and one label
column for ``apply``; a *fit* is one measure fit, score and threshold.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

METRIC_NAMES = ("err", "fpr", "fnr", "accuracy", "f1", "mcc")
RANGES = {"err": (0.0, 1.0), "fpr": (0.0, 1.0), "fnr": (0.0, 1.0), "accuracy": (0.0, 1.0),
          "f1": (0.0, 2.0), "mcc": (-1.0, 1.0)}
MEASURES = ("m0-kde", "m0-npcop", "m0-pcop", "m1", "m2", "m3-ecdf", "m3-npcop", "m3-pcop")
ALPHA = 0.05
REF_SIZE = 100_000

TUNE_HEADER = ["scenario", "n", "measure", "param", "value", "reps"] + [f"{m}_mean" for m in METRIC_NAMES]
EPS_GRID = [0.001] + [round(0.01 * i, 3) for i in range(1, 31)]  # acceptance criterion C06


@dataclass
class Outcome:
    """What the checks found in one iteration's outputs."""

    ops: int
    failed: int = 0
    fits: int = 0
    err: list = field(default_factory=list)  # ERR values against the truth oracle
    problems: list = field(default_factory=list)

    def fail(self, ops: int, why: str):
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(why)


def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty")
    return rows[0], rows[1:]


def _in_range(name, text) -> bool:
    try:
        v = float(text)
    except ValueError:
        return False
    lo, hi = RANGES[name]
    return math.isfinite(v) and lo <= v <= hi


class Workload:
    name = ""
    outputs = ()  # CSVs each iteration writes into its working directory

    def calls(self, seed):
        """The timed CLI argv lists."""
        raise NotImplementedError

    def prepare(self, seed):
        """An untimed worker job that writes shared inputs, or None."""
        return None

    def check(self, d, exits, prep) -> Outcome:
        raise NotImplementedError


class TuneC06(Workload):
    name = "tune-c06"
    reps = 50
    # (scenario, n, measure, grid text, grid values as the CLI prints them, output)
    curves = (
        ("S2", 50, "m1", "1:50", [str(k) for k in range(1, 51)], "tune_k.csv"),
        ("S17", 500, "m3-ecdf", ",".join(map(repr, EPS_GRID)), [repr(e) for e in EPS_GRID], "tune_eps.csv"),
    )
    outputs = tuple(c[5] for c in curves)

    def calls(self, seed):
        return [["tune", "--scenario", sid, "--n", str(n), "--measure", m, "--grid", grid, "--reps", str(self.reps),
                 "--ref-size", str(REF_SIZE), "--workers", "1", "--alpha", repr(ALPHA), "--seed", str(seed),
                 "--out", path]
                for sid, n, m, grid, _values, path in self.curves]

    def check(self, d, exits, prep) -> Outcome:
        out = Outcome(ops=sum(len(c[4]) for c in self.curves) * self.reps)
        for (sid, n, m, _grid, values, path), code in zip(self.curves, exits):
            ops = len(values) * self.reps
            if code != 0:
                out.fail(ops, f"tune {sid} exited {code}")
                continue
            header, rows = _read(d / path)
            want = [[sid, str(n), m, "k" if m == "m1" else "eps", v, str(self.reps)] for v in values]
            if header != TUNE_HEADER or [r[:6] for r in rows] != want:
                out.fail(ops, f"{path}: header or grid rows differ from the expected curve")
                continue
            for row in rows:
                if all(_in_range(name, row[6 + i]) for i, name in enumerate(METRIC_NAMES)):
                    out.fits += self.reps
                    out.err.append(float(row[6]))
                else:
                    out.fail(self.reps, f"{path}: metric out of range in {row}")
        return out


class ApplyN5000(Workload):
    name = "apply-n5000"
    scenario = "S6"
    n = 5000
    outputs = ("labels.csv",)

    def calls(self, seed):
        return [["apply", "--input", "../input.csv", "--x", "x1", "--y", "x2", "--measures", "all",
                 "--scale", "zscore", "--alpha", repr(ALPHA), "--out", "labels.csv"]]

    def prepare(self, seed):
        """Untimed: the input points with their true density, and the
        scenario's truth-oracle threshold."""
        return {"calls": [["simulate", "--scenario", self.scenario, "--n", str(self.n), "--seed", str(seed),
                           "--out", "../input.csv"]],
                "oracle": {"scenario": self.scenario, "alpha": ALPHA, "ref_size": REF_SIZE, "seed": seed}}

    def check(self, d, exits, prep) -> Outcome:
        out = Outcome(ops=len(MEASURES) + 1)
        if exits != [0]:
            out.fail(out.ops, f"apply exited {exits[0]}")
            return out
        _, inputs = _read(d.parent / "input.csv")
        truth = [float(r[2]) >= prep["f_alpha"] for r in inputs]
        header, rows = _read(d / "labels.csv")
        if header != ["x1", "x2", *MEASURES, "consensus"] or len(rows) != self.n:
            out.fail(out.ops, f"labels header or row count ({len(rows)}) differ from the input")
            return out
        if any(r[:2] != i[:2] for r, i in zip(rows, inputs)):
            out.problems.append("labelled x1/x2 differ from the input points")
        cols = list(zip(*(r[2:] for r in rows)))
        if any(set(c) - {"0", "1"} for c in cols):
            out.fail(out.ops, "labels other than 0/1")
            return out
        labels = [[v == "1" for v in c] for c in cols]
        for m, lab in zip(MEASURES, labels):
            inside = sum(lab) / self.n
            if inside < 1.0 - ALPHA:
                out.fail(1, f"{m}: inside fraction {inside:.4f} < {1.0 - ALPHA}")
            else:
                out.fits += 1
                out.err.append(sum(a != b for a, b in zip(lab, truth)) / self.n)
        majority = [2 * sum(votes) > len(MEASURES) for votes in zip(*labels[:-1])]
        if majority != labels[-1]:
            out.fail(1, "consensus is not the strict majority of the measure labels")
        return out


WORKLOADS = {w.name: w for w in (ApplyN5000(), TuneC06())}
