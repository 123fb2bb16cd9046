"""hdrkit benchmark: one workload per invocation, end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload tune-c06 --seed 1 --seconds 45 --trace 0

Every iteration is a fresh ``python perfbench/worker.py`` process with its
own working directory and ``XDG_CACHE_HOME``, calling ``hdrkit.cli.main``
in-process on the sources under ``src/``. Iterations repeat, one at a time
(a closed loop with one caller), at least twice and until ``--seconds``
have passed. All iterations of an invocation must write
byte-identical CSVs. ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics instead of the end-to-end
ones; its traced CSVs must match the untraced ones byte for byte.

The iterations of a run repeat the same work, on a shared host whose
speed changes by up to a third in phases of seconds to minutes. A run
reports the mean wall and CPU time of its iterations: over a few
iterations, a median or a minimum jumps between the host's fast and slow
phases, while the mean moves by the share of the run each takes. Set-up
time is the median over the run's worker processes.

A human-readable report goes to stderr. The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
MIN_ITERATIONS = 2  # so every invocation also compares a rerun byte for byte

UNITS = {"wall_s": "s", "setup_s": "s", "fits_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB",
         "err_mean": "fraction"}


class Run:
    """One benchmark invocation: its scratch directory, environment and clock."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.start = time.perf_counter()
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(root / "src"),
            # every process compiles hdrkit afresh: no bytecode cache in src/ outlives a run
            "PYTHONDONTWRITEBYTECODE": "1",
            "TMPDIR": str(work),
        })
        self.counter = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def fresh_dir(self, label: str) -> Path:
        self.counter += 1
        d = self.work / f"{self.counter:03d}-{label}"
        (d / "xdg-cache").mkdir(parents=True)
        return d

    def child(self, argv, cwd: Path, log: Path):
        """Run one child process to completion (killed at the deadline)."""
        env = dict(self.env, XDG_CACHE_HOME=str(cwd / "xdg-cache"))
        with open(log, "w", encoding="utf-8") as fh:
            return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, self.remaining()), check=False)

    def worker(self, job: dict, cwd: Path) -> dict:
        job = dict(job, result=str(cwd / "result.json"))
        (cwd / "job.json").write_text(json.dumps(job), encoding="utf-8")
        log = cwd / "worker.log"
        spawned = time.monotonic()
        try:
            proc = self.child([str(HERE / "worker.py"), str(cwd / "job.json")], cwd, log)
        except subprocess.TimeoutExpired:
            return {"error": "worker killed at the deadline"}
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            return {"error": f"worker exited {proc.returncode}: {tail}"}
        res = json.loads((cwd / "result.json").read_text(encoding="utf-8"))
        res["setup_s"] = res["imported_at"] - spawned  # a fresh process up to `import hdrkit.cli` done
        return res


def digest(d: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        p = d / name
        h.update(name.encode() + b"\0" + (p.read_bytes() if p.exists() else b"<missing>") + b"\0")
    return h.hexdigest()


def iterate(run: Run, wl, seed: int, traced: bool, prep: dict) -> dict:
    d = run.fresh_dir("traced" if traced else "run")
    calls = wl.calls(seed)
    res = run.worker({"calls": calls, "trace": traced}, d)
    exits = [c["exit"] for c in res.get("calls", [])] or [None] * len(calls)
    try:
        outcome = wl.check(d, exits, prep)
    except (OSError, ValueError, IndexError) as exc:
        outcome = wl.check(d, [f"unreadable output ({exc})"] * len(calls), prep)
    problems = list(outcome.problems)
    if "error" in res:
        problems.append(res["error"])
    for c in res.get("calls", []):
        if c["error"]:
            problems.append(c["error"])
    if "hdrkit_file" in res and not res["hdrkit_file"].startswith(os.path.realpath(run.root / "src") + os.sep):
        problems.append(f"imported hdrkit from {res['hdrkit_file']}, not from src/")
    if res.get("leftover_wrappers"):
        problems.append(f"tracing wrappers left installed: {res['leftover_wrappers']}")
    return {"traced": traced, "res": res, "outcome": outcome, "problems": problems,
            "digest": digest(d, wl.outputs)}


def median(values):
    return statistics.median(values) if values else math.nan


def mean(values):
    return statistics.fmean(values) if values else math.nan


def measure(root: Path, wl, args):
    """Untimed input preparation, then the closed loop of iterations;
    returns ``(setup times, iterations)``. Every worker process gives a
    set-up sample."""
    (root / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=root / ".perfbench_work"))
    try:
        run = Run(root, work)
        workers = []
        prep = {}
        job = wl.prepare(args.seed)
        if job is not None:
            prep = run.worker(job, run.fresh_dir("prepare"))
            if "error" in prep or any(c["exit"] != 0 for c in prep["calls"]):
                raise RuntimeError(f"input preparation failed: {prep}")
            workers.append(prep)

        iters = []
        t0 = time.perf_counter()
        rounds = 0
        while True:
            for traced in ((False, True) if args.trace else (False,)):
                iters.append(iterate(run, wl, args.seed, traced, prep))
            rounds += 1
            elapsed = time.perf_counter() - t0
            done = len(iters) >= MIN_ITERATIONS and elapsed >= args.seconds
            if done or run.remaining() < 1.5 * elapsed / rounds:
                setup = [w["setup_s"] for w in workers + [it["res"] for it in iters] if "setup_s" in w]
                return setup, iters
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(setup, iters) -> dict:
    ok = [it for it in iters if not it["problems"] and not it["outcome"].failed] or iters
    plain = [it["res"] for it in ok if not it["traced"]]
    wall = mean([r["wall_s"] for r in plain if "wall_s" in r])
    return {
        "wall_s": wall,
        "setup_s": median(setup),
        "fits_per_s": mean([it["outcome"].fits for it in ok if not it["traced"]]) / wall,
        "cpu_s": mean([r["cpu_s"] for r in plain if "cpu_s" in r]),
        "peak_rss_mb": median([r.get("peak_rss_mb", math.nan) for r in plain]),
        "err_mean": statistics.fmean(iters[0]["outcome"].err) if iters[0]["outcome"].err else math.nan,
    }


def per_layer(iters, e2e: dict, declared, problems) -> dict:
    traced = [it["res"] for it in iters if it["traced"] and "layers" in it["res"]]
    seen = set().union(*(r["layers"] for r in traced)) | {"trace_overhead_frac"}
    undeclared = sorted(seen - set(declared))
    if undeclared:
        problems.append(f"per-layer metrics missing from BENCHMARK.json: {undeclared}")
    values = {name: median([r["layers"].get(name, 0) for r in traced]) for name in declared}
    values["trace_overhead_frac"] = mean([r["wall_s"] for r in traced]) / e2e["wall_s"] - 1.0
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hdrkit" / "cli.py").is_file():
        print("error: run from the repository root; src/hdrkit is missing", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    recorded = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))["digests"]
    wl = WORKLOADS[args.workload]
    try:
        setup, iters = measure(root, wl, args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = [p for it in iters for p in it["problems"]]
    if len({it["digest"] for it in iters}) != 1:
        problems.append("iterations wrote different CSVs (rerun or traced run not byte-identical)")
    want = recorded.get(wl.name, {}).get(str(args.seed))
    outputs_changed = None if want is None else want != iters[0]["digest"]
    attempted = sum(it["outcome"].ops for it in iters)
    failed = sum(it["outcome"].failed for it in iters)

    e2e = end_to_end(setup, iters)
    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = [m["name"] for m in table]
    units = {m["name"]: m["unit"] for m in table}
    if args.trace:
        values = per_layer(iters, e2e, declared, problems)
    else:
        values = e2e
        if sorted(declared) != sorted(e2e) or any(units[n] != UNITS[n] for n in e2e):
            problems.append(f"end-to-end metrics {sorted(e2e)} differ from BENCHMARK.json {sorted(declared)}")
    for name, value in values.items():
        if not math.isfinite(value):
            problems.append(f"{name} is not finite")
            values[name] = 0.0

    def say(text):
        print(text, file=sys.stderr)

    say(f"workload {wl.name} seed {args.seed}: {len(iters)} iterations, walls "
        + ", ".join(f"{it['res'].get('wall_s', math.nan):.3f}{'*' if it['traced'] else ''}" for it in iters)
        + (" (* traced)" if args.trace else ""))
    say(f"  setup samples: {', '.join(f'{s:.3f}' for s in setup)}")
    for name, value in e2e.items():
        say(f"  {name:<12} {value:.6g} {UNITS[name]}")
    say(f"  failed_frac  {failed / attempted:.6g} ({failed} of {attempted} operations)")
    say(f"  outputs digest {iters[0]['digest']}; outputs_changed: "
        + ("unknown (no recorded digest for this seed)" if outputs_changed is None else str(outputs_changed).lower()))
    if args.trace:
        builds = [it["res"].get("oracle_builds") for it in iters if it["traced"]]
        say(f"  oracle builds per scenario: {builds[0] if builds else {}}")
        for name in declared:
            say(f"  {name:<48} {values[name]:.6g} {units[name]}")
    for p in problems[:20]:
        say(f"  PROBLEM: {p}")

    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
