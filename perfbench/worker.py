"""One workload iteration in a fresh process: call ``hdrkit.cli.main`` for
each argv of a job file, in-process, and write timings to a result file.

Usage: python worker.py JOB.json

The job is ``{"calls": [[arg, ...], ...], "trace": bool, "result": path}``
plus, for input preparation, an optional ``"oracle":
{"scenario", "alpha", "ref_size", "seed"}`` whose threshold f_alpha is
computed after the calls. A call that raises or returns non-zero is
recorded and the next call still runs.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _call(main, argv) -> dict:
    t0 = time.perf_counter()
    error = None
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:  # noqa: BLE001 - a failed call is recorded, not fatal
        code = None
        error = traceback.format_exc(limit=5)
    return {"argv": argv, "exit": code, "wall_s": time.perf_counter() - t0, "error": error}


def _leftover_wrappers() -> list:
    """Names still bound to a tracing wrapper (none once uninstalled)."""
    left = []
    for modname, module in list(sys.modules.items()):
        if modname == "hdrkit" or modname.startswith("hdrkit."):
            for attr, value in vars(module).items():
                if getattr(value, "__wrapped__", None) is not None:
                    left.append(f"{modname}.{attr}")
    score = sys.modules["hdrkit.measures"].FittedMeasure.__dict__["score"]
    if getattr(score, "__wrapped__", None) is not None:
        left.append("hdrkit.measures.FittedMeasure.score")
    return left


def run(job: dict) -> dict:
    import hdrkit
    import hdrkit.cli as cli

    # CLOCK_MONOTONIC is shared by all processes: the parent subtracts its spawn time
    out = {"imported_at": time.monotonic(), "hdrkit_file": os.path.realpath(hdrkit.__file__)}
    tracer = None
    if job.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = _cpu_s()
    try:
        calls = [_call(cli.main, argv) for argv in job["calls"]]
    finally:
        cpu1 = _cpu_s()
        if tracer is not None:
            tracer.uninstall()
    out["calls"] = calls
    out["wall_s"] = sum(c["wall_s"] for c in calls)
    out["cpu_s"] = cpu1 - cpu0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["oracle_builds"] = dict(tracer.oracle_builds)
        out["leftover_wrappers"] = _leftover_wrappers()

    oracle = job.get("oracle")
    if oracle:
        from hdrkit import benchmark, scenarios

        s = scenarios.scenario(oracle["scenario"])
        rng = benchmark.oracle_rng(oracle["seed"], s.id)
        out["f_alpha"] = scenarios.build_truth_oracle(s, oracle["alpha"], oracle["ref_size"], rng).f_alpha
    return out


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
