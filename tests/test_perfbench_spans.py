"""The traced benchmark (``perfbench/spans.py``) wraps hdrkit functions by
module and name. These checks make a renamed or deleted function, or a
wrapper left in place, fail here rather than in a traced benchmark run."""

import importlib
import importlib.util
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return {
        (modname, attr): value
        for modname, module in list(sys.modules.items())
        if modname == "hdrkit" or modname.startswith("hdrkit.")
        for attr, value in vars(module).items()
    }


def test_every_traced_function_resolves(spans):
    for module, attr, _name in spans.SPANNED + spans.COUNTED:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_uninstall_leaves_no_wrapper(spans):
    import hdrkit.cli  # noqa: F401 - loads every hdrkit module, as install does
    from hdrkit import benchmark, measures

    before = _bindings()
    score = measures.FittedMeasure.__dict__["score"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert benchmark.run_replicate is not before[("hdrkit.benchmark", "run_replicate")]
        assert measures.FittedMeasure.__dict__["score"] is not score
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
    assert measures.FittedMeasure.__dict__["score"] is score


def test_spans_recorded_on_the_main_thread(spans, monkeypatch):
    # the tracer keeps one span stack, so no worker thread may enter a span
    from hdrkit import benchmark, core, measures, scenarios

    pts = np.random.default_rng(38).normal(size=(1100, 2))

    def traced(run):
        tracer = spans.Tracer()
        threads = set()

        class Spans(list):
            def append(self, item):
                threads.add(threading.get_ident())
                super().append(item)

        tracer.spans = Spans()
        tracer.install()
        try:
            run()
        finally:
            tracer.uninstall()
        return {k: v for k, v in tracer.metrics().items() if k.endswith(".calls")}, threads

    def apply():
        benchmark.apply_measures(pts, list(measures.MEASURE_KINDS))

    def oracle():
        # a row pass over 2**20 reference points would take two threads
        scenarios.build_truth_oracle(scenarios.scenario("S2"), 0.05, 1 << 20, np.random.default_rng(38))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(core, "_pool", None)
    assert core._threads(1100 * 1100) == 2 and core._threads(1 << 20) == 2
    calls, threads = traced(apply)
    assert core._pool is not None
    assert threads == {threading.get_ident()}
    oracle_calls, threads = traced(oracle)
    assert threads == {threading.get_ident()}
    assert oracle_calls["scenarios.true_density.calls"] == 128  # one per 8,192-row block
    monkeypatch.setattr(core, "_THREAD_MIN", 1 << 62)
    assert traced(apply)[0] == calls
    assert calls["measures.score.m3-npcop.calls"] == 1 and calls["copulas.npcop_rect_prob.calls"] == 1
