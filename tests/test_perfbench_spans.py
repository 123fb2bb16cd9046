"""The traced benchmark (``perfbench/spans.py``) wraps hdrkit functions by
module and name. These checks make a renamed or deleted function, or a
wrapper left in place, fail here rather than in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

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
