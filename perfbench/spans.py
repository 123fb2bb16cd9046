"""Per-layer spans around hdrkit's public functions, installed from outside
the package.

Each wrapped function records a span (name, start, end, parent) in memory.
Functions imported by name into another module are replaced at every
binding, so a call through ``hdrkit.copulas.bvt_cdf`` or
``hdrkit.benchmark.estimate_hdr`` is seen as well as one through the
defining module. ``distributions.marginal_cdf`` is only counted: ``brentq``
calls it millions of times per mixture oracle, and a timing span there
would distort the very layer it measures. ``uninstall`` puts every original
binding back.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

# (module, function, span name) for the functions that get a timing span
SPANNED = (
    ("hdrkit.cli", "main", "cli.main"),
    ("hdrkit.benchmark", "run_bench", "benchmark.run_bench"),
    ("hdrkit.benchmark", "run_tune", "benchmark.run_tune"),
    ("hdrkit.benchmark", "apply_measures", "benchmark.apply_measures"),
    ("hdrkit.benchmark", "run_replicate", "benchmark.run_replicate"),
    ("hdrkit.benchmark", "replicate_rng", "benchmark.replicate_rng"),
    ("hdrkit.benchmark", "write_tune_csv", "benchmark.write_tune_csv"),
    ("hdrkit.scenarios", "build_truth_oracle", "scenarios.build_truth_oracle"),
    ("hdrkit.scenarios", "sample_scenario", "scenarios.sample_scenario"),
    ("hdrkit.scenarios", "true_density", "scenarios.true_density"),
    ("hdrkit.scenarios", "label_truth", "scenarios.label_truth"),
    ("hdrkit.distributions", "marginal_quantile", "distributions.marginal_quantile"),
    ("hdrkit.distributions", "fit_marginal_mle", "distributions.fit_marginal_mle"),
    ("hdrkit.distributions", "bvn_cdf", "distributions.bvn_cdf"),
    ("hdrkit.distributions", "bvt_cdf", "distributions.bvt_cdf"),
    ("hdrkit.copulas", "copula_sample", "copulas.copula_sample"),
    ("hdrkit.copulas", "select_copula_aic", "copulas.select_copula_aic"),
    ("hdrkit.copulas", "fit_copula_mle", "copulas.fit_copula_mle"),
    ("hdrkit.copulas", "copula_pdf", "copulas.copula_pdf"),
    ("hdrkit.copulas", "copula_cdf", "copulas.copula_cdf"),
    ("hdrkit.copulas", "npcop_fit", "copulas.npcop_fit"),
    ("hdrkit.copulas", "npcop_pdf", "copulas.npcop_pdf"),
    ("hdrkit.copulas", "npcop_rect_prob", "copulas.npcop_rect_prob"),
    # keyed by the measure kind: measures.fit.<kind>
    ("hdrkit.measures", "fit_measure", lambda args: "measures.fit." + args[0].kind),
    ("hdrkit.hdr", "estimate_hdr", "hdr.estimate_hdr"),
    ("hdrkit.hdr", "classify", "hdr.classify"),
    ("hdrkit.hdr", "measure_average", "hdr.measure_average"),
    ("hdrkit.evaluation", "confusion", "evaluation.confusion"),
    ("hdrkit.evaluation", "metrics", "evaluation.metrics"),
    ("hdrkit.evaluation", "aggregate", "evaluation.aggregate"),
)
COUNTED = (("hdrkit.distributions", "marginal_cdf", "distributions.marginal_cdf"),)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.calls = collections.Counter()  # count-only functions
        self.failed = collections.Counter()  # spans that ended in an exception
        self.em_iters = 0
        self.unconverged = 0
        self.coverage_excess = []
        self.replicate_keys = set()
        self.oracle_builds = collections.Counter()  # scenario id -> builds
        self._stack = []
        self._undo = []  # (namespace, attribute, original)

    # -- installation ----------------------------------------------------

    def install(self):
        import hdrkit.cli  # noqa: F401 - loads every hdrkit module

        observers = {
            "fit_marginal_mle": self._saw_marginal_fit,
            "classify": self._saw_classify,
            "run_replicate": self._saw_replicate,
            "build_truth_oracle": self._saw_oracle,
        }
        for module, attr, name in SPANNED:
            orig = getattr(sys.modules[module], attr)
            self._rebind(orig, self._span(name, orig, observers.get(attr)))
        for module, attr, name in COUNTED:
            orig = getattr(sys.modules[module], attr)
            self._rebind(orig, self._counter(name, orig))
        fitted = sys.modules["hdrkit.measures"].FittedMeasure
        orig = fitted.__dict__["score"]
        self._undo.append((fitted, "score", orig))
        fitted.score = self._span(lambda args: "measures.score." + args[0].spec.kind, orig)

    def uninstall(self):
        for namespace, attr, orig in reversed(self._undo):
            setattr(namespace, attr, orig)
        self._undo.clear()

    def _rebind(self, orig, wrapper):
        """Replace ``orig`` in every hdrkit module namespace that binds it."""
        for modname, module in list(sys.modules.items()):
            if modname != "hdrkit" and not modname.startswith("hdrkit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._undo.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    def _span(self, name, fn, observe=None):
        spans, stack, failed = self.spans, self._stack, self.failed
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[label] += 1
                raise
            finally:
                spans[idx] = (label, t0, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- observers at layer boundaries ---------------------------------

    def _saw_marginal_fit(self, args, report):
        if report.model.family == "normal_mixture":
            self.em_iters += report.iterations
        if not report.converged:
            self.unconverged += 1

    def _saw_classify(self, args, inside):
        if inside.size:
            self.coverage_excess.append(float(inside.mean()) - (1.0 - args[0].alpha))

    def _saw_replicate(self, args, record):
        scenario, n, _measure, replicate = args[:4]
        self.replicate_keys.add((scenario.id, n, replicate))

    def _saw_oracle(self, args, oracle):
        self.oracle_builds[oracle.scenario_id] += 1

    # -- per-layer metrics ----------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: ``F.calls`` and ``F.self_s`` for every span
        name seen, ``F.total_s`` for spans that had children, plus the
        counts and ratios read at the boundaries."""
        total = collections.defaultdict(float)
        child = collections.defaultdict(float)
        calls = collections.Counter()
        has_children = set()
        draws_in_replicates = 0
        for label, t0, t1, parent in self.spans:
            total[label] += t1 - t0
            calls[label] += 1
            if parent >= 0:
                plabel = self.spans[parent][0]
                child[parent] += t1 - t0
                has_children.add(plabel)
                if label == "scenarios.sample_scenario" and plabel == "benchmark.run_replicate":
                    draws_in_replicates += 1
        self_s = collections.defaultdict(float)
        for idx, (label, t0, t1, _parent) in enumerate(self.spans):
            self_s[label] += (t1 - t0) - child.get(idx, 0.0)

        out = {}
        for label in calls:
            out[label + ".calls"] = calls[label]
            out[label + ".self_s"] = self_s[label]
            if label in has_children:
                out[label + ".total_s"] = total[label]
        for label, n in self.calls.items():
            out[label + ".calls"] = n
        out["distributions.fit_marginal_mle.em_iters"] = self.em_iters
        out["distributions.fit_marginal_mle.unconverged"] = self.unconverged
        out["copulas.fit_copula_mle.failed"] = self.failed["copulas.fit_copula_mle"]
        out["scenarios.draws_per_replicate"] = (
            draws_in_replicates / len(self.replicate_keys) if self.replicate_keys else 0.0
        )
        out["scenarios.oracle_builds_per_scenario"] = (
            sum(self.oracle_builds.values()) / len(self.oracle_builds) if self.oracle_builds else 0.0
        )
        out["hdr.coverage_excess"] = (
            sum(self.coverage_excess) / len(self.coverage_excess) if self.coverage_excess else 0.0
        )
        return out
