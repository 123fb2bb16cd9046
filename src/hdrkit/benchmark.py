"""Monte Carlo benchmark engine, hyperparameter tuning, and CSV application.

Reproducibility contract: every replicate draws from an RNG stream keyed by
``(seed, scenario, n, "sample", replicate)`` through a SHA-256 stable hash
into a numpy SeedSequence feeding a Philox counter-based generator. Streams
never depend on worker scheduling, so results are identical for any worker
count, and reruns are byte-identical.

A replicate is one (scenario, n, replicate). It draws its sample and labels
the sample's truth once, then evaluates every measure and ``(k, eps)``
setting of the run on that sample (fit, score, threshold, classify,
metrics), so the measures are compared on the same data and a fit that
several measures share is made once. ``bench`` and ``tune`` run through one
grid runner, ``_run_grid``, which builds each scenario's oracle once.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import measures as meas
from . import scenarios as scen
from .core import Orientation, Sample2D, _check_alpha, threshold_index
from .evaluation import METRIC_NAMES, MetricsRow, aggregate, confusion, metrics
from .hdr import classify, estimate_hdr, measure_average

__all__ = [
    "RunConfig",
    "ResultRecord",
    "replicate_rng",
    "oracle_rng",
    "run_bench",
    "run_tune",
    "apply_measures",
    "simulate_scenario",
    "fmt_float",
]

log = logging.getLogger("hdrkit")

_TUNE_REPS = 50  # replicates per grid value of a tuning curve


def _stable_key(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")


def replicate_rng(seed: int, scenario_id: str, n: int, stream: str, replicate: int) -> np.random.Generator:
    """Independent, scheduler-agnostic stream; ``bench`` and ``tune`` draw from ``stream="sample"``."""
    entropy = [seed & 0xFFFFFFFFFFFFFFFF, _stable_key(scenario_id), n, _stable_key(stream), replicate]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def oracle_rng(seed: int, scenario_id: str) -> np.random.Generator:
    entropy = [seed & 0xFFFFFFFFFFFFFFFF, _stable_key(scenario_id), _stable_key("truth-oracle")]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _check_distinct(what: str, values):
    if len(set(values)) < len(values):
        raise ValueError(f"repeated {what} in {', '.join(map(str, values))}")


@dataclass(frozen=True)
class RunConfig:
    scenarios: tuple
    ns: tuple
    measures: tuple
    reps: int = 300
    alpha: float = 0.05
    seed: int = 42
    ref_size: int = 10 ** 6
    workers: int = 1
    k_override: int | None = None
    eps_override: float | None = None

    def __post_init__(self):
        # canonical ids ('s2' and 2 become 'S2'); raises on an unknown id before any work
        object.__setattr__(self, "scenarios", tuple(scen.scenario(sid).id for sid in self.scenarios))
        for what, values in (("scenario", self.scenarios), ("size", self.ns), ("measure", self.measures)):
            if not values:
                raise ValueError(f"no {what}s given")
            _check_distinct(what, values)
        for m in self.measures:
            meas.tuned_param(m)  # raises on an unknown measure
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        _check_alpha(self.alpha)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class ResultRecord:
    scenario: str
    n: int
    measure: str
    replicate: int
    row: tuple  # (err, fpr, fnr, accuracy, f1, mcc)
    hyperparams: str
    fitted_copula_family: str
    wall_time_ms: float


def measure_spec_for(s: scen.Scenario, measure: str, k=None, eps=None) -> meas.MeasureSpec:
    """Spec for one measure under one scenario: support class from the
    scenario, true marginal families for the parametric-copula kinds."""
    support = meas.SIMPLEX if s.is_simplex else meas.UNBOUNDED
    return meas.build_spec(measure, k, eps, support, (s.marginals[0].family, s.marginals[1].family))


def _fmt_value(v) -> str:
    """A hyperparameter value: integers as written, floats by ``fmt_float``."""
    return str(v) if isinstance(v, (int, np.integer)) else fmt_float(v)


def _fmt_hyper(hp: dict) -> str:
    return ";".join(f"{k}={_fmt_value(v)}" for k, v in sorted(hp.items()))


def fmt_float(x) -> str:
    """Shortest decimal serialization that round-trips to the same double."""
    return repr(float(x))


def run_replicate(s: scen.Scenario, n: int, oracle: scen.TruthOracle, replicate: int,
                  seed: int, alpha: float, specs) -> list:
    """One replicate: draw and truth-label its sample once, then fit, score, threshold,
    classify and compare with truth for each filled spec in ``specs``. Returns one record
    per spec, in order; its wall time covers the draw plus its own evaluation, and a fit
    that specs share counts in the first spec that makes it."""
    t0 = time.perf_counter()
    sample = scen.sample_scenario(s, n, replicate_rng(seed, s.id, n, "sample", replicate))
    truth = scen.label_truth(oracle, s, sample.points)
    draw_s = time.perf_counter() - t0
    records = []
    for spec in specs:
        t0 = time.perf_counter()
        fitted = meas.fit_measure(spec, sample)
        scores = fitted.score_vector(sample)
        row = metrics(confusion(classify(estimate_hdr(scores, alpha), scores.scores), truth))
        ms = (draw_s + time.perf_counter() - t0) * 1e3
        records.append(ResultRecord(
            s.id, n, spec.kind, replicate, row.as_tuple(),
            _fmt_hyper(fitted.hyperparams), fitted.fitted_copula_family or "", ms,
        ))
    return records


def _run_batch(args):
    s, n, rep_lo, rep_hi, oracle, seed, alpha, specs = args
    return [run_replicate(s, n, oracle, r, seed, alpha, specs) for r in range(rep_lo, rep_hi)]


def _batches(reps: int, workers: int):
    """Replicate ranges ``[lo, hi)``: about four per worker, at most 50 long."""
    size = min(50, reps // (workers * 4) or 1)
    return [(lo, min(lo + size, reps)) for lo in range(0, reps, size)]


def _map(fn, tasks, workers: int):
    if workers == 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _summarize(rows):
    """Per-metric (mean, sd) over replicate rows; one replicate has no sd."""
    if len(rows) >= 2:
        return aggregate(rows)
    return {name: (v, float("nan")) for name, v in zip(METRIC_NAMES, rows[0].as_tuple())}


def _run_grid(config: RunConfig, settings) -> list:
    """Records in (scenario, n, measure, replicate) order, one per ``(k,
    eps)`` in ``settings`` in turn.

    Each (scenario, n) cell's specs, one per measure and setting, are built
    and filled once, before any truth oracle, so that a bad override or
    size fails first; the cell's batches carry them and its scenario, and
    each replicate scores all of them on its one sample. Each scenario's
    oracle is then built once. ``_map`` keeps task order, so a stable sort
    by cell and measure gives the record order.
    """
    scens = [scen.scenario(sid) for sid in config.scenarios]
    specs = {(s.id, n): [meas.fill_spec(measure_spec_for(s, m, k=k, eps=eps), n)
                         for m in config.measures for k, eps in settings] for s in scens for n in config.ns}
    oracles = {}
    for s in scens:
        oracles[s.id] = scen.build_truth_oracle(s, config.alpha, config.ref_size, oracle_rng(config.seed, s.id))
        log.info("truth oracle %s: f_alpha=%.6g (ref_size=%d)", s.id, oracles[s.id].f_alpha, config.ref_size)
    tasks = [(s, n, lo, hi, oracles[s.id], config.seed, config.alpha, specs[s.id, n])
             for s in scens for n in config.ns for lo, hi in _batches(config.reps, config.workers)]
    records = [rec for chunk in _map(_run_batch, tasks, config.workers) for recs in chunk for rec in recs]
    cell_pos = {key: i for i, key in enumerate(specs)}
    return sorted(records, key=lambda r: (cell_pos[r.scenario, r.n], config.measures.index(r.measure)))


def run_bench(config: RunConfig):
    """Run the full benchmark grid.

    Returns ``(records, summary)`` where records is the flat per-replicate
    list ordered by (scenario, n, measure, replicate) and summary maps
    (scenario, n, measure) to per-metric (mean, sd) pairs.
    """
    records = _run_grid(config, [(config.k_override, config.eps_override)])
    summary = {key: _summarize([MetricsRow(*r.row) for r in cell])
               for key, cell in itertools.groupby(records, key=lambda r: (r.scenario, r.n, r.measure))}
    return records, summary


def _write_csv(path, header, rows):
    """One header line, then one line per row of already formatted cells."""
    _write_text(path, [",".join(header), *(",".join(row) for row in rows)])


def _write_text(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_results_csv(path, records, timing: bool = False):
    cols = ["scenario", "n", "measure", "replicate", *METRIC_NAMES, "hyperparams_used", "fitted_copula_family"]
    if timing:
        cols.append("wall_time_ms")
    rows = []
    for r in records:
        vals = [r.scenario, str(r.n), r.measure, str(r.replicate), *map(fmt_float, r.row),
                r.hyperparams, r.fitted_copula_family]
        if timing:
            vals.append(fmt_float(r.wall_time_ms))
        rows.append(vals)
    _write_csv(path, cols, rows)


def write_summary_csv(path, config: RunConfig, summary):
    cols = ["scenario", "n", "measure", "reps"]
    cols += [f"{name}_{stat}" for name in METRIC_NAMES for stat in ("mean", "sd")]
    rows = []
    for sid, n, m in itertools.product(config.scenarios, config.ns, config.measures):
        cell = summary[(sid, n, m)]
        rows.append([sid, str(n), m, str(config.reps), *(fmt_float(v) for name in METRIC_NAMES for v in cell[name])])
    _write_csv(path, cols, rows)


# ---------------------------------------------------------------------------
# tuning


def run_tune(sid: str, n: int, measure: str, grid, reps: int = _TUNE_REPS, alpha: float = RunConfig.alpha,
             seed: int = RunConfig.seed, ref_size: int = RunConfig.ref_size, workers: int = RunConfig.workers):
    """Mean metrics per hyperparameter grid value (k for the kNN measures,
    eps for the box measures).

    Each replicate's sample is drawn and truth-labelled once and shared by
    every grid value. Each value's mean equals ``run_bench`` with that
    value as its override.
    """
    config = RunConfig(scenarios=(sid,), ns=(n,), measures=(measure,), reps=reps, alpha=alpha, seed=seed,
                       ref_size=ref_size, workers=workers)
    grid = list(grid)
    if not grid:
        raise ValueError("empty grid")
    _check_distinct("grid value", grid)  # by value: 2.0 repeats 2
    param = meas.tuned_param(measure)
    if param is None:
        raise ValueError(f"measure {measure} has no tunable hyperparameter")
    records = _run_grid(config, [(g, None) if param == "k" else (None, g) for g in grid])
    return param, [
        (g, {name: mean for name, (mean, _sd) in
             _summarize([MetricsRow(*r.row) for r in records[i::len(grid)]]).items()})
        for i, g in enumerate(grid)
    ]


def write_tune_csv(path, sid, n, measure, param, rows, reps):
    cols = ["scenario", "n", "measure", "param", "value", "reps"] + [f"{m}_mean" for m in METRIC_NAMES]
    _write_csv(path, cols, (
        [sid, str(n), measure, param, _fmt_value(g), str(reps), *(fmt_float(cell[name]) for name in METRIC_NAMES)]
        for g, cell in rows
    ))


# ---------------------------------------------------------------------------
# application to external data


@dataclass
class ApplyResult:
    labels: dict  # measure -> boolean inside-vector
    consensus: np.ndarray
    hyperparams: dict = field(default_factory=dict)


def apply_measures(points, measure_tokens, alpha: float = RunConfig.alpha, k=None, eps=None) -> ApplyResult:
    """Fit each requested measure on the points, estimate its HDR, and form
    the strict-majority consensus labels. A measure that puts every point
    inside, although its threshold rank would leave some out, is logged as
    a warning: its scores tie, as the eps kinds' do when their absolute box
    rules do not suit the data's scale."""
    _check_distinct("measure", measure_tokens)  # a repeat would vote twice
    sample = Sample2D(points)
    # alpha and every spec, filled for this sample, are checked before any
    # fit; external data carries no true family, so normal marginals are the
    # documented default (the nonparametric kinds need no such choice)
    _check_alpha(alpha)
    specs = [meas.fill_spec(meas.build_spec(token, k, eps, marginal_families=("normal", "normal")), sample.n)
             for token in measure_tokens]
    labels = {}
    hps = {}
    for token, spec in zip(measure_tokens, specs):
        fitted = meas.fit_measure(spec, sample)
        scores = fitted.score_vector(sample)
        region = estimate_hdr(scores, alpha)
        labels[token] = classify(region, scores.scores)
        hps[token] = _fmt_hyper(fitted.hyperparams)
        rank = threshold_index(sample.n, alpha, scores.orientation)
        left_out = rank - 1 if scores.orientation is Orientation.CONCENTRATION else sample.n - rank
        if left_out and labels[token].all():
            log.warning("%s (%s) puts every point inside, although its threshold rank %d of %d would leave %d out: "
                        "its scores tie; its hyperparameters may not suit the data's scale",
                        token, hps[token], rank, sample.n, left_out)
    consensus = measure_average([labels[t] for t in measure_tokens])
    return ApplyResult(labels, consensus, hps)


def simulate_scenario(sid: str, n: int, seed: int):
    """Draws plus their true density, for inspection and round-trip tests."""
    s = scen.scenario(sid)
    if n < 1:  # before the stream: a negative n is not valid entropy
        raise ValueError("n must be >= 1")
    rng = replicate_rng(seed, s.id, n, "simulate", 0)
    sample = scen.sample_scenario(s, n, rng)
    dens = scen.true_density(s, sample.points)
    return sample, dens
