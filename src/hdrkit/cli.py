"""Command-line interface: scenario benchmarking, hyperparameter tuning,
application to external CSV data, and scenario simulation.

CSV conventions: mandatory header row, comma delimiter, '.' decimal point,
UTF-8 (an input's leading byte-order mark is skipped), floats serialized
with the shortest representation that round-trips bit-exactly. All
commands are pure functions of their flags and input files; reruns (at
any worker count) produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys

import numpy as np

from . import measures as meas
from .benchmark import (
    RunConfig,
    _TUNE_REPS,
    _write_csv,
    _write_text,
    apply_measures,
    fmt_float,
    run_bench,
    run_tune,
    simulate_scenario,
    write_results_csv,
    write_summary_csv,
    write_tune_csv,
)
from .core import _cpus

log = logging.getLogger("hdrkit")

_SVG_SIZE, _SVG_MARGIN = 600, 20  # scatter viewbox side and inner margin


def _parse_measures(text: str):
    if text.strip().lower() == "all":
        return meas.MEASURE_KINDS
    tokens = tuple(t.strip().lower() for t in text.split(",") if t.strip())
    if not tokens:
        raise ValueError("no measures given")
    return tokens  # measures.tuned_param checks each name


def _parse_int_list(text: str):
    """``bench --n``: a comma list of whole numbers."""
    sizes = []
    for t in filter(str.strip, text.split(",")):
        try:
            sizes.append(int(t))
        except ValueError:
            raise ValueError(f"--n takes whole numbers, got {t.strip()!r}") from None
    return tuple(sizes)


def _parse_str_list(text: str):
    return tuple(t.strip() for t in text.split(",") if t.strip())


def _grid_number(t: str, whole: bool):
    """One ``--grid`` value as an int (a range's bounds and step) or a
    float, naming the flag when it is not one."""
    try:
        return int(t) if whole else float(t)
    except ValueError:
        what = "whole numbers in a range" if whole else "numbers"
        raise ValueError(f"--grid takes {what}, got {t.strip()!r}") from None


def _parse_grid(text: str):
    """Grid syntax: 'a:b' or 'a:b:step' for integer ranges, else a comma list
    of numbers (ints or floats)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad grid {text!r}")
        lo, hi = _grid_number(parts[0], whole=True), _grid_number(parts[1], whole=True)
        step = _grid_number(parts[2], whole=True) if len(parts) == 3 else 1
        if step < 1 or hi < lo:
            raise ValueError(f"bad grid {text!r}")
        return list(range(lo, hi + 1, step))
    out = []
    for t in filter(str.strip, text.split(",")):
        f = _grid_number(t, whole=False)
        if not math.isfinite(f):
            raise ValueError(f"grid value {t.strip()!r} is not finite")
        out.append(int(f) if f == int(f) and "." not in t and "e" not in t.lower() else f)
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hdrkit", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="Monte Carlo benchmark over scenarios x sizes x measures")
    b.add_argument("--scenarios", required=True, help="comma list, e.g. S1,S6,S11,S16")
    b.add_argument("--n", required=True, help="comma list of sample sizes, e.g. 50,100,500,1000")
    b.add_argument("--measures", required=True, help="'all' or comma list of measure tokens")
    b.add_argument("--reps", type=int, default=RunConfig.reps)
    b.add_argument("--out", required=True, help="per-replicate result CSV")
    b.add_argument("--summary", help="aggregated mean(sd) CSV")
    b.add_argument("--timing", action="store_true",
                   help="add a wall_time_ms column (breaks byte-identical reruns)")

    t = sub.add_parser("tune", help="mean metrics per hyperparameter grid value")
    t.add_argument("--scenario", required=True)
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--measure", required=True)
    t.add_argument("--grid", required=True, help="'1:50', '1:50:2', or comma list like 0.01,0.02,0.05")
    t.add_argument("--reps", type=int, default=_TUNE_REPS)
    t.add_argument("--out", required=True)

    a = sub.add_parser("apply", help="label an external CSV with per-measure and consensus HDRs")
    a.add_argument("--input", required=True)
    a.add_argument("--x", required=True, help="name of the x column")
    a.add_argument("--y", required=True, help="name of the y column")
    a.add_argument("--measures", required=True)
    a.add_argument("--scale", choices=("none", "zscore"), default="zscore")
    a.add_argument("--out", required=True, help="labeled CSV")
    a.add_argument("--svg", help="optional scatter SVG colored by the consensus")

    s = sub.add_parser("simulate", help="write scenario draws plus their true density")
    s.add_argument("--scenario", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--out", required=True)

    for p in (b, t):
        p.add_argument("--workers", type=int, default=_cpus(),
                       help="worker processes (default: one per CPU this process may use)")
        p.add_argument("--ref-size", type=int, default=RunConfig.ref_size, help="truth-oracle reference sample size")
    for p in (b, a):
        p.add_argument("--k", type=int, default=None, help="override k for the kNN measures")
        p.add_argument("--eps", type=float, default=None, help="override eps for the box measures")
    # apply is deterministic and draws nothing, so it takes no seed
    for p in (b, t, s):
        p.add_argument("--seed", type=int, default=RunConfig.seed, help="master seed (default %(default)s)")
    for p in (b, t, a):
        p.add_argument("--alpha", type=float, default=RunConfig.alpha, help="1 - coverage level (default %(default)s)")
    return ap


def _cmd_bench(args) -> int:
    config = RunConfig(
        scenarios=_parse_str_list(args.scenarios),
        ns=_parse_int_list(args.n),
        measures=_parse_measures(args.measures),
        reps=args.reps,
        alpha=args.alpha,
        seed=args.seed,
        ref_size=args.ref_size,
        workers=args.workers,
        k_override=args.k,
        eps_override=args.eps,
    )
    records, summary = run_bench(config)
    write_results_csv(args.out, records, timing=args.timing)
    log.info("wrote %d records to %s", len(records), args.out)
    if args.summary:
        write_summary_csv(args.summary, config, summary)
        log.info("wrote summary to %s", args.summary)
    return 0


def _cmd_tune(args) -> int:
    grid = _parse_grid(args.grid)
    measure = args.measure.strip().lower()
    param, rows = run_tune(
        args.scenario.upper(), args.n, measure, grid, reps=args.reps, alpha=args.alpha,
        seed=args.seed, ref_size=args.ref_size,
        workers=args.workers,
    )
    write_tune_csv(args.out, args.scenario.upper(), args.n, measure, param, rows, args.reps)
    log.info("wrote %d grid rows to %s", len(rows), args.out)
    return 0


def _read_xy_csv(path: str, col_x: str, col_y: str):
    """Parse two numeric columns; drop rows with missing cells (logged),
    raise on a non-numeric or non-finite cell with its line number."""
    with open(path, encoding="utf-8-sig", newline="") as fh:  # skips a leading byte-order mark
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for name in (col_x, col_y):
            if name not in header:
                raise ValueError(f"{path}: no column {name!r}; available: {', '.join(header)}")
        ix, iy = header.index(col_x), header.index(col_y)
        xs, ys = [], []
        dropped = 0
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            cx = row[ix].strip() if ix < len(row) else ""
            cy = row[iy].strip() if iy < len(row) else ""
            if not cx or not cy:
                dropped += 1
                continue
            try:
                x, y = float(cx), float(cy)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value in {col_x!r}/{col_y!r}") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{path}:{lineno}: non-finite value in {col_x!r}/{col_y!r}")
            xs.append(x)
            ys.append(y)
    if dropped:
        log.info("dropped %d rows with missing %s/%s values", dropped, col_x, col_y)
    if not xs:
        raise ValueError(f"{path}: no usable rows")
    return np.column_stack([np.array(xs), np.array(ys)])


def _cmd_apply(args) -> int:
    tokens = _parse_measures(args.measures)
    raw = _read_xy_csv(args.input, args.x, args.y)
    pts = raw
    if args.scale == "zscore":
        with np.errstate(over="ignore", invalid="ignore"):
            mu = raw.mean(axis=0)
            sd = raw.std(axis=0)
        for j, name in enumerate((args.x, args.y)):
            col = raw[:, j]
            if sd[j] == 0 and col.min() < col.max():
                # at a scale near 1e-170 the squared deviations underflow to 0:
                # take the sd at unit scale, then scale it back
                big = np.abs(col).max()
                sd[j] = (col / big).std() * big
            if not 0.0 < sd[j] < np.inf:  # a mean that overflows makes the sd inf or NaN too
                raise ValueError(f"cannot z-score column {name!r}: its standard deviation is {sd[j]:g}")
        pts = (raw - mu) / sd
    result = apply_measures(pts, tokens, alpha=args.alpha, k=args.k, eps=args.eps)
    for t in tokens:
        log.info("%s: inside fraction %.4f (%s)", t, float(np.mean(result.labels[t])), result.hyperparams[t])
    log.info("consensus: inside fraction %.4f", float(np.mean(result.consensus)))

    labels = [result.labels[t] for t in tokens] + [result.consensus]
    _write_csv(args.out, [args.x, args.y, *tokens, "consensus"], (
        [fmt_float(x), fmt_float(y), *("1" if lab[i] else "0" for lab in labels)] for i, (x, y) in enumerate(raw)
    ))
    log.info("wrote labels to %s", args.out)

    if args.svg:
        write_svg_scatter(args.svg, pts, result.consensus)
        log.info("wrote scatter to %s", args.svg)
    return 0


def _cmd_simulate(args) -> int:
    sample, dens = simulate_scenario(args.scenario, args.n, args.seed)
    _write_csv(args.out, ["x1", "x2", "true_density"],
               ([fmt_float(x1), fmt_float(x2), fmt_float(d)] for (x1, x2), d in zip(sample.points, dens)))
    log.info("wrote %d draws to %s", sample.n, args.out)
    return 0


def write_svg_scatter(path: str, points: np.ndarray, inside: np.ndarray):
    """Static scatter, inside/outside as two fill classes, 600x600 viewbox."""
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi - lo <= 0, 1.0, hi - lo)
    inner = _SVG_SIZE - 2 * _SVG_MARGIN
    sx = _SVG_MARGIN + (pts[:, 0] - lo[0]) / span[0] * inner
    sy = _SVG_SIZE - _SVG_MARGIN - (pts[:, 1] - lo[1]) / span[1] * inner  # y grows upward
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        "<style>.in{fill:#5f9ea0;}.out{fill:#8b3a9e;}</style>",
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
    ]
    for x, y, lab in zip(sx, sy, np.asarray(inside, dtype=bool)):
        cls = "in" if lab else "out"
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" class="{cls}"/>')
    parts.append("</svg>")
    _write_text(path, parts)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    handlers = {"bench": _cmd_bench, "tune": _cmd_tune, "apply": _cmd_apply, "simulate": _cmd_simulate}
    try:
        # an output path that is a directory or in a missing one fails here, before any work
        for path in filter(None, (getattr(args, flag, None) for flag in ("out", "summary", "svg"))):
            folder = os.path.dirname(os.path.abspath(path))
            if os.path.isdir(path):
                raise ValueError(f"cannot write {path}: it is a directory")
            if not os.path.isdir(folder):
                raise ValueError(f"cannot write {path}: no directory {folder}")
        return handlers[args.command](args)
    except (ValueError, OSError, meas.FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
