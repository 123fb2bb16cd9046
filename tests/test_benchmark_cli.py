import csv
import inspect
import json
import logging
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hdrkit as hk
from hdrkit import benchmark, core
from hdrkit.benchmark import RunConfig, apply_measures, measure_spec_for, replicate_rng, run_bench, run_tune
from hdrkit.cli import build_parser, main

FAST = dict(reps=8, seed=42, ref_size=10 ** 5)


def _bench_args(out, summary=None, workers=1, extra=()):
    args = [
        "bench", "--scenarios", "S2", "--n", "60", "--measures", "m0-kde,m1,m3-ecdf",
        "--reps", "8", "--seed", "42", "--ref-size", "100000", "--out", str(out),
        "--workers", str(workers),
    ]
    if summary:
        args += ["--summary", str(summary)]
    return args + list(extra)


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(_bench_args(out1)) == 0
        assert main(_bench_args(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_count_independence(self, tmp_path):
        out1, out4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
        assert main(_bench_args(out1, workers=1)) == 0
        assert main(_bench_args(out4, workers=4)) == 0
        assert out1.read_bytes() == out4.read_bytes()

    def test_threads_change_no_byte(self, tmp_path, monkeypatch):
        # with the threshold forced to 0, every pass of a --workers 1 run goes
        # on two threads, and a --workers 2 run's pool workers stay on one
        def outputs(tag, workers):
            out, summary, tune = (tmp_path / f"{tag}-{name}.csv" for name in ("r", "s", "t"))
            assert main(["bench", "--scenarios", "S2", "--n", "60", "--measures", "all", "--reps", "4",
                         "--seed", "42", "--ref-size", "100000", "--out", str(out), "--summary", str(summary),
                         "--workers", str(workers)]) == 0
            assert main(["tune", "--scenario", "S2", "--n", "60", "--measure", "m3-npcop", "--grid", "0.1,0.3",
                         "--reps", "4", "--seed", "42", "--ref-size", "100000", "--out", str(tune),
                         "--workers", str(workers)]) == 0
            return [p.read_bytes() for p in (out, summary, tune)]

        serial = outputs("serial", 1)
        monkeypatch.setattr(core, "_THREAD_MIN", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(core, "_pool", None)
        assert outputs("threads", 1) == serial
        assert core._pool is not None
        assert outputs("workers", 2) == serial

    def test_replicate_streams_independent_of_measure_order(self):
        def rows(measures):
            records, _ = run_bench(RunConfig(scenarios=("S2",), ns=(60,), measures=measures, **FAST))
            return {(r.measure, r.replicate): r.row for r in records}

        rows_a = rows(("m0-kde", "m1"))
        assert rows_a == rows(("m1", "m0-kde"))
        # a subset of the measures scores the same samples
        assert {key: row for key, row in rows_a.items() if key[0] == "m1"} == rows(("m1",))

    def test_rng_streams_distinct(self):
        a = replicate_rng(1, "S2", 50, "m1", 0).random(4)
        b = replicate_rng(1, "S2", 50, "m1", 1).random(4)
        c = replicate_rng(1, "S2", 50, "m2", 0).random(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)


class TestBenchOutputs:
    def test_result_and_summary_schema(self, tmp_path):
        out, summary = tmp_path / "r.csv", tmp_path / "s.csv"
        assert main(_bench_args(out, summary=summary)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8 * 3
        assert set(rows[0]) == {
            "scenario", "n", "measure", "replicate", "err", "fpr", "fnr",
            "accuracy", "f1", "mcc", "hyperparams_used", "fitted_copula_family",
        }
        assert all(r["hyperparams_used"] for r in rows)
        with open(summary) as fh:
            srows = list(csv.DictReader(fh))
        assert len(srows) == 3
        for r in srows:
            assert_allclose(float(r["err_mean"]) + 0.0, float(r["err_mean"]))

    def test_timing_column_opt_in(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(_bench_args(out, extra=["--timing"])) == 0
        with open(out) as fh:
            header = fh.readline().strip().split(",")
        assert header[-1] == "wall_time_ms"

    def test_unknown_scenario_usage_error(self, tmp_path):
        code = main(["bench", "--scenarios", "S99", "--n", "50", "--measures", "m1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_unknown_measure_usage_error(self, tmp_path):
        code = main(["bench", "--scenarios", "S2", "--n", "50", "--measures", "m9",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--scenarios", "S2,s2"), ("--n", "40,40"), ("--measures", "m1,m3-ecdf,m1")])
    def test_repeated_config_value_usage_error(self, tmp_path, capsys, flag, value):
        args = {"--scenarios": "S2", "--n": "40", "--measures": "m1", flag: value}
        code = main(["bench", *[t for kv in args.items() for t in kv], "--reps", "3", "--ref-size", "100000",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error: repeated" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag,value,what", [("--scenarios", ",", "scenarios"), ("--n", "", "sizes"),
                                                 ("--measures", "", "measures")])
    def test_empty_config_value_usage_error(self, tmp_path, capsys, monkeypatch, flag, value, what):
        builds = []
        monkeypatch.setattr(benchmark.scen, "build_truth_oracle", lambda *a: builds.append(a[0].id))
        args = {"--scenarios": "S2", "--n": "50", "--measures": "m1", flag: value}
        code = main(["bench", *[t for kv in args.items() for t in kv], "--reps", "2", "--ref-size", "100000",
                     "--workers", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"error: no {what} given" in capsys.readouterr().err
        assert builds == []
        assert not (tmp_path / "x.csv").exists()

    def test_bad_size_names_its_flag(self, tmp_path, capsys):
        code = main(["bench", "--scenarios", "S2", "--n", "60,x", "--measures", "m1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error: --n takes whole numbers, got 'x'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_empty_measures_rejected_by_config(self):
        with pytest.raises(ValueError, match="no measures given"):
            RunConfig(scenarios=("S2",), ns=(50,), measures=())

    @pytest.mark.parametrize("setting, message", [({"reps": 0}, "reps must be >= 1"),
                                                  ({"workers": 0}, "workers must be >= 1")])
    def test_config_input_checks(self, setting, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(scenarios=("S2",), ns=(50,), measures=("m1",), **setting)

    @pytest.mark.parametrize("args,message", [
        (["bench", "--scenarios", "S2,S17", "--n", "50", "--measures", "m3-ecdf", "--eps", "-1"],
         "eps must be positive"),
        (["bench", "--scenarios", "S2,S17", "--n", "100,50", "--measures", "m1,m2", "--k", "80"],
         "k=80 exceeds sample size 50"),
        (["tune", "--scenario", "S2", "--measure", "m1", "--n", "50", "--grid", "1:60"],
         "k=51 exceeds sample size 50"),
        (["bench", "--scenarios", "S2,S17", "--n", "50", "--measures", "m1,m3-pcop", "--eps", "inf"],
         "eps must be finite, got inf"),
        (["bench", "--scenarios", "S2", "--n", "50", "--measures", "m3-ecdf", "--eps", "nan"],
         "eps must be finite, got nan"),
        (["bench", "--scenarios", "S2", "--n", "50", "--measures", "m3-npcop", "--eps", "1e-320"],
         "eps=1e-320 is out of range"),
        (["bench", "--scenarios", "S2", "--n", "1", "--measures", "m0-kde"], "m0-kde needs at least 2 points"),
        (["bench", "--scenarios", "S2", "--n", "1", "--measures", "m2"], "m2 needs at least 2 points"),
        (["bench", "--scenarios", "S2", "--n", "0", "--measures", "m0-kde"], "m0-kde needs at least 2 points"),
        (["tune", "--scenario", "S2", "--measure", "m1", "--n", "40", "--grid", "3,3"], "repeated grid value in 3, 3"),
        (["tune", "--scenario", "S2", "--measure", "m1", "--n", "40", "--grid", "2.0,2"],
         "repeated grid value in 2.0, 2"),
        (["tune", "--scenario", "S2", "--measure", "m3-ecdf", "--n", "40", "--grid", "0.05,0.1,0.050"],
         "repeated grid value in 0.05, 0.1, 0.05"),
    ])
    def test_bad_override_fails_before_any_oracle(self, tmp_path, capsys, monkeypatch, args, message):
        builds = []
        build = benchmark.scen.build_truth_oracle
        monkeypatch.setattr(benchmark.scen, "build_truth_oracle", lambda *a: builds.append(a[0].id) or build(*a))
        code = main([*args, "--reps", "2", "--ref-size", "100000", "--workers", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert builds == []
        assert not (tmp_path / "x.csv").exists()


class TestTune:
    def test_single_value_equals_bench_aggregation(self):
        # tune shares one oracle and one sample per replicate across the grid;
        # every value must still equal run_bench at that override, bit for bit
        cases = (
            ("S2", "m1", "k", [1, 4, 7, 12], FAST),
            ("S17", "m3-ecdf", "eps", [0.001, 0.02, 0.05, 0.3], FAST),
            ("S2", "m1", "k", [3, 5], dict(FAST, reps=1)),  # one replicate: no sd, means only
        )
        for sid, measure, want_param, grid, kw in cases:
            param, rows = run_tune(sid, 60, measure, grid, **kw)
            assert param == want_param
            assert [g for g, _ in rows] == grid
            for g, means in rows:
                cfg = RunConfig(scenarios=(sid,), ns=(60,), measures=(measure,), **{f"{param}_override": g}, **kw)
                _, summary = run_bench(cfg)
                assert means == {name: mean for name, (mean, _sd) in summary[(sid, 60, measure)].items()}

    def test_scenario_id_any_case(self):
        kw = dict(FAST, reps=2)
        assert run_tune("s2", 40, "m1", [3, 4], **kw) == run_tune("S2", 40, "m1", [3, 4], **kw)
        cfg = RunConfig(scenarios=("s2",), ns=(40,), measures=("m1",), **kw)
        assert cfg.scenarios == ("S2",)
        rec_a, sum_a = run_bench(cfg)
        rec_b, sum_b = run_bench(RunConfig(scenarios=(2,), ns=(40,), measures=("m1",), **kw))
        assert [(r.scenario, r.row) for r in rec_a] == [(r.scenario, r.row) for r in rec_b]
        assert list(sum_a) == [("S2", 40, "m1")] and sum_a == sum_b

    def test_empty_grid_errors(self):
        with pytest.raises(ValueError):
            run_tune("S2", 60, "m1", [], **FAST)

    @pytest.mark.parametrize("scenario, grid, message", [
        ("S2", "1:2:3:4", "bad grid '1:2:3:4'"),
        ("S2", "5:1", "bad grid '5:1'"),
        ("S2", ",", "empty grid"),
        # run_tune checks its config before its grid
        ("S99", ",", "unknown scenario 'S99'"),
    ], ids=["four-parts", "descending", "empty", "bad-scenario-first"])
    def test_cli_grid_usage_error(self, tmp_path, capsys, scenario, grid, message):
        code = main(["tune", "--scenario", scenario, "--n", "40", "--measure", "m1", "--grid", grid,
                     "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_untunable_measure_errors(self):
        with pytest.raises(ValueError):
            run_tune("S2", 60, "m0-kde", [1, 2], **FAST)

    def test_cli_unknown_measure_usage_error(self, tmp_path, capsys):
        code = main(["tune", "--scenario", "S2", "--n", "40", "--measure", "m9", "--grid", "1:3",
                     "--reps", "2", "--ref-size", "100000", "--workers", "1", "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "error: unknown measure 'm9' (choose from m0-kde," in capsys.readouterr().err

    def test_cli_grid_syntax(self, tmp_path):
        out = tmp_path / "tune.csv"
        code = main(["tune", "--scenario", "S2", "--n", "60", "--measure", "m1",
                     "--grid", "4:6", "--reps", "5", "--ref-size", "100000",
                     "--workers", "1", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["value"] for r in rows] == ["4", "5", "6"]

    def test_one_replicate_call_per_replicate(self, monkeypatch):
        calls = []
        run = benchmark.run_replicate
        # positional only: the traced benchmark reads (scenario, n, _, replicate) from args[:4]
        monkeypatch.setattr(benchmark, "run_replicate", lambda *a: calls.append(a[3]) or run(*a))
        _, rows = run_tune("S2", 40, "m1", [2, 3, 5], **dict(FAST, workers=1))
        assert len(rows) == 3
        assert calls == list(range(FAST["reps"]))

    @pytest.mark.parametrize("grid", ["inf", "nan", "1e400", "0.1,-inf"])
    def test_cli_non_finite_grid_usage_error(self, tmp_path, capsys, grid):
        code = main(["tune", "--scenario", "S2", "--n", "40", "--measure", "m3-ecdf", "--grid", grid,
                     "--reps", "2", "--ref-size", "100000", "--workers", "1", "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "error: grid value" in capsys.readouterr().err

    @pytest.mark.parametrize("grid,message", [
        ("0.1,x", "--grid takes numbers, got 'x'"),
        ("1:y", "--grid takes whole numbers in a range, got 'y'"),
    ])
    def test_cli_non_numeric_grid_names_its_flag(self, tmp_path, capsys, grid, message):
        code = main(["tune", "--scenario", "S2", "--n", "40", "--measure", "m1", "--grid", grid,
                     "--reps", "2", "--ref-size", "100000", "--workers", "1", "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_cli_k_must_be_whole(self, tmp_path, capsys):
        args = ["tune", "--scenario", "S2", "--n", "40", "--measure", "m1", "--reps", "3",
                "--ref-size", "100000", "--workers", "1"]
        assert main([*args, "--grid", "2.5,2", "--out", str(tmp_path / "a.csv")]) == 2
        assert "error: k must be a whole number, got 2.5" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()
        rows = {}
        for grid in ("2.0,3", "2,3"):
            assert main([*args, "--grid", grid, "--out", str(tmp_path / "b.csv")]) == 0
            with open(tmp_path / "b.csv") as fh:
                rows[grid] = list(csv.DictReader(fh))
        assert [r.pop("value") for r in rows["2.0,3"]] == ["2.0", "3"]
        assert [r.pop("value") for r in rows["2,3"]] == ["2", "3"]
        assert rows["2.0,3"] == rows["2,3"]

    def test_cli_worker_count_byte_identical(self, tmp_path):
        outs = []
        for workers in (1, 2):
            outs.append(tmp_path / f"tune-w{workers}.csv")
            assert main(["tune", "--scenario", "S17", "--n", "60", "--measure", "m3-ecdf",
                         "--grid", "0.02,0.05,0.1", "--reps", "9", "--ref-size", "100000",
                         "--workers", str(workers), "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestReplicate:
    @pytest.mark.parametrize("sid,measure,settings", [
        ("S2", "m1", [(1, None), (30, None)]),
        ("S17", "m3-pcop", [(None, 0.005), (None, 1.0)]),
    ])
    def test_settings_match_one_setting_calls(self, sid, measure, settings):
        s = hk.scenario(sid)
        oracle = hk.build_truth_oracle(s, 0.05, 10 ** 5, benchmark.oracle_rng(42, sid))
        args = (s, 60, oracle, 3, 42, 0.05)
        specs = [benchmark.meas.fill_spec(measure_spec_for(s, measure, k=k, eps=eps), 60) for k, eps in settings]
        together = benchmark.run_replicate(*args, specs)
        apart = [rec for spec in specs for rec in benchmark.run_replicate(*args, [spec])]

        def key(r):
            return r.scenario, r.n, r.measure, r.replicate, r.row, r.hyperparams, r.fitted_copula_family

        assert [key(r) for r in together] == [key(r) for r in apart]
        assert {r.measure for r in together} == {measure}
        assert together[0].row != together[1].row


class TestPairedReplicates:
    """Every measure of a run scores the one sample of each (scenario, n,
    replicate)."""

    def test_one_draw_and_label_per_replicate(self, monkeypatch):
        draws, labels = [], []
        draw, label = benchmark.scen.sample_scenario, benchmark.scen.label_truth
        monkeypatch.setattr(benchmark.scen, "sample_scenario",
                            lambda s, n, rng: draws.append((s.id, n)) or draw(s, n, rng))
        monkeypatch.setattr(benchmark.scen, "label_truth",
                            lambda oracle, s, pts: labels.append((s.id, len(pts))) or label(oracle, s, pts))
        config = RunConfig(scenarios=("S2", "S17"), ns=(40, 60), measures=("m0-kde", "m1", "m3-ecdf"),
                           **dict(FAST, reps=3))
        records, _ = run_bench(config)
        per_replicate = [(sid, n) for sid in ("S2", "S17") for n in (40, 60) for _ in range(3)]
        assert [d for d in draws if d[1] != FAST["ref_size"]] == per_replicate  # the rest build the oracles
        assert labels == per_replicate
        assert len(records) == len(per_replicate) * 3

    def test_pcop_kinds_share_one_parametric_fit(self, monkeypatch):
        fits = []
        select = benchmark.meas.copulas.select_copula_aic
        monkeypatch.setattr(benchmark.meas.copulas, "select_copula_aic", lambda p: fits.append(p) or select(p))
        run_bench(RunConfig(scenarios=("S1",), ns=(60,), measures=("m0-pcop", "m3-pcop"), **dict(FAST, reps=3)))
        assert len(fits) == 3


def _assert_usage_error_before_any_fit(tmp_path, capsys, monkeypatch, n, message, *args, extra_rows=""):
    """``apply`` on n normal points plus ``extra_rows`` with ``args`` exits 2
    with ``message``, having fitted nothing and written no output."""
    fits = []
    fit = benchmark.meas.fit_measure
    monkeypatch.setattr(benchmark.meas, "fit_measure", lambda spec, sample: fits.append(spec) or fit(spec, sample))
    f = tmp_path / "d.csv"
    f.write_text("a,b\n" + "".join(f"{x},{y}\n" for x, y in np.random.default_rng(9).normal(size=(n, 2)).tolist())
                 + extra_rows)
    out = tmp_path / "o.csv"
    code = main(["apply", "--input", str(f), "--x", "a", "--y", "b", *args, "--out", str(out)])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert fits == []
    assert not out.exists()


class TestApply:
    @pytest.mark.parametrize("text, message", [("", "empty file"), ("a,b\n", "no usable rows")],
                             ids=["empty", "header-only"])
    def test_input_without_rows_usage_error(self, tmp_path, capsys, text, message):
        f = tmp_path / "d.csv"
        f.write_text(text)
        code = main(["apply", "--input", str(f), "--x", "a", "--y", "b", "--measures", "m1",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"error: {f}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_blank_line_skipped(self, tmp_path):
        rows = [f"{x},{y}\n" for x, y in np.random.default_rng(10).normal(size=(30, 2)).tolist()]
        outs = []
        for name, body in (("plain", rows), ("blank", rows[:10] + ["\n", " , \n"] + rows[10:])):
            f, out = tmp_path / f"{name}.csv", tmp_path / f"{name}-labels.csv"
            f.write_text("a,b\n" + "".join(body))
            assert main(["apply", "--input", str(f), "--x", "a", "--y", "b", "--measures", "m1",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_round_trip_simulate_apply(self, tmp_path):
        draws = tmp_path / "draws.csv"
        labeled = tmp_path / "labeled.csv"
        assert main(["simulate", "--scenario", "S2", "--n", "300", "--seed", "7",
                     "--out", str(draws)]) == 0
        assert main(["apply", "--input", str(draws), "--x", "x1", "--y", "x2",
                     "--measures", "m0-kde,m1,m3-ecdf", "--scale", "zscore",
                     "--out", str(labeled)]) == 0
        with open(draws) as fh:
            orig = [(r["x1"], r["x2"]) for r in csv.DictReader(fh)]
        with open(labeled) as fh:
            back = [(r["x1"], r["x2"]) for r in csv.DictReader(fh)]
        assert orig == back  # bit-exact round trip of the point set

    def test_simulate_s17_simplex(self, tmp_path):
        out = tmp_path / "s17.csv"
        assert main(["simulate", "--scenario", "S17", "--n", "100", "--seed", "3",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["x1"]) + float(r["x2"]) <= 1.0 for r in rows)

    def test_simulate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            main(["simulate", "--scenario", "S2", "--n", "50", "--seed", "11", "--out", str(p)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_simulate_bad_size_usage_error(self, tmp_path, capsys, n):
        code = main(["simulate", "--scenario", "S2", "--n", n, "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "error: n must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_specs_match_bench_specs(self, monkeypatch):
        # S2 has normal marginals on an unbounded support, apply's defaults
        specs = []
        fit = benchmark.meas.fit_measure
        monkeypatch.setattr(benchmark.meas, "fit_measure", lambda spec, sample: specs.append(spec) or fit(spec, sample))
        pts = replicate_rng(3, "S2", 40, "spec", 0).normal(size=(40, 2))
        apply_measures(pts, hk.MEASURE_KINDS, k=5, eps=0.3)
        s2 = hk.scenario("S2")
        filled = [benchmark.meas.fill_spec(measure_spec_for(s2, kind, k=5, eps=0.3), 40) for kind in hk.MEASURE_KINDS]
        assert specs == filled
        assert {s.kind: (s.k, s.eps) for s in specs if s.k or s.eps} == {
            "m1": (5, None), "m2": (5, None), "m3-ecdf": (None, 0.3), "m3-npcop": (None, 0.3), "m3-pcop": (None, 0.3)}
        assert {s.kind for s in specs if s.marginal_families} == {"m0-pcop", "m3-pcop"}

    def test_consensus_inside_fraction(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(800, 2))
        res = apply_measures(pts, ("m0-kde", "m1", "m2", "m3-ecdf", "m0-npcop", "m3-npcop"), alpha=0.05)
        frac = float(np.mean(res.consensus))
        assert abs(frac - 0.95) < 0.01

    def test_alpha_half_coverage(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(600, 2))
        res = apply_measures(pts, ("m0-kde",), alpha=0.5)
        assert abs(float(np.mean(res.labels["m0-kde"])) - 0.5) < 0.05

    def test_single_measure_consensus_identity(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(300, 2))
        res = apply_measures(pts, ("m1",), alpha=0.05)
        assert np.array_equal(res.consensus, res.labels["m1"])

    def test_unknown_column_lists_headers(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n")
        code = main(["apply", "--input", str(f), "--x", "zzz", "--y", "b",
                     "--measures", "m1", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "available: a, b" in capsys.readouterr().err

    def test_non_numeric_cell_reports_line(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n3,oops\n")
        code = main(["apply", "--input", str(f), "--x", "a", "--y", "b",
                     "--measures", "m1", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert ":3:" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("scale", ["zscore", "none"])
    def test_non_finite_cell_reports_line(self, tmp_path, capsys, cell, scale):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n" + "".join(f"{i},{i * i % 7}\n" for i in range(30)) + f"3,{cell}\n")
        code = main(["apply", "--input", str(f), "--x", "a", "--y", "b", "--scale", scale,
                     "--measures", "m1", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"{f}:32: non-finite value in 'a'/'b'" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_missing_rows_dropped(self, tmp_path, caplog):
        f = tmp_path / "d.csv"
        rows = ["a,b"] + [f"{i * 0.1},{i * 0.2}" for i in range(40)] + ["5,", ",7"]
        f.write_text("\n".join(rows) + "\n")
        out = tmp_path / "o.csv"
        code = main(["apply", "--input", str(f), "--x", "a", "--y", "b",
                     "--measures", "m1", "--k", "3", "--scale", "none", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 40

    def test_failed_fit_usage_error(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n" + "".join(f"{i * 0.1},1.5\n" for i in range(40)))
        code = main(["apply", "--input", str(f), "--x", "a", "--y", "b", "--measures", "m0-npcop",
                     "--scale", "none", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: fitting measure m0-npcop failed" in err and "zero variance" in err

    def test_all_measures_below_default_m2_k(self, tmp_path):
        # 25 points: m2's default k of 30 clamps to the sample size
        rng = np.random.default_rng(8)
        f = tmp_path / "d.csv"
        f.write_text("a,b\n" + "".join(f"{x},{y}\n" for x, y in rng.normal(size=(25, 2)).tolist()))
        out = tmp_path / "o.csv"
        assert main(["apply", "--input", str(f), "--x", "a", "--y", "b", "--measures", "all",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        assert {r["m2"] for r in rows} <= {"0", "1"} and "1" in {r["m2"] for r in rows}
        assert main(["apply", "--input", str(f), "--x", "a", "--y", "b", "--measures", "m2", "--k", "30",
                     "--out", str(out)]) == 2

    @pytest.mark.parametrize("eps,message", [
        ("inf", "eps must be finite, got inf"),
        ("nan", "eps must be finite, got nan"),
        ("1e-320", "eps=1e-320 is out of range"),
        ("1e200", "eps=1e+200 is out of range"),
    ])
    def test_bad_eps_usage_error_before_any_fit(self, tmp_path, capsys, monkeypatch, eps, message):
        _assert_usage_error_before_any_fit(tmp_path, capsys, monkeypatch, 40, message,
                                           "--measures", "m1,m3-ecdf,m3-npcop,m3-pcop", "--eps", eps)

    @pytest.mark.parametrize("n,args,message", [
        (40, ("--measures", "m0-kde,m1", "--alpha", "1.5"), "alpha must be in (0, 1)"),
        (10, ("--measures", "m1,m0-npcop"), "m0-npcop needs at least 20 points"),
    ])
    def test_bad_alpha_or_size_usage_error_before_any_fit(self, tmp_path, capsys, monkeypatch, n, args, message):
        _assert_usage_error_before_any_fit(tmp_path, capsys, monkeypatch, n, message, *args)

    def test_repeated_measure_usage_error_before_any_fit(self, tmp_path, capsys, monkeypatch):
        # a repeated measure would take two of the consensus votes
        _assert_usage_error_before_any_fit(tmp_path, capsys, monkeypatch, 40, "repeated measure in m1, m1, m2",
                                           "--measures", "m1,m1,m2")

    @pytest.mark.parametrize("measures", ["m1,m3-ecdf", "all"])
    def test_zscore_overflow_usage_error_before_any_fit(self, tmp_path, capsys, monkeypatch, measures):
        # the standard deviation of a column holding 1e200 squares to inf: every
        # z-score would be 0, so every point, the outlier too, would be inside
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_usage_error_before_any_fit(tmp_path, capsys, monkeypatch, 200,
                                               "cannot z-score column 'a': its standard deviation is inf",
                                               "--measures", measures, extra_rows="1e200,1e200\n")

    def test_zscore_at_tiny_scale(self, tmp_path):
        # at 1e-170 the squared deviations underflow to 0, so apply used to
        # exit 2 with "its standard deviation is 0"; the z-scores are those
        # of the same points at unit scale, to within rounding
        pts = np.random.default_rng(9).normal(size=(300, 2))
        inside = []
        for scale in (1.0, 1e-170):
            f = tmp_path / "d.csv"
            f.write_text("a,b\n" + "".join(f"{x},{y}\n" for x, y in (scale * pts).tolist()))
            out = tmp_path / "o.csv"
            assert main(["apply", "--input", str(f), "--x", "a", "--y", "b", "--measures", "all",
                         "--out", str(out)]) == 0
            with open(out) as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 300
            inside.append({m: sum(r[m] == "1" for r in rows) for m in hk.MEASURE_KINDS})
        assert all(270 <= v < 300 for v in inside[1].values()), inside[1]
        assert all(abs(inside[0][m] - inside[1][m]) <= 2 for m in hk.MEASURE_KINDS), inside

    @pytest.mark.parametrize("value", ["2.5", "1e-170"])
    def test_zscore_constant_column_usage_error_before_any_fit(self, tmp_path, capsys, monkeypatch, value):
        fits = []
        monkeypatch.setattr(benchmark.meas, "fit_measure", lambda spec, sample: fits.append(spec))
        f = tmp_path / "d.csv"
        f.write_text("a,b\n" + "".join(f"{value},{y}\n" for y in np.random.default_rng(9).normal(size=300).tolist()))
        code = main(["apply", "--input", str(f), "--x", "a", "--y", "b", "--measures", "m1",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "cannot z-score column 'a': its standard deviation is 0" in capsys.readouterr().err
        assert fits == [] and not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("measures,message", [
        ("m0-pcop,m3-pcop", "m0-pcop failed: normal needs a finite mu and a positive finite sigma"),
        ("m0-npcop", "m0-npcop failed: marginal standard deviation is inf"),
        *[(m, f"{m} failed: the coordinates span 1e+200 by 1e+200, so squared distances overflow")
          for m in ("m0-kde", "m1", "m2")],
    ])
    def test_infinite_marginal_scale_fails_the_fit(self, tmp_path, capsys, measures, message):
        # unscaled, 1e200 squares to inf: a normal marginal with sigma = inf, or
        # a marginal KDE with an infinite bandwidth, used to put every point,
        # the outlier too, inside and exit 0; the distance kinds' squared
        # distances overflowed, with numpy warnings, and m2 exited 0
        f = tmp_path / "d.csv"
        pts = np.random.default_rng(9).normal(size=(200, 2))
        f.write_text("a,b\n" + "".join(f"{x},{y}\n" for x, y in pts.tolist()) + "1e200,1e200\n")
        out = tmp_path / "o.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["apply", "--input", str(f), "--x", "a", "--y", "b", "--scale", "none",
                         "--measures", measures, "--out", str(out)])
        assert code == 2
        assert f"error: fitting measure {message}" in capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    def test_non_finite_scores_name_their_measure(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "d.csv"
        pts = np.random.default_rng(9).normal(size=(300, 2))
        f.write_text("a,b\n" + "".join(f"{x},{y}\n" for x, y in pts.tolist()))
        monkeypatch.setattr(benchmark.meas, "_kde_scores", lambda pts, h, q: np.full(len(q), np.nan))
        code = main(["apply", "--input", str(f), "--x", "a", "--y", "b", "--scale", "none", "--measures", "m0-kde",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "error: scoring measure m0-kde failed: scores contain non-finite values" in capsys.readouterr().err

    @pytest.mark.parametrize("measure", hk.MEASURE_KINDS)
    def test_tiny_data_scale_fails_the_density_fits(self, tmp_path, capsys, measure):
        # at this scale m0-kde's 1/(2h^2) overflows (its kernel sums were NaN)
        # and the copula kinds' density products overflow: each used to print
        # a numpy warning and fail scoring with non-finite values
        f = tmp_path / "d.csv"
        pts = 1e-160 * np.random.default_rng(9).normal(size=(300, 2))
        f.write_text("a,b\n" + "".join(f"{x},{y}\n" for x, y in pts.tolist()))
        out = tmp_path / "o.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["apply", "--input", str(f), "--x", "a", "--y", "b", "--scale", "none",
                         "--measures", measure, "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        if measure in ("m0-kde", "m0-npcop", "m0-pcop"):
            assert code == 2
            assert (f"error: fitting measure {measure} failed: the data scale is too small: the coordinates span "
                    "4.98179e-160 by 5.64675e-160, so densities overflow") in capsys.readouterr().err
            assert not out.exists()
        else:
            assert code == 0
            with open(out) as fh:
                inside = [r[measure] for r in csv.DictReader(fh)]
            # the eps kinds' absolute box rules put every point inside at this scale
            assert len(inside) == 300 and set(inside) == ({"1"} if measure.startswith("m3") else {"0", "1"})

    @pytest.mark.parametrize("scale,measures,warned", [
        (1e-160, "m1,m2,m3-ecdf,m3-npcop,m3-pcop", ["m3-ecdf", "m3-npcop", "m3-pcop"]),
        (1e8, "all", ["m3-ecdf", "m3-pcop"]),
        (None, "all", []),
    ], ids=["tiny", "huge", "zscored-S6"])
    def test_warns_when_ties_put_every_point_inside(self, tmp_path, caplog, scale, measures, warned):
        # the eps kinds' absolute box rules make every box hold the whole
        # sample (tiny scale) or only its own point (huge scale), so all
        # scores tie and every point is inside, though the threshold rank
        # would leave 14 of 300 out
        if scale is None:
            pts, argv = benchmark.simulate_scenario("S6", 300, 1)[0].points, []
        else:
            pts, argv = scale * np.random.default_rng(9).normal(size=(300, 2)), ["--scale", "none"]
        f = tmp_path / "d.csv"
        f.write_text("a,b\n" + "".join(f"{x},{y}\n" for x, y in pts.tolist()))
        out = tmp_path / "o.csv"
        with caplog.at_level(logging.WARNING, logger="hdrkit"):
            assert main(["apply", "--input", str(f), "--x", "a", "--y", "b", *argv, "--measures", measures,
                         "--out", str(out)]) == 0
        warnings_logged = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert [w.split()[0] for w in warnings_logged] == warned
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for m, w in zip(warned, warnings_logged):
            assert {r[m] for r in rows} == {"1"}
            assert f"{m} (eps=" in w and "threshold rank 15 of 300 would leave 14 out" in w

    def test_byte_order_mark_skipped(self, tmp_path):
        draws = tmp_path / "d.csv"
        assert main(["simulate", "--scenario", "S2", "--n", "60", "--seed", "5", "--out", str(draws)]) == 0
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + draws.read_bytes())
        for src, out in ((draws, "plain-labels.csv"), (bom, "bom-labels.csv")):
            assert main(["apply", "--input", str(src), "--x", "x1", "--y", "x2", "--measures", "m1,m3-ecdf",
                         "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "bom-labels.csv").read_bytes() == (tmp_path / "plain-labels.csv").read_bytes()

    def test_no_seed_option(self, tmp_path, capsys):
        # apply draws nothing, so a seed would be a knob nothing reads
        f = tmp_path / "in.csv"
        f.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(SystemExit) as exc:
            main(["apply", "--input", str(f), "--x", "a", "--y", "b", "--measures", "m1", "--seed", "1",
                  "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_svg_output(self, tmp_path):
        draws = tmp_path / "d.csv"
        svg = tmp_path / "hdr.svg"
        main(["simulate", "--scenario", "S2", "--n", "200", "--seed", "5", "--out", str(draws)])
        code = main(["apply", "--input", str(draws), "--x", "x1", "--y", "x2",
                     "--measures", "m0-kde,m1,m3-ecdf", "--out", str(tmp_path / "o.csv"),
                     "--svg", str(svg)])
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert 'viewBox="0 0 600 600"' in text
        assert text.count("<circle") == 200
        assert 'class="in"' in text and 'class="out"' in text


# each command once per output flag, the bad path starting with "nodir/"
_OUTPUT_ARGVS = [
    ["bench", "--scenarios", "S2", "--n", "40", "--measures", "m1", "--out", "nodir/r.csv"],
    ["bench", "--scenarios", "S2", "--n", "40", "--measures", "m1", "--out", "r.csv", "--summary", "nodir/s.csv"],
    ["tune", "--scenario", "S2", "--n", "40", "--measure", "m1", "--grid", "1:3", "--out", "nodir/t.csv"],
    ["apply", "--input", "in.csv", "--x", "a", "--y", "b", "--measures", "m1", "--out", "nodir/o.csv"],
    ["apply", "--input", "in.csv", "--x", "a", "--y", "b", "--measures", "m1", "--out", "o.csv",
     "--svg", "nodir/p.svg"],
    ["simulate", "--scenario", "S2", "--n", "40", "--out", "nodir/d.csv"],
]


class TestOutputDirectory:
    @pytest.fixture
    def run_before_any_work(self, tmp_path, capsys, monkeypatch):
        """Run argv in a folder holding only in.csv and adir/; check that it
        exits 2 with no oracle, draw, fit or file made, and return stderr."""
        calls = []
        for module, name in ((benchmark.scen, "build_truth_oracle"), (benchmark.scen, "sample_scenario"),
                             (benchmark.meas, "fit_measure")):
            monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
        (tmp_path / "in.csv").write_text("a,b\n" + "".join(f"{i},{i * i % 7}\n" for i in range(40)))
        (tmp_path / "adir").mkdir()
        monkeypatch.chdir(tmp_path)

        def run(argv):
            if argv[0] in ("bench", "tune"):
                argv = argv + ["--reps", "2", "--ref-size", "100000", "--workers", "1"]
            assert main(argv) == 2
            assert calls == []
            assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "in.csv"]
            assert list((tmp_path / "adir").iterdir()) == []
            return capsys.readouterr().err

        return run

    @pytest.mark.parametrize("argv", _OUTPUT_ARGVS)
    def test_missing_directory_usage_error_before_any_work(self, run_before_any_work, argv):
        missing = next(a for a in argv if a.startswith("nodir/"))
        assert f"error: cannot write {missing}: no directory" in run_before_any_work(argv)

    @pytest.mark.parametrize("argv", _OUTPUT_ARGVS)
    def test_directory_path_usage_error_before_any_work(self, run_before_any_work, argv):
        argv = ["adir" if a.startswith("nodir/") else a for a in argv]
        assert "error: cannot write adir: it is a directory" in run_before_any_work(argv)

    def test_input_directory_usage_error(self, run_before_any_work):
        argv = ["apply", "--input", "adir", "--x", "a", "--y", "b", "--measures", "m1", "--out", "o.csv"]
        err = run_before_any_work(argv)
        assert err.startswith("error: ") and "'adir'" in err


class TestRunDefaults:
    """Each command's defaults are those of the library call it makes:
    ``RunConfig``'s for bench, ``run_tune``'s for tune (its seed, alpha
    and ref_size also ``RunConfig``'s), ``apply_measures``' for apply, and
    ``RunConfig``'s seed for simulate."""

    CONFIG = RunConfig(scenarios=("S1",), ns=(50,), measures=("m1",))

    @staticmethod
    def _parsed(*argv):
        args = build_parser().parse_args([*argv, "--out", "o.csv"])
        return {name: getattr(args, name) for name in ("reps", "seed", "alpha", "ref_size") if hasattr(args, name)}

    def test_bench(self):
        got = self._parsed("bench", "--scenarios", "S1", "--n", "50", "--measures", "m1")
        c = self.CONFIG
        assert got == {"reps": c.reps, "seed": c.seed, "alpha": c.alpha, "ref_size": c.ref_size}

    def test_tune(self):
        got = self._parsed("tune", "--scenario", "S1", "--n", "50", "--measure", "m1", "--grid", "1:5")
        params = inspect.signature(run_tune).parameters
        assert got == {name: params[name].default for name in ("reps", "seed", "alpha", "ref_size")}
        c = self.CONFIG
        assert (got["seed"], got["alpha"], got["ref_size"]) == (c.seed, c.alpha, c.ref_size)

    def test_apply(self):
        got = self._parsed("apply", "--input", "i.csv", "--x", "a", "--y", "b", "--measures", "m1")
        assert got == {"alpha": inspect.signature(apply_measures).parameters["alpha"].default}

    def test_simulate(self):
        assert self._parsed("simulate", "--scenario", "S1", "--n", "50") == {"seed": self.CONFIG.seed}


class TestDefaultWorkers:
    @pytest.mark.parametrize("command", ["bench", "tune"])
    def test_one_worker_per_cpu_this_process_may_use(self, tmp_path, monkeypatch, command):
        # as under `taskset -c 0`: the affinity holds one CPU, os.cpu_count() may count more
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        workers = []
        run = benchmark._map
        monkeypatch.setattr(benchmark, "_map", lambda fn, tasks, w: workers.append(w) or run(fn, tasks, w))
        args = (["bench", "--scenarios", "S2", "--n", "60", "--measures", "m1"] if command == "bench"
                else ["tune", "--scenario", "S2", "--n", "60", "--measure", "m1", "--grid", "2:3"])
        assert main([*args, "--reps", "4", "--ref-size", "100000", "--out", str(tmp_path / "o.csv")]) == 0
        assert workers == [1]


_IMPORT_GUARD = """
import json, sys
from hdrkit.cli import main
assert main(["simulate", "--scenario", "S16", "--n", "300", "--seed", "1", "--out", "s16.csv"]) == 0
assert main(["apply", "--input", "s16.csv", "--x", "x1", "--y", "x2", "--measures", "all", "--out", "o.csv"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[:2] in (["scipy", "stats"], ["scipy", "integrate"]))))
"""


_OPTIMIZE_GUARD = """
import json, sys
from hdrkit.cli import main
runs = [
    ["simulate", "--scenario", "S6", "--n", "300", "--seed", "1", "--out", "s6.csv"],
    ["apply", "--input", "s6.csv", "--x", "x1", "--y", "x2", "--measures", "all", "--out", "o.csv"],
    ["tune", "--scenario", "S2", "--n", "50", "--measure", "m1", "--grid", "1:5", "--reps", "2", "--out", "k.csv"],
    ["tune", "--scenario", "S17", "--n", "50", "--measure", "m3-ecdf", "--grid", "0.05,0.1", "--reps", "2",
     "--out", "e.csv"],
    ["bench", "--scenarios", "S1,S6,S17", "--n", "40", "--measures", "all", "--reps", "2", "--out", "b.csv"],
]
for argv in runs:
    assert main([*argv, *(["--ref-size", "100000", "--workers", "1"] if argv[0] in ("tune", "bench") else [])]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[:2] in (["scipy", "optimize"], ["scipy", "linalg"],
                                                              ["scipy", "sparse"]))
# the mixture quantile imports scipy.optimize on first use
assert main(["simulate", "--scenario", "S16", "--n", "300", "--seed", "1", "--out", "s16.csv"]) == 0
print(json.dumps(loaded))
"""


def _run_guard(tmp_path, script):
    src = os.path.dirname(os.path.dirname(hk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_never_imports_scipy_stats_or_integrate(tmp_path):
    # scipy.stats and scipy.integrate take about half a second to import, which every CLI call would pay
    assert _run_guard(tmp_path, _IMPORT_GUARD) == []


def test_cli_without_mixtures_never_imports_scipy_optimize(tmp_path):
    # scipy.optimize brings scipy.linalg, scipy.sparse and scipy.special's package init, about
    # 0.3 s and 35 MB at every start; only the mixture quantile and the Frank tau inversion need it
    assert _run_guard(tmp_path, _OPTIMIZE_GUARD) == []


_SPECIAL_NAMES = ("ndtr", "ndtri", "stdtr", "stdtrit", "poch", "gammaln", "betaln", "spence")

_SPECIAL_GUARD = """
import json, sys
import hdrkit.cli
from hdrkit import copulas, distributions
start = {m: m in sys.modules for m in ("scipy._lib._array_api", "scipy.special", "numpy.random")}
import scipy.special, scipy.stats, scipy.optimize
same = [getattr(distributions.special, f) is getattr(scipy.special, f) for f in %r]
print(json.dumps({**start, "same": same, "one owner": copulas.special is distributions.special}))
""" % (_SPECIAL_NAMES,)

_SPECIAL_PRELOADED = """
import json, scipy.special
from hdrkit import copulas, distributions
print(json.dumps([distributions.special is scipy.special, copulas.special is scipy.special]))
"""

# a scipy layout the loader does not know: its own import of _ufuncs fails once
_SPECIAL_FALLBACK = """
import importlib.abc, json, sys

class FailOnce(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs":
            sys.meta_path.remove(self)
            raise ImportError(name)

sys.meta_path.insert(0, FailOnce())
from hdrkit import distributions
package = sys.modules["scipy.special"]
print(json.dumps([distributions.special is package, package.__file__.endswith("__init__.py"),
                  "scipy._lib._array_api" in sys.modules, float(distributions.special.ndtr(0.0))]))
"""


class TestSpecialLoader:
    """hdrkit loads scipy's compiled special-function ufuncs without
    ``scipy.special``'s package init, never leaves its bare stand-in
    package behind, and falls back to the full package."""

    def test_start_up_skips_the_package_init(self, tmp_path):
        got = _run_guard(tmp_path, _SPECIAL_GUARD)
        assert got == {"scipy._lib._array_api": False, "scipy.special": False, "numpy.random": True,
                       "same": [True] * len(_SPECIAL_NAMES), "one owner": True}

    def test_an_imported_scipy_special_is_used(self, tmp_path):
        assert _run_guard(tmp_path, _SPECIAL_PRELOADED) == [True, True]

    def test_import_error_falls_back_to_the_package(self, tmp_path):
        assert _run_guard(tmp_path, _SPECIAL_FALLBACK) == [True, True, True, 0.5]

    def test_hdrkit_calls_only_these_functions(self):
        src = os.path.dirname(hk.__file__)
        called = set()
        for name in os.listdir(src):
            if name.endswith(".py"):
                with open(os.path.join(src, name), encoding="utf-8") as fh:
                    called |= set(re.findall(r"\bspecial\.(\w+)\(", fh.read()))
        assert called == set(_SPECIAL_NAMES)
