"""Tests for the command-line interface."""

import argparse
import contextlib
import csv
import dataclasses
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dfakit
from dfakit import cli, expectation
from dfakit.cli import _summary, build_parser, main
from dfakit.estimators import (
    GappedSeries,
    dfa,
    ensemble,
    estimate_hurst,
    f_hat,
    f_tilde,
)
from dfakit.exceptions import TooFewPointsError
from dfakit.generators import block_gap_mask, sample, sample_stack
from dfakit.models import FBM, FGN as FGNModel, OU, AcvfTable, WhiteNoise


def write_series(path, values, mask=None):
    with open(path, "w") as fh:
        for i, v in enumerate(values):
            if mask is not None and not mask[i]:
                fh.write("NA\n")
            else:
                fh.write(f"{float(v)!r}\n")


def read_curve_csv(path):
    rows = []
    with open(path) as fh:
        header = fh.readline()
        assert header.startswith("# config:")
        for row in csv.DictReader(fh):
            rows.append(row)
    return rows


def _with_gap_fraction(argv, fraction, source, tmp_path):
    """argv with --gap-fraction given as a flag or in a config file."""
    if source == "flag":
        return [*argv, "--gap-fraction", str(fraction)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gap_fraction": fraction}))
    return ["--config", str(cfg), *argv]


class TestAnalyze:
    def test_matches_library(self, tmp_path):
        x = sample(FGNModel(0.7, 1.0), 600, seed=4)
        inp = tmp_path / "x.csv"
        out = tmp_path / "curve.csv"
        hout = tmp_path / "fit.json"
        write_series(inp, x)
        rc = main(["analyze", "-i", str(inp), "-m", "2",
                   "--scales", "8", "16", "32", "64",
                   "--fit-range", "8", "64",
                   "--out", str(out), "--hurst-out", str(hout)])
        assert rc == 0
        rows = read_curve_csv(out)
        ref = dfa(x, 2, [8, 16, 32, 64])
        assert [int(r["scale"]) for r in rows] == [8, 16, 32, 64]
        got = np.array([float(r["F_squared"]) for r in rows])
        assert np.array_equal(got, ref.f2)
        got_f = np.array([float(r["F"]) for r in rows])
        assert np.array_equal(got_f, ref.f)
        fit = json.loads(hout.read_text())
        assert fit["estimator"] == "standard"
        assert 0.0 < fit["hurst"] < 1.5

    def test_missing_values_need_gap_estimator(self, tmp_path):
        x = sample(FGNModel(0.7, 1.0), 400, seed=5)
        mask = block_gap_mask(400, 0.2, 6.0, seed=6)
        inp = tmp_path / "x.csv"
        write_series(inp, x, mask)
        rc = main(["analyze", "-i", str(inp), "--estimator", "standard",
                   "--scales", "8", "16", "--out", str(tmp_path / "o.csv"),
                   "--hurst-out", str(tmp_path / "h.json")])
        assert rc == 4

    @pytest.mark.parametrize("cell", ["inf", "-inf"])
    def test_non_finite_value_exit_4(self, tmp_path, cell):
        inp = tmp_path / "x.csv"
        cells = [repr(float(v)) for v in sample(FGNModel(0.7, 1.0), 200, 7)]
        cells[50] = cell
        inp.write_text("\n".join(cells) + "\n")
        rc = main(["analyze", "-i", str(inp), "--out", str(tmp_path / "o.csv"),
                   "--hurst-out", str(tmp_path / "h.json")])
        assert rc == 4

    def test_constant_series_exit_4(self, tmp_path):
        inp = tmp_path / "x.csv"
        write_series(inp, np.full(200, 3.7))
        rc = main(["analyze", "-i", str(inp), "--out", str(tmp_path / "o.csv"),
                   "--hurst-out", str(tmp_path / "h.json")])
        assert rc == 4

    @pytest.mark.parametrize("values, flags", [
        (np.full(40, 3.7), ["-m", "1", "--scales", "4", "5", "6"]),
        (sample(WhiteNoise(), 400, seed=3), ["--fit-range", "50", "10"]),
    ], ids=["constant", "reversed-fit-range"])
    def test_failed_fit_leaves_no_output(self, tmp_path, values, flags):
        inp = tmp_path / "x.csv"
        out, hout = tmp_path / "o.csv", tmp_path / "h.json"
        write_series(inp, values)
        rc = main(["analyze", "-i", str(inp), *flags, "--out", str(out),
                   "--hurst-out", str(hout)])
        assert rc == 4
        assert not out.exists() and not hout.exists()

    def test_overflowing_series_exit_4(self, tmp_path, capsys):
        inp = tmp_path / "x.csv"
        write_series(inp, np.random.default_rng(8).normal(size=4000) * 1e160)
        out, hout = tmp_path / "o.csv", tmp_path / "h.json"
        rc = main(["analyze", "-i", str(inp), "-m", "1", "--out", str(out),
                   "--hurst-out", str(hout)])
        assert rc == 4
        assert "rescale" in capsys.readouterr().err
        assert not out.exists() and not hout.exists()

    def test_reversed_fit_range_refused_before_reading(self, tmp_path,
                                                       capsys):
        # a missing input would exit 3 if it were read first
        rc = main(["analyze", "-i", str(tmp_path / "missing.csv"),
                   "--fit-range", "50", "10"])
        assert rc == 4
        assert "SMIN > SMAX" in capsys.readouterr().err

    def test_failed_second_write_leaves_no_output(self, tmp_path):
        inp = tmp_path / "x.csv"
        write_series(inp, sample(WhiteNoise(), 400, seed=3))
        out = tmp_path / "o.csv"
        rc = main(["analyze", "-i", str(inp), "--out", str(out),
                   "--hurst-out", str(tmp_path / "missing" / "h.json")])
        assert rc == 3
        assert not out.exists()

    def test_f_tilde_matches_library(self, tmp_path):
        x = sample(FGNModel(0.7, 1.0), 400, seed=5)
        mask = block_gap_mask(400, 0.2, 6.0, seed=6)
        inp = tmp_path / "x.csv"
        out = tmp_path / "curve.csv"
        write_series(inp, x, mask)
        rc = main(["analyze", "-i", str(inp), "--estimator", "f_tilde",
                   "-m", "2", "--scales", "8", "16", "32",
                   "--out", str(out),
                   "--hurst-out", str(tmp_path / "h.json")])
        assert rc == 0
        got = np.array([float(r["F_squared"]) for r in read_curve_csv(out)])
        ref = f_tilde(GappedSeries(np.where(mask, x, 0.0), mask), 2,
                      [8, 16, 32])
        assert np.array_equal(got, ref.f2)

    def test_no_data_rows_exit_4(self, tmp_path, capsys):
        inp = tmp_path / "x.csv"
        inp.write_text("# a comment\n\n")
        out = tmp_path / "o.csv"
        rc = main(["analyze", "-i", str(inp), "--out", str(out),
                   "--hurst-out", str(tmp_path / "h.json")])
        assert rc == 4
        assert "no data rows" in capsys.readouterr().err
        assert not out.exists()

    def test_na_handling_with_f_hat(self, tmp_path):
        x = sample(FGNModel(0.7, 1.0), 400, seed=5)
        mask = block_gap_mask(400, 0.2, 6.0, seed=6)
        inp = tmp_path / "x.csv"
        out = tmp_path / "curve.csv"
        write_series(inp, x, mask)
        rc = main(["analyze", "-i", str(inp), "--estimator", "f_hat",
                   "-m", "2", "--scales", "8", "16", "32",
                   "--out", str(out),
                   "--hurst-out", str(tmp_path / "h.json")])
        assert rc == 0
        rows = read_curve_csv(out)
        gs = GappedSeries(np.where(mask, x, 0.0), mask)
        ref = f_hat(gs, 2, [8, 16, 32])
        got = np.array([float(r["F_squared"]) for r in rows])
        assert np.array_equal(got, ref.f2)


class TestExpected:
    def test_white_noise_closed_form(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(["expected", "--model", '{"kind": "white"}', "-m", "1",
                   "--scales", "10", "40", "--hurst", "0.5",
                   "--out", str(out)])
        assert rc == 0
        rows = read_curve_csv(out)
        for row in rows:
            s = int(row["s"])
            assert float(row["EF2"]) == pytest.approx((s**2 - 4) / (15 * s),
                                                      rel=1e-12)
        # K2 at s = 10 for white noise is 0.96
        assert float(rows[0]["K2"]) == pytest.approx(0.96, rel=1e-9)

    def test_motion_model(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(["expected", "--model", '{"kind": "fbm", "hurst": 1.5}',
                   "-m", "1", "--scales", "4096", "--out", str(out)])
        assert rc == 0
        row = read_curve_csv(out)[0]
        assert float(row["EF2"]) == pytest.approx(4096**3 / 420, rel=0.01)
        assert float(row["K2"]) == pytest.approx(1.0, abs=0.05)

    def test_model_without_hurst_leaves_k2_empty(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(["expected", "--model", '{"kind": "ou", "tau_c": 5}',
                   "-m", "2", "--scales", "4", "8", "16", "--out", str(out)])
        assert rc == 0
        rows = read_curve_csv(out)
        assert [int(r["s"]) for r in rows] == [4, 8, 16]
        want = expectation.expected_curve(OU(5.0), 2, [4, 8, 16])
        assert np.array_equal([float(r["EF2"]) for r in rows], want)
        assert all(r["lambda_s2H"] == r["K2"] == "" for r in rows)

    def test_perfect_fit_scale_exits_before_output(self, tmp_path):
        # s = m + 1 would give E F^2 = 0 and K^2 = 0, a K^2 that
        # modified_f2 rejects; bias refuses it as well
        out = tmp_path / "e.csv"
        rc = main(["expected", "--model", '{"kind": "fgn", "hurst": 0.7}',
                   "-m", "2", "--scales", "3", "8", "--out", str(out)])
        assert rc == 4
        assert not out.exists()

    def test_scale_below_order_exits_before_output(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(["expected", "--model", '{"kind": "fgn", "hurst": 0.7}',
                   "-m", "2", "--scales", "2", "8", "--out", str(out)])
        assert rc == 4
        assert not out.exists()

    def test_model_failing_at_largest_scale_leaves_no_output(self, tmp_path,
                                                              capsys):
        # the table covers the lags of s = 4 and 8 but not those of 16
        out = tmp_path / "f.csv"
        rc = main(["expected", "--model", '{"kind": "table", "acvf": '
                   '[1, 0.5, 0.25, 0.1, 0.05, 0, 0, 0, 0, 0]}', "-m", "1",
                   "--scales", "4", "8", "16", "--out", str(out)])
        assert rc == 4
        assert "need up to 15" in capsys.readouterr().err
        assert not out.exists()


def _count_lag_calls(monkeypatch):
    """The lengths of the FGN.acvf and FBM.variogram calls made."""
    calls = []
    for cls, name in ((FGNModel, "acvf"), (FBM, "variogram")):
        def counted(self, lags, _lag_function=getattr(cls, name)):
            calls.append(np.asarray(lags).size)
            return _lag_function(self, lags)
        monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("argv,s_max", [
    (["expected", "--model", '{"kind": "fgn", "hurst": 0.7}'], 2 ** 12),
    (["expected", "--model", '{"kind": "fbm", "hurst": 1.3}', "-m", "3",
      "--scales", "5", "17", "4096"], 4095),
    (["bias", "--hurst", "0.7"], 2 ** 12),
    (["bias", "--hurst", "1.3", "-m", "1", "--scales", "3", "64", "900"],
     899),
], ids=["expected-fgn", "expected-fbm", "bias-fgn", "bias-fbm"])
def test_lag_function_evaluated_once_per_command(tmp_path, monkeypatch, argv,
                                                 s_max):
    calls = _count_lag_calls(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    assert calls == [s_max]


@pytest.mark.parametrize("kind,hurst,scales,lags", [
    ("fgn", "0.7", ["8", "100", "1000"], 5000),
    ("fbm", "1.3", ["5", "17", "4096"], 4999),
], ids=["fgn", "fbm"])
def test_bias_reads_the_curve_expected_made(tmp_path, monkeypatch, kind,
                                            hurst, scales, lags):
    """bias after expected on the same model, -m and --scales evaluates
    no lag; expected on another grid then evaluates the lags once."""
    calls = _count_lag_calls(monkeypatch)
    model = json.dumps({"kind": kind, "hurst": float(hurst)})
    out = ["--out", str(tmp_path / "out.csv")]
    assert main(["expected", "--model", model, "-m", "2", "--scales",
                 *scales, *out]) == 0
    del calls[:]
    assert main(["bias", "--hurst", hurst, "-m", "2", "--scales", *scales,
                 *out]) == 0
    assert calls == []
    assert main(["expected", "--model", model, "-m", "2", "--scales",
                 *scales, "5000", *out]) == 0
    assert calls == [lags]


def test_bias_reads_a_curve_of_equal_values_of_other_types(tmp_path,
                                                           monkeypatch):
    """A model spec with an int variance equals bias's reference model,
    so bias after expected evaluates no lag and writes the body a cold
    bias writes."""
    calls = _count_lag_calls(monkeypatch)
    grid = ["-m", "2", "--scales", "8", "100", "1000"]
    bias = ["bias", "--hurst", "0.7", *grid, "--out"]
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    assert main([*bias, str(cold)]) == 0
    cli._last_curve.cache_clear()
    assert main(["expected", "--model", '{"kind": "fgn", "hurst": 0.7, '
                 '"variance": 1}', *grid, "--out",
                 str(tmp_path / "e.csv")]) == 0
    del calls[:]
    assert main([*bias, str(warm)]) == 0
    assert calls == []
    assert (warm.read_text().splitlines()[1:]
            == cold.read_text().splitlines()[1:])


@pytest.mark.parametrize("argv", [
    ["weights", "-m", "9", "-s", "20"],
    ["expected", "--model", '{"kind": "fgn", "hurst": 0.7}', "-m", "9"],
    ["bias", "-m", "9", "--hurst", "0.7"],
], ids=["weights", "expected", "bias"])
def test_order_above_float_cap_exit_4(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 4
    assert "order 9" in capsys.readouterr().err
    assert not out.exists()


class TestBias:
    def test_k2_column(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["bias", "--hurst", "0.5", "-m", "1", "--scales", "10",
                   "--out", str(out)])
        assert rc == 0
        row = read_curve_csv(out.with_name("b.csv"))
        # second comment line carries lambda; DictReader sees it as a row
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert lines[1].startswith("# lambda:")
        assert float(lines[1].split(":")[1]) == pytest.approx(1 / 15)
        data = lines[3].split(",")
        assert int(data[0]) == 10
        assert float(data[1]) == pytest.approx(0.96, rel=1e-9)

    def test_domain_error_exit(self, tmp_path):
        rc = main(["bias", "--hurst", "1.0", "--out",
                   str(tmp_path / "b.csv")])
        assert rc == 4

    def test_scale_below_minimum_exit(self, tmp_path):
        rc = main(["bias", "--hurst", "0.7", "-m", "2", "--scales", "3", "8",
                   "--out", str(tmp_path / "b.csv")])
        assert rc == 4

    def test_lambda_computed_once(self, tmp_path, monkeypatch):
        calls = []
        lam = expectation.asymptotic_lambda

        def counted(m, hurst):
            calls.append((m, hurst))
            return lam(m, hurst)

        monkeypatch.setattr(cli, "asymptotic_lambda", counted)
        monkeypatch.setattr(expectation, "asymptotic_lambda", counted)
        rc = main(["bias", "--hurst", "0.7", "-m", "2",
                   "--out", str(tmp_path / "b.csv")])
        assert rc == 0
        assert calls == [(2, 0.7)]

    @pytest.mark.parametrize("kind,hurst", [("white", 0.5), ("fgn", 0.3),
                                            ("fbm", 1.6)])
    @pytest.mark.parametrize("m", [1, 3])
    def test_k2_equals_expected(self, tmp_path, kind, hurst, m):
        scales = ["5", "17", "64", "300", "4096"]
        e_out, b_out = tmp_path / "e.csv", tmp_path / "b.csv"
        model = {"kind": kind} if kind == "white" else {"kind": kind,
                                                        "hurst": hurst}
        assert main(["expected", "--model", json.dumps(model), "--hurst",
                     repr(hurst), "-m", str(m), "--scales", *scales,
                     "--out", str(e_out)]) == 0
        assert main(["bias", "--hurst", repr(hurst), "-m", str(m),
                     "--scales", *scales, "--out", str(b_out)]) == 0
        want = [r["K2"] for r in read_curve_csv(e_out)]
        with open(b_out) as fh:
            rows = list(csv.reader(fh))[3:]
        assert [r[1] for r in rows] == want


class TestWeights:
    def test_table(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(["weights", "-m", "1", "-s", "10", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            assert fh.readline().startswith("# config:")
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert float(rows[0]["G"]) == pytest.approx(6.4, rel=1e-12)
        assert float(rows[1]["G"]) == pytest.approx(2.4, rel=1e-12)

    def test_asymptotic_json(self, tmp_path):
        out = tmp_path / "d.json"
        rc = main(["weights", "-m", "1", "--asymptotic", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["d"] == ["1/15", "-1/2", "1", "-2/3", "0", "1/10"]
        assert payload["inverse_gram"] == [["4", "-6"], ["-6", "12"]]

    def test_asymptotic_order_0_exit_4(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        rc = main(["weights", "-m", "0", "--asymptotic", "--out", str(out)])
        assert rc == 4
        assert "order >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_needs_scale(self, tmp_path):
        rc = main(["weights", "-m", "1", "--out", str(tmp_path / "w.csv")])
        assert rc == 4

    def test_order_3_table(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(["weights", "-m", "3", "--scale", "6", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            fh.readline()
            g = [float(r["G"]) for r in csv.DictReader(fh)]
        want = np.array([40, -23, -2, 7, -2, 0]) / 63
        assert np.abs(np.array(g) - want).max() <= 2e-15 * np.abs(want).max()
        assert g[5] == 0.0


class TestSimulate:
    def test_round_trip_deterministic(self, tmp_path):
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--model", '{"kind": "fgn", "hurst": 0.7}',
                "-n", "256", "--seed", "11", "--out", str(out)]
        assert main(argv) == 0
        with open(out) as fh:
            fh.readline()
            vals = [float(line.strip()) for line in fh]
        assert np.array_equal(np.array(vals),
                              sample(FGNModel(0.7, 1.0), 256, 11))

    @pytest.mark.parametrize("command", ["simulate", "mc"])
    @pytest.mark.parametrize("seed", [2 ** 64, -3])
    def test_seed_outside_key_range_exit_4(self, tmp_path, capsys, command,
                                           seed):
        out = tmp_path / "out.csv"
        argv = [command, "--model", '{"kind": "white"}', "-n", "64",
                "--seed", str(seed), "--gap-fraction", "0.2",
                "--out", str(out)]
        if command == "mc":
            argv += ["--ensemble", "2", "--scales", "8"]
        assert main(argv) == 4
        assert f"0..2^64 - 1, got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_near_2_64_is_not_seed_0(self, tmp_path):
        series = []
        for seed in (0, 2 ** 64 - 1):
            out = tmp_path / f"{seed}.csv"
            assert main(["simulate", "--model", '{"kind": "white"}',
                         "-n", "64", "--seed", str(seed), "--gap-fraction",
                         "0.2", "--out", str(out)]) == 0
            series.append(out.read_text().splitlines()[1:])
        assert series[0] != series[1]

    def test_ou_round_trip(self, tmp_path):
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--model", '{"kind": "ou", "tau_c": 20}',
                "-n", "256", "--seed", "11", "--replicate", "2",
                "--out", str(out)]
        assert main(argv) == 0
        with open(out) as fh:
            fh.readline()
            vals = [float(line.strip()) for line in fh]
        assert np.array_equal(np.array(vals), sample(OU(20.0), 256, 11, 2))

    def test_gapped_output_has_na(self, tmp_path):
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--model", '{"kind": "white"}', "-n", "500",
                "--seed", "1", "--gap-fraction", "0.3", "--out", str(out)]
        assert main(argv) == 0
        with open(out) as fh:
            fh.readline()
            lines = [line.strip() for line in fh]
        assert "NA" in lines
        assert len(lines) == 500

    @pytest.mark.parametrize("cell", ["0.5", "NA", "2"])
    def test_mask_must_hold_0_and_1(self, tmp_path, cell):
        mask = tmp_path / "mask.csv"
        mask.write_text("1\n" * 10 + cell + "\n" + "0\n" * 9)
        rc = main(["simulate", "--model", '{"kind": "white"}', "-n", "20",
                   "--mask", str(mask), "--out", str(tmp_path / "s.csv")])
        assert rc == 4

    def test_mask_length_must_match(self, tmp_path):
        mask = tmp_path / "mask.csv"
        mask.write_text("1\n" * 19)
        rc = main(["simulate", "--model", '{"kind": "white"}', "-n", "20",
                   "--mask", str(mask), "--out", str(tmp_path / "s.csv")])
        assert rc == 4

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_mask_excludes_gap_fraction(self, tmp_path, capsys, source):
        mask = tmp_path / "mask.csv"
        mask.write_text("0\n" * 50 + "1\n" * 650)
        out = tmp_path / "s.csv"
        argv = ["simulate", "--model", '{"kind": "white"}', "-n", "700",
                "--mask", str(mask), "--out", str(out)]
        rc = main(_with_gap_fraction(argv, 0.5, source, tmp_path))
        assert rc == 4
        assert "exclude each other" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_zero_gap_fraction_exit_4(self, tmp_path, capsys, source):
        # 0 is a fraction outside (0, 1), not "no mask"
        out = tmp_path / "s.csv"
        argv = ["simulate", "--model", '{"kind": "white"}', "-n", "200",
                "--out", str(out)]
        rc = main(_with_gap_fraction(argv, 0, source, tmp_path))
        assert rc == 4
        assert "(0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_spectrum_exit_4(self, tmp_path, capsys):
        # past the Cholesky cap this was refused as a negative embedding
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--model",
                   '{"kind": "fgn", "hurst": 0.7, "variance": 1e308}',
                   "-n", "9000", "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "not finite" in err and "embedding" not in err
        assert not out.exists()

    def test_simulate_then_analyze(self, tmp_path):
        sim = tmp_path / "sim.csv"
        main(["simulate", "--model", '{"kind": "fgn", "hurst": 0.7}',
              "-n", "1024", "--seed", "3", "--out", str(sim)])
        out = tmp_path / "curve.csv"
        rc = main(["analyze", "-i", str(sim), "-m", "2",
                   "--out", str(out), "--hurst-out", str(tmp_path / "h.json")])
        assert rc == 0
        fit = json.loads((tmp_path / "h.json").read_text())
        assert fit["hurst"] == pytest.approx(0.7, abs=0.25)


class TestMc:
    def test_single_replicate_matches_direct_run(self, tmp_path):
        out = tmp_path / "mc.csv"
        hout = tmp_path / "mc.json"
        rc = main(["mc", "--model", '{"kind": "fgn", "hurst": 0.7}',
                   "-n", "512", "--ensemble", "1", "--seed", "8",
                   "-m", "2", "--scales", "8", "16", "32",
                   "--out", str(out), "--hurst-out", str(hout)])
        assert rc == 0
        x = sample(FGNModel(0.7, 1.0), 512, seed=8, replicate=0)
        ref = dfa(x, 2, [8, 16, 32])
        with open(out) as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        std = [r for r in rows if r["estimator"] == "standard"]
        got = np.array([float(r["mean_F2"]) for r in std])
        assert np.allclose(got, ref.f2, rtol=1e-12)

    @pytest.mark.parametrize("spec, model", [
        ('{"kind": "ou", "tau_c": 5, "gamma0": 2}', OU(5.0, 2.0)),
        ('{"kind": "table", "acvf": [1.25, 0.5, 0, 0, 0, 0, 0, 0, 0, 0, '
         '0, 0, 0, 0, 0, 0, 0]}', AcvfTable((1.25, 0.5) + (0.0,) * 15)),
    ], ids=["ou", "table"])
    def test_acvf_models_match_library(self, tmp_path, spec, model):
        out = tmp_path / "mc.csv"
        rc = main(["mc", "--model", spec, "-n", "16", "--ensemble", "2",
                   "--seed", "3", "-m", "1", "--scales", "4", "8",
                   "--out", str(out),
                   "--hurst-out", str(out.with_suffix(".json"))])
        assert rc == 0
        ref = [dfa(sample(model, 16, 3, r), 1, [4, 8]).f2 for r in range(2)]
        got = [float(r["mean_F2"]) for r in read_curve_csv(out)]
        np.testing.assert_allclose(got, np.mean(ref, axis=0), rtol=1e-12)

    def test_gapped_ensemble_has_all_estimators(self, tmp_path):
        out = tmp_path / "mc.csv"
        rc = main(["mc", "--model", '{"kind": "white"}', "-n", "400",
                   "--ensemble", "3", "--seed", "8", "-m", "2",
                   "--scales", "8", "16", "--gap-fraction", "0.2",
                   "--out", str(out),
                   "--hurst-out", str(out.with_suffix(".json"))])
        assert rc == 0
        with open(out) as fh:
            fh.readline()
            tags = {r["estimator"] for r in csv.DictReader(fh)}
        assert tags == {"standard", "f_hat", "f_tilde"}


    @pytest.mark.parametrize("cell", ["0.5", "NA"])
    def test_mask_must_hold_0_and_1(self, tmp_path, cell):
        mask = tmp_path / "mask.csv"
        mask.write_text("1\n" * 100 + cell + "\n" + "0\n" * 99)
        out = tmp_path / "mc.csv"
        rc = main(["mc", "--model", '{"kind": "white"}', "-n", "200",
                   "--ensemble", "2", "--scales", "8", "16",
                   "--mask", str(mask), "--out", str(out),
                   "--hurst-out", str(out.with_suffix(".json"))])
        assert rc == 4

    def test_mask_file_matches_library(self, tmp_path):
        mask = block_gap_mask(300, 0.2, 10.0, seed=5)
        path = tmp_path / "mask.csv"
        path.write_text("".join(f"{int(v)}\n" for v in mask))
        out = tmp_path / "mc.csv"
        rc = main(["mc", "--model", '{"kind": "white"}', "-n", "300",
                   "--ensemble", "1", "--seed", "4", "-m", "1",
                   "--scales", "6", "20", "--mask", str(path),
                   "--out", str(out),
                   "--hurst-out", str(out.with_suffix(".json"))])
        assert rc == 0
        gs = GappedSeries(sample(WhiteNoise(1.0), 300, 4, 0), mask)
        ref = f_hat(gs, 1, [6, 20])
        rows = [r for r in read_curve_csv(out) if r["estimator"] == "f_hat"]
        got = np.array([float(r["mean_F2"]) for r in rows])
        np.testing.assert_allclose(got, ref.f2, rtol=1e-12)

    def test_undefined_scale_writes_empty_row(self, tmp_path):
        # every retained window at s = 50 is missing; the tail is present
        mask = tmp_path / "mask.csv"
        mask.write_text("0\n" * 100 + "1\n" * 10)
        out = tmp_path / "mc.csv"
        rc = main(["mc", "--model", '{"kind": "white"}', "-n", "110",
                   "--ensemble", "3", "-m", "1", "--scales", "8", "50",
                   "--mask", str(mask), "--out", str(out),
                   "--hurst-out", str(out.with_suffix(".json"))])
        assert rc == 0
        rows = {(r["estimator"], r["scale"]): r for r in read_curve_csv(out)}
        for tag in ("f_hat", "f_tilde"):
            row = rows[(tag, "50")]
            assert [row[k] for k in ("mean_F2", "q05_F2", "q95_F2",
                                     "n_defined")] == ["", "", "", "0"]
        assert rows[("standard", "50")]["n_defined"] == "3"

    @pytest.mark.parametrize("fit_range", [None, (8, 50)])
    def test_hurst_matches_per_curve_fit(self, tmp_path, fit_range):
        # the mask above: f_hat is negative at some scales of some
        # replicates, so the replicates select different scales, and no
        # pair is present at s = 50
        n, reps, m, scales = 110, 20, 1, [3, 4, 5, 6, 7, 8, 9, 10, 50]
        mask = tmp_path / "mask.csv"
        mask.write_text("0\n" * 100 + "1\n" * 10)
        hout = tmp_path / "mc.json"
        argv = ["mc", "--model", '{"kind": "white"}', "-n", str(n),
                "--ensemble", str(reps), "-m", str(m),
                "--scales", *map(str, scales), "--mask", str(mask),
                "--out", str(tmp_path / "mc.csv"), "--hurst-out", str(hout)]
        if fit_range:
            argv += ["--fit-range", *map(str, fit_range)]
        assert main(argv) == 0
        with open(hout) as fh:
            got = json.load(fh)
        got = {tag: [np.nan if h is None else h for h in row]
               for tag, row in got.items()}
        curves = ensemble(sample_stack(WhiteNoise(), n, 0, range(reps)),
                          np.r_[np.zeros(100, bool), np.ones(10, bool)],
                          m, scales)
        args = argparse.Namespace(fit_range=fit_range)
        unfitted = 0
        for tag, curve in curves.items():
            want = []
            for f2 in curve.f2:
                c = dataclasses.replace(curve, f2=f2)
                try:
                    want.append(estimate_hurst(
                        c, cli._fit_range(args, c.scales, c.defined)).hurst)
                except TooFewPointsError:
                    want.append(np.nan)
                    unfitted += 1
            # NaN where want is NaN, and only there
            np.testing.assert_allclose(got[tag], want, rtol=1e-12, atol=0)
        # in [8, 50] some replicates of f_hat have too few scales to fit
        assert 0 < unfitted < 3 * reps if fit_range else unfitted == 0

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_mask_excludes_gap_fraction(self, tmp_path, capsys, source):
        mask = tmp_path / "mask.csv"
        mask.write_text("0\n" * 10 + "1\n" * 90)
        out, hout = tmp_path / "mc.csv", tmp_path / "mc.json"
        argv = ["mc", "--model", '{"kind": "white"}', "-n", "100",
                "--ensemble", "2", "--scales", "8", "--mask", str(mask),
                "--out", str(out), "--hurst-out", str(hout)]
        rc = main(_with_gap_fraction(argv, 0.2, source, tmp_path))
        assert rc == 4
        assert "exclude each other" in capsys.readouterr().err
        assert not out.exists() and not hout.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_zero_gap_fraction_exit_4(self, tmp_path, capsys, source):
        out, hout = tmp_path / "mc.csv", tmp_path / "mc.json"
        argv = ["mc", "--model", '{"kind": "white"}', "-n", "200",
                "--ensemble", "2", "--out", str(out), "--hurst-out",
                str(hout)]
        rc = main(_with_gap_fraction(argv, 0, source, tmp_path))
        assert rc == 4
        assert "(0, 1)" in capsys.readouterr().err
        assert not out.exists() and not hout.exists()

    def test_unfitted_replicate_is_null(self, tmp_path):
        # the mask of test_hurst_matches_per_curve_fit, whose [8, 50]
        # fit range leaves some f_hat replicates unfitted
        mask = tmp_path / "mask.csv"
        mask.write_text("0\n" * 100 + "1\n" * 10)
        hout = tmp_path / "mc.json"
        rc = main(["mc", "--model", '{"kind": "white"}', "-n", "110",
                   "--ensemble", "20", "-m", "1",
                   "--scales", "3", "4", "5", "6", "7", "8", "9", "10", "50",
                   "--fit-range", "8", "50", "--mask", str(mask),
                   "--out", str(tmp_path / "mc.csv"),
                   "--hurst-out", str(hout)])
        assert rc == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        got = json.loads(hout.read_text(), parse_constant=reject)
        assert None in got["f_hat"]
        assert all(isinstance(h, float) for h in got["standard"])

    def test_reversed_fit_range_exit_4(self, tmp_path, capsys):
        out, hout = tmp_path / "mc.csv", tmp_path / "mc.json"
        rc = main(["mc", "--model", '{"kind": "white"}', "-n", "200",
                   "--ensemble", "2", "--fit-range", "10", "5",
                   "--out", str(out), "--hurst-out", str(hout)])
        assert rc == 4
        assert "SMIN > SMAX" in capsys.readouterr().err
        assert not out.exists() and not hout.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_reversed_fit_range_refused_before_sampling(
            self, tmp_path, capsys, monkeypatch, source):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sample_stack called")

        monkeypatch.setattr(cli, "sample_stack", no_sampling)
        argv = ["mc", "--model", '{"kind": "white"}', "--ensemble", "500",
                "--gap-fraction", "0.2", "--out", str(tmp_path / "mc.csv"),
                "--hurst-out", str(tmp_path / "mc.json")]
        if source == "flag":
            argv += ["--fit-range", "10", "5"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"fit_range": [10, 5]}))
            argv = ["--config", str(cfg), *argv]
        assert main(argv) == 4
        assert "SMIN > SMAX" in capsys.readouterr().err

    def test_failed_second_write_leaves_no_output(self, tmp_path):
        out = tmp_path / "mc.csv"
        rc = main(["mc", "--model", '{"kind": "white"}', "-n", "200",
                   "--ensemble", "2", "--out", str(out),
                   "--hurst-out", str(tmp_path / "missing" / "h.json")])
        assert rc == 3
        assert not out.exists()

    def test_failed_run_keeps_a_file_it_did_not_create(self, tmp_path):
        out = tmp_path / "mc.csv"
        out.write_text("kept\n")
        rc = main(["mc", "--model", '{"kind": "white"}', "-n", "200",
                   "--ensemble", "2", "--out", str(out),
                   "--hurst-out", str(tmp_path / "missing" / "h.json")])
        assert rc == 3
        assert out.exists()

    def test_out_of_memory_exit_4(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 TiB")

        monkeypatch.setattr(cli, "sample_stack", no_memory)
        out, hout = tmp_path / "mc.csv", tmp_path / "mc.json"
        rc = main(["mc", "--model", '{"kind": "white"}', "-n", "200",
                   "--ensemble", "2", "--out", str(out),
                   "--hurst-out", str(hout)])
        assert rc == 4
        assert "Unable to allocate" in capsys.readouterr().err
        assert not out.exists() and not hout.exists()

    def test_empty_ensemble_exit_4(self, tmp_path, capsys):
        out, hout = tmp_path / "mc.csv", tmp_path / "mc.json"
        rc = main(["mc", "--model", '{"kind": "white"}', "-n", "64",
                   "--ensemble", "0", "--scales", "8", "16",
                   "--out", str(out), "--hurst-out", str(hout)])
        assert rc == 4
        assert "R >= 1" in capsys.readouterr().err
        assert not out.exists() and not hout.exists()

    def test_negative_ensemble_exit_4(self, tmp_path, capsys):
        # the count is checked before numpy sees it as an array shape
        out, hout = tmp_path / "mc.csv", tmp_path / "mc.json"
        rc = main(["mc", "--model", '{"kind": "white"}', "-n", "64",
                   "--ensemble", "-1", "--scales", "8", "16",
                   "--out", str(out), "--hurst-out", str(hout)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "--ensemble needs R >= 1" in err and "got -1" in err
        assert not out.exists() and not hout.exists()

    def test_summary_matches_numpy(self):
        rng = np.random.default_rng(6)
        f2 = rng.gamma(2.0, size=(37, 5))
        f2[rng.random(f2.shape) < 0.3] = np.nan
        f2[:, 3] = np.nan
        count, mean, q05, q95 = _summary(f2)
        for i in range(5):
            col = f2[~np.isnan(f2[:, i]), i]
            assert count[i] == col.size
            if col.size:
                np.testing.assert_allclose(
                    [mean[i], q05[i], q95[i]],
                    [np.mean(col), np.quantile(col, 0.05),
                     np.quantile(col, 0.95)], rtol=1e-12)
        assert count[3] == 0


def _model_argv(command, spec, tmp_path):
    out = str(tmp_path / "o.csv")
    tail = {"expected": ["--scales", "8"],
            "simulate": ["-n", "64"],
            "mc": ["-n", "64", "--ensemble", "2", "--scales", "8",
                   "--hurst-out", str(tmp_path / "h.json")]}[command]
    return [command, "--model", spec, "--out", out] + tail


class TestModelSpec:
    @pytest.mark.parametrize("command", ["expected", "simulate", "mc"])
    @pytest.mark.parametrize("spec", [
        '[0.7]', '"fgn"', '{"hurst": 0.7}', '{"kind": "levy"}',
        '{"kind": "fgn"}', '{"kind": "fgn", "hurst": 0.7, "foo": 1}',
        '{"kind": "fgn", "hurst": "high"}',
        '{"kind": "table", "acvf": 1}',
        '{"kind": "ar1", "phi": false}', '{"kind": "ou", "tau_c": true}',
        # long enough for every command, so only the boolean is at fault
        json.dumps({"kind": "table", "acvf": [1.0] + [False] * 64}),
        "not json",
    ], ids=["array", "string", "no-kind", "unknown-kind", "missing-param",
            "unknown-param", "non-numeric-param", "table-not-list",
            "ar1-bool", "ou-bool", "table-bool", "not-json"])
    def test_bad_spec_exit_4(self, tmp_path, capsys, command, spec):
        assert main(_model_argv(command, spec, tmp_path)) == 4
        err = capsys.readouterr().err
        assert err.startswith("dfakit: ") and "Traceback" not in err

    # the model's own checks run before any draw: a zero variance must
    # not give all-zero samples, nor a negative one a failed factorisation
    @pytest.mark.parametrize("command", ["simulate", "mc"])
    @pytest.mark.parametrize("spec", [
        '{"kind": "fbm", "hurst": 1.3, "variance": 0}',
        '{"kind": "fgn", "hurst": 0.7, "variance": -1}'],
        ids=["fbm-zero-variance", "fgn-negative-variance"])
    def test_model_checked_before_sampling(self, tmp_path, capsys, command,
                                           spec):
        assert main(_model_argv(command, spec, tmp_path)) == 4
        assert capsys.readouterr().err == "dfakit: variance must be > 0\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["expected", "simulate", "mc"])
    @pytest.mark.parametrize("spec", [
        '{"kind": "fgn", "hurst": 0.7, "variance": Infinity}',
        '{"kind": "fgn", "hurst": 0.7, "variance": NaN}',
        '{"kind": "white", "gamma0": Infinity}',
        '{"kind": "ou", "tau_c": NaN}'],
        ids=["fgn-inf-variance", "fgn-nan-variance", "white-inf-gamma0",
             "ou-nan-tau_c"])
    def test_non_finite_parameter_exit_4(self, tmp_path, capsys, command,
                                         spec):
        assert main(_model_argv(command, spec, tmp_path)) == 4
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    # finite parameters whose E F^2 or draws overflow: the CLI names the
    # cause, not a later symptom, and writes no inf
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, tail, cause", [
        ("expected", ["-m", "1", "--scales", "4", "8"],
         "E F^2 at scale 8 is not finite"),
        ("simulate", ["-n", "5"], "the samples are not finite"),
        ("mc", ["-n", "5", "--ensemble", "2", "-m", "1", "--scales", "3",
                "4", "5"], "the samples are not finite")],
        ids=["expected", "simulate", "mc"])
    def test_overflow_exit_4(self, tmp_path, capsys, command, tail, cause):
        out = tmp_path / "o.csv"
        spec = '{"kind": "fgn", "hurst": 0.7, "variance": 1e308}'
        assert main([command, "--model", spec, "--out", str(out),
                     *tail]) == 4
        assert cause in capsys.readouterr().err
        assert not out.exists()

    def test_subnormal_expected_exit_4(self, tmp_path, capsys):
        # E F^2 = 1.49e-321 at s = 4 was written as if exact
        out = tmp_path / "o.csv"
        spec = '{"kind": "fgn", "hurst": 0.7, "variance": 1e-320}'
        assert main(["expected", "--model", spec, "-m", "1", "--scales",
                     "4", "8", "--hurst", "0.7", "--out", str(out)]) == 4
        assert "E F^2 at scale 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "mc"])
    def test_variogram_table_cannot_be_sampled(self, tmp_path, command):
        spec = '{"kind": "table", "variogram": [0, 1, 2]}'
        assert main(_model_argv(command, spec, tmp_path)) == 4

    def test_negative_variogram_table_exit_4(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        spec = '{"kind": "table", "variogram": [0,-1,-2,-3,-4,-5,-6,-7]}'
        assert main(["expected", "--model", spec, "-m", "1", "--scales",
                     "4", "8", "--out", str(out)]) == 4
        assert "must not be negative" in capsys.readouterr().err
        assert not out.exists()


class TestErrorsAndConfig:
    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])  # missing --input
        assert exc.value.code == 2

    def test_io_error_exit_3(self, tmp_path):
        rc = main(["analyze", "-i", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path / "o.csv"),
                   "--hurst-out", str(tmp_path / "h.json")])
        assert rc == 3

    def test_numeric_error_exit_4(self, tmp_path):
        inp = tmp_path / "x.csv"
        write_series(inp, np.arange(20.0))
        rc = main(["analyze", "-i", str(inp), "--scales", "4096",
                   "--out", str(tmp_path / "o.csv"),
                   "--hurst-out", str(tmp_path / "h.json")])
        assert rc == 4

    @pytest.mark.parametrize("argv,scale", [
        (["expected", "--model", '{"kind": "white"}', "--scales", "8",
          "9223372036854775807"], "9223372036854775807"),
        (["bias", "--hurst", "0.7", "--scales", "8", "9223372036854775807"],
         "9223372036854775807"),
        (["expected", "--model", '{"kind": "white"}', "--scales",
          "9223372036854775808"], "9223372036854775808"),
        (["weights", "-s", "9223372036854775808"], "9223372036854775808"),
    ], ids=["expected-2^63-1", "bias-2^63-1", "expected-2^63", "weights-2^63"])
    def test_scale_beyond_2_53_exit_4(self, tmp_path, argv, scale):
        """A scale past 2^53 is refused and named as given, before any
        output is opened; numpy once made 2^63 - 1 an empty lag array and
        read 2^63 as a negative scale."""
        proc = _run_module([*argv, "-m", "2", "--out", "o.csv"], tmp_path)
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"scale {scale} is not an integer" in proc.stderr
        assert not (tmp_path / "o.csv").exists()

    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hurst": 0.5, "order": 1,
                                   "scales": [10]}))
        out = tmp_path / "b.csv"
        rc = main(["--config", str(cfg), "bias", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert float(lines[3].split(",")[1]) == pytest.approx(0.96, rel=1e-9)

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hurst": 0.9}))
        out = tmp_path / "b.csv"
        rc = main(["--config", str(cfg), "bias", "--hurst", "0.5",
                   "-m", "1", "--scales", "10", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert float(lines[3].split(",")[1]) == pytest.approx(0.96, rel=1e-9)

    @pytest.mark.parametrize("flag", [["-m", "2"], ["--order=2"]])
    def test_short_and_inline_flags_beat_config(self, tmp_path, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"order": 1}))
        with_cfg, without = tmp_path / "a.csv", tmp_path / "b.csv"
        rc = main(["--config", str(cfg), "bias", "--hurst", "0.7", *flag,
                   "--scales", "10", "--out", str(with_cfg)])
        assert rc == 0
        rc = main(["bias", "--hurst", "0.7", "-m", "2", "--scales", "10",
                   "--out", str(without)])
        assert rc == 0
        assert (with_cfg.read_text().splitlines()[1:]
                == without.read_text().splitlines()[1:])

    def test_config_does_not_outlive_its_call(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hurst": 0.7}))
        rc = main(["--config", str(cfg), "bias", "--scales", "10",
                   "--out", str(tmp_path / "a.csv")])
        assert rc == 0
        rc = main(["bias", "--scales", "10", "--out", str(tmp_path / "b.csv")])
        assert rc == 2
        assert "--hurst is required" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        rc = main(["--config", str(cfg), "bias", "--hurst", "0.5",
                   "--out", str(tmp_path / "b.csv")])
        assert rc == 4

    @pytest.mark.parametrize("argv, cfg, word", [
        (["bias", "--hurst", "0.7"], {"order": 2.5}, "order"),
        (["mc", "--model", '{"kind": "white"}', "-n", "64",
          "--ensemble", "2", "--hurst-out", "h.json"], {"order": 2.5},
         "order"),
        (["bias", "--hurst", "0.7"], {"order": None}, "order"),
        (["bias", "--hurst", "0.7"], {"scales": 16}, "scales"),
        (["bias", "--hurst", "0.7"], 5, "object"),
        (["weights", "-s", "8"], {"asymptotic": "yes"}, "asymptotic"),
        (["weights", "-s", "8"], {"scales": [8]}, "scales"),
        (["analyze", "-i", "no-such-input.csv", "--hurst-out", "h.json"],
         {"estimator": "bogus"}, "estimator"),
    ], ids=["bias-float-order", "mc-float-order", "null-order",
            "scalar-scales", "not-an-object", "string-bool", "weights-scales",
            "no-choice"])
    def test_config_value_must_fit_its_flag(self, tmp_path, capsys, argv,
                                            cfg, word):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o.csv"
        rc = main(["--config", str(path), *argv, "--out", str(out)])
        assert rc == 4
        assert word in capsys.readouterr().err
        assert not out.exists()


FGN = '{"kind": "fgn", "hurst": 0.7}'

#: per subcommand, argvs that between them should read every flag;
#: {x} is a gap-free series of 200 points, {mask} a 0/1 mask of 200
READ_ARGVS = {
    "analyze": [["analyze", "-i", "{x}", "-m", "1", "--estimator", "f_hat",
                 "--scales", "8", "16", "32", "--fit-range", "8", "32",
                 "--out", "{o}", "--hurst-out", "{h}"]],
    "expected": [["expected", "--model", FGN, "--hurst", "0.7", "-m", "1",
                  "--scales", "8", "16", "--out", "{o}"]],
    "bias": [["bias", "--hurst", "0.7", "-m", "1", "--scales", "8", "16",
              "--out", "{o}"]],
    "weights": [["weights", "-m", "1", "-s", "8", "--out", "{o}"],
                ["weights", "-m", "1", "--asymptotic", "--out", "{o}"]],
    "simulate": [["simulate", "--model", FGN, "-n", "200", "--seed", "1",
                  "--replicate", "2", "--gap-fraction", "0.2",
                  "--block-length", "4", "--out", "{o}"],
                 ["simulate", "--model", FGN, "-n", "200", "--mask", "{mask}",
                  "--out", "{o}"]],
    "mc": [["mc", "--model", FGN, "-n", "200", "--ensemble", "2", "--seed",
            "1", "-m", "1", "--scales", "8", "16", "--fit-range", "8", "16",
            "--gap-fraction", "0.2", "--block-length", "4", "--out", "{o}",
            "--hurst-out", "{h}"],
           ["mc", "--model", FGN, "-n", "200", "--ensemble", "2",
            "--mask", "{mask}", "--out", "{o}", "--hurst-out", "{h}"]],
}


def _run_module(argv, cwd):
    """``python -m dfakit`` on the package found by this test's import, not
    any other copy, whatever directory pytest was started from."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(dfakit.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "dfakit", *argv], cwd=cwd,
                          capture_output=True, text=True, env=env)


def test_mc_and_analyze_leave_numpy_ma_unloaded(tmp_path):
    """np.unique imports numpy.ma on its first call (tens of ms of CPU);
    the Hurst fit and the default grid do without it, so a fresh
    interpreter that runs mc (default grid, gapped) and a gapped analyze
    never loads it."""
    x = sample(FGNModel(0.7, 1.0), 400, seed=5)
    write_series(tmp_path / "x.csv", x, block_gap_mask(400, 0.2, 6.0, seed=6))
    script = f"""
import sys
from dfakit.cli import main
d = {str(tmp_path)!r}
assert main(["mc", "--model", '{{"kind": "fgn", "hurst": 0.7}}',
             "-n", "300", "--ensemble", "3", "--gap-fraction", "0.2",
             "--out", d + "/mc.csv", "--hurst-out", d + "/mc.json"]) == 0
assert main(["analyze", "-i", d + "/x.csv", "--estimator", "f_hat",
             "--out", d + "/a.csv", "--hurst-out", d + "/a.json"]) == 0
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ,
               PYTHONPATH=str(Path(dfakit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"


def test_expected_and_bias_leave_hashlib_unloaded(tmp_path):
    """The E F^2 memo keys scalar models by their fields, so a fresh
    interpreter that runs expected and bias never loads hashlib."""
    script = f"""
import sys
from dfakit.cli import main
d = {str(tmp_path)!r}
assert main(["expected", "--model", '{{"kind": "fgn", "hurst": 0.7}}',
             "--out", d + "/e.csv"]) == 0
assert main(["bias", "--hurst", "1.3", "-m", "2", "--out", d + "/b.csv"]) == 0
print("hashlib" in sys.modules or "_hashlib" in sys.modules)
"""
    env = dict(os.environ,
               PYTHONPATH=str(Path(dfakit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"


class TestOutputs:
    @pytest.mark.parametrize("argv, header, key", [
        (["analyze", "-i", "x.csv"], "scale,F,F_squared,n_windows,defined",
         "hurst"),
        (["mc", "--model", FGN, "-n", "200", "--ensemble", "2",
          "--gap-fraction", "0.2"],
         "estimator,scale,mean_F2,q05_F2,q95_F2,n_defined", "f_hat"),
    ], ids=["analyze", "mc"])
    def test_both_outputs_to_stdout(self, tmp_path, argv, header, key):
        write_series(tmp_path / "x.csv",
                     sample(FGNModel(0.7, 1.0), 300, seed=2))
        proc = _run_module(argv, tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("# config:") and lines[1] == header
        assert key in json.loads("\n".join(lines[lines.index("{"):]))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=8),
           st.integers(-2**63, 2**63 - 1))
    def test_cells(self, values, k):
        """A float cell, numpy's float64 too, is written as its repr, None
        as an empty cell and an int as its digits."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write_csv(None, argparse.Namespace(), ["a", "b", "c", "d"],
                           [(np.float64(v), v, None, k) for v in values])
        assert out.getvalue().splitlines() == [
            "# config: {}", "a,b,c,d",
            *(f"{float(v)!r},{float(v)!r},,{k}" for v in values)]

    def test_stdout_left_open(self, monkeypatch):
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["weights", "-m", "1", "-s", "4"]) == 0
        assert not out.closed
        assert out.getvalue().startswith("# config:")

    @pytest.mark.parametrize("command", sorted(READ_ARGVS))
    def test_every_flag_is_read(self, tmp_path, command):
        """Every option of a subcommand changes what it does, so none is
        echoed into the config line without being read."""
        write_series(tmp_path / "x.csv",
                     sample(FGNModel(0.7, 1.0), 200, seed=2))
        (tmp_path / "mask.csv").write_text("1\n" * 180 + "0\n" * 20)
        paths = {f"{{{k}}}": str(tmp_path / f) for k, f in (
            ("x", "x.csv"), ("mask", "mask.csv"), ("o", "o.out"),
            ("h", "h.json"))}
        reads: set[str] = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        dests, read = set(), set()
        for argv in READ_ARGVS[command]:
            args = build_parser().parse_args(
                [paths.get(a, a) for a in argv], namespace=Recording())
            dests |= set(vars(args)) - {"func", "command", "config"}
            reads.clear()  # argparse's own reads do not count
            assert args.func(args) == 0
            read |= reads
        assert dests - read == set()

    def test_weights_takes_no_scales(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["weights", "-m", "1", "-s", "8", "--scales", "8",
                  "--out", str(tmp_path / "w.csv")])
        assert exc.value.code == 2


MODEL_SPECS = ['{"kind": "white"}', FGN, '{"kind": "fgn", "hurst": 0.2}',
               '{"kind": "fbm", "hurst": 1.3}', '{"kind": "ou", "tau_c": 5}',
               '{"kind": "ar1", "phi": 0.6}', '{"kind": "fgn", "hurst": 1.5}',
               '{"kind": "table", "acvf": [1.0, 0.3]}',
               '{"kind": "table", "variogram": [0.0, 1.0, 2.0]}',
               '{"kind": "levy"}', "not json"]


def _mostly(good, *bad):
    """One of the good values three times in four, else one of the bad."""
    return st.one_of(*[st.sampled_from(good)] * 3, st.sampled_from(bad))


@st.composite
def cli_argvs(draw):
    """An argv of one of the six subcommands with small sizes, and the
    files it reads. Each flag takes a bad value now and then: a series
    may be scaled to 1e160 or be constant, a fit range reversed, a mask
    hold a 2, and an output path lie in a missing directory. Paths are
    relative to the run's directory."""
    command = draw(st.sampled_from(
        ["analyze", "expected", "bias", "weights", "simulate", "mc"]))
    argv, files = [command], {}

    def maybe(flag, strategy):
        if draw(st.booleans()):
            value = draw(strategy)
            argv.extend([flag, *map(str, value if isinstance(value, list)
                                    else [value])])

    def output(flag):
        path = draw(_mostly([None, f"{flag[2:]}.out"],
                            f"missing/{flag[2:]}.out"))
        if path:
            argv.extend([flag, path])

    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if command != "simulate":
        maybe("-m", _mostly([1, 2, 3], -1, 0, 4))
    if command not in ("simulate", "weights"):
        maybe("--scales", st.lists(st.integers(3, 80), min_size=1,
                                   max_size=4))
    if command in ("expected", "simulate", "mc"):
        argv.extend(["--model", draw(_mostly(MODEL_SPECS[:6],
                                             *MODEL_SPECS[6:]))])
    if command == "expected":
        maybe("--hurst", _mostly([0.3, 0.7, 1.4], 1.0, 2.5))
    if command == "bias":
        argv.extend(["--hurst", str(draw(_mostly([0.3, 0.7, 1.4],
                                                 1.0, 2.5)))])
    if command == "analyze":
        n = draw(_mostly(list(range(60, 301)), 3, 10))
        gaps = draw(_mostly([0.0], 0.3))
        x = rng.normal(size=n) * draw(_mostly([1.0], 1e160, 0.0))
        files["x.csv"] = "".join(f"{v!r}\n" if ok else "NA\n" for v, ok in
                                 zip(x.tolist(), rng.random(n) >= gaps))
        argv.extend(["-i", "x.csv"])
        maybe("--estimator", st.sampled_from(["standard", "f_hat",
                                              "f_tilde"]))
    if command == "weights":
        if draw(st.booleans()):
            argv.append("--asymptotic")
        else:
            maybe("-s", _mostly(list(range(4, 41)), -1, 0, 3))
    if command in ("simulate", "mc"):
        n = draw(_mostly(list(range(60, 301)), -1, 1, 8))
        argv.extend(["-n", str(n)])
        maybe("--seed", st.integers(0, 9))
        maybe("--block-length", _mostly([1.0, 12.0], 0.5))
        if draw(st.booleans()):
            argv.extend(["--gap-fraction", str(draw(_mostly([0.2, 0.6],
                                                            0.0, 1.0)))])
        elif draw(st.booleans()):
            cells = (rng.random(max(n, 1)) > 0.2).astype(int)
            cells[0] = draw(_mostly([1], 2))
            files["mask.csv"] = "".join(f"{c}\n" for c in cells)
            argv.extend(["--mask", "mask.csv"])
    if command == "simulate":
        maybe("--replicate", st.integers(0, 3))
    if command == "mc":
        maybe("--ensemble", _mostly([1, 2, 3], -1, 0))
    if command in ("analyze", "mc"):
        maybe("--fit-range", _mostly([[4, 16], [8, 50], [16, 100]],
                                     [10, 5], [1, 3]))
        output("--hurst-out")
    output("--out")
    return argv, files


@settings(max_examples=30, deadline=None)
@given(cli_argvs())
def test_any_argv_exits_cleanly(case):
    """Every argv ends in exit 0, 2, 3 or 4 with no traceback; a failed
    run leaves no --out or --hurst-out file, a run that succeeds all of
    them."""
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in files.items():
            (tmp / name).write_text(text)
        argv = [str(tmp / a) if a in files or a.endswith(".out") else a
                for a in argv]
        outputs = [Path(argv[i + 1]) for i, a in enumerate(argv)
                   if a in ("--out", "--hurst-out")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
        assert code in (0, 2, 3, 4), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert all(p.exists() == (code == 0) for p in outputs), (
            code, err.getvalue())


class TestConsoleScript:
    def test_version(self):
        proc = _run_module(["--version"], cwd=None)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == dfakit.__version__

    def test_entry_point_declared(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["version"] == dfakit.__version__
        target = project["scripts"]["dfakit"]
        assert target == "dfakit.cli:main"
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))

    @pytest.mark.skipif(shutil.which("dfakit") is None,
                        reason="dfakit console script not installed")
    def test_installed_script_version(self):
        proc = subprocess.run(["dfakit", "--version"], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == dfakit.__version__
