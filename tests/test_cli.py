"""Tests for the command-line interface."""

import csv
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dfakit
from dfakit.cli import main
from dfakit.estimators import GappedSeries, dfa, f_hat
from dfakit.generators import block_gap_mask, gen_fgn


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


class TestAnalyze:
    def test_matches_library(self, tmp_path):
        x = gen_fgn(0.7, 1.0, 600, seed=4)
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
        x = gen_fgn(0.7, 1.0, 400, seed=5)
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
        cells = [repr(float(v)) for v in gen_fgn(0.7, 1.0, 200, 7)]
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

    def test_na_handling_with_f_hat(self, tmp_path):
        x = gen_fgn(0.7, 1.0, 400, seed=5)
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

    def test_needs_scale(self, tmp_path):
        rc = main(["weights", "-m", "1", "--out", str(tmp_path / "w.csv")])
        assert rc == 4


class TestSimulate:
    def test_round_trip_deterministic(self, tmp_path):
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--model", '{"kind": "fgn", "hurst": 0.7}',
                "-n", "256", "--seed", "11", "--out", str(out)]
        assert main(argv) == 0
        with open(out) as fh:
            fh.readline()
            vals = [float(line.strip()) for line in fh]
        assert np.array_equal(np.array(vals), gen_fgn(0.7, 1.0, 256, 11))

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
        x = gen_fgn(0.7, 1.0, 512, seed=8, replicate=0)
        ref = dfa(x, 2, [8, 16, 32])
        with open(out) as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        std = [r for r in rows if r["estimator"] == "standard"]
        got = np.array([float(r["mean_F2"]) for r in std])
        assert np.allclose(got, ref.f2, rtol=1e-12)

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

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        rc = main(["--config", str(cfg), "bias", "--hurst", "0.5",
                   "--out", str(tmp_path / "b.csv")])
        assert rc == 4


class TestConsoleScript:
    def test_version(self):
        # Run the package found by this test's import, not any other copy,
        # whatever directory pytest was started from.
        env = dict(os.environ,
                   PYTHONPATH=str(Path(dfakit.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "dfakit", "--version"],
                              capture_output=True, text=True, env=env)
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
