"""Tests for the command-line surface."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qfp
from qfp.analysis import NoiseModel, worst_case_error_with_threshold
from qfp.cli import CSV_COLUMNS, main
from qfp.constellations import lattice_mu_range
from qfp.leakage import fannes_audenaert_bound


def _run(args, **kwargs):
    return CliRunner().invoke(main, args, catch_exceptions=False, **kwargs)


class TestCurves:
    def test_header_only_for_empty_grid(self):
        result = _run(["curves", "--preset", "fig2", "--n-points", "0"])
        assert result.exit_code == 0
        assert result.output.strip() == ",".join(CSV_COLUMNS)

    def test_byte_stable(self):
        a = _run(["curves", "--preset", "fig2", "--n-points", "2"])
        b = _run(["curves", "--preset", "fig2", "--n-points", "2"])
        assert a.output == b.output

    def test_fig2_series(self):
        result = _run(["curves", "--preset", "fig2", "--n-points", "1"])
        rows = [line.split(",") for line in result.output.strip().splitlines()]
        header, body = rows[0], rows[1:]
        assert header == CSV_COLUMNS
        ks = [int(r[header.index("k")]) for r in body]
        assert ks == [1, 2, 3, 4, 5, 6]
        models = [r[header.index("error_model")] for r in body]
        assert models == ["beamsplitter"] * 3 + ["optimal_lb"] * 3

    def test_requires_preset(self):
        result = CliRunner().invoke(main, ["curves"])
        assert result.exit_code != 0

    def test_out_file(self, tmp_path):
        path = tmp_path / "curves.csv"
        result = _run(["curves", "--preset", "fig3", "--n-points", "1",
                       "--out", str(path)])
        assert result.exit_code == 0
        assert path.read_text().startswith(",".join(CSV_COLUMNS))


class TestSolve:
    def test_ideal_k1_closed_form(self):
        result = _run(["solve", "--family", "ring", "--k", "1", "--n", "1000",
                       "--delta", "0.25", "--epsilon", "0.01"])
        report = json.loads(result.output)
        assert report["mu_launched"] == \
            __import__("pytest").approx(math.log(100.0) / 0.5, rel=1e-9)
        assert report["d_th"] == 1

    def test_interpolation_reports_repetitions(self):
        result = _run(["solve", "--family", "interpolation", "--k", "2",
                       "--n", "100", "--delta", "0.25"])
        report = json.loads(result.output)
        assert report["repetitions"] >= 1
        assert report["worst_case_error"] <= 0.01

    def test_lattice_bound_uses_lattice_mu_range(self):
        result = _run(["solve", "--family", "lattice", "--k", "3", "--n",
                       "100000", "--delta", "0.3", "--epsilon", "0.01"])
        report = json.loads(result.output)
        mu_min, mu_max = lattice_mu_range(3, report["m"], report["mu_launched"])
        assert mu_min < mu_max
        assert report["qil_typical_subspace_bits"] == fannes_audenaert_bound(
            100000, report["m_k"], mu_min, mu_max).bits

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "ring", "k": 1, "n": 1000,
                                   "delta": 0.1, "epsilon": 0.01}))
        result = _run(["solve", "--config", str(cfg), "--delta", "0.25"])
        report = json.loads(result.output)
        assert report["delta"] == 0.25


class TestSimulate:
    def test_deterministic_bytes(self):
        args = ["simulate", "--k", "1", "--m", "300", "--delta", "0.25",
                "--trials", "2000", "--seed", "11"]
        assert _run(args).output == _run(args).output

    def test_golden_values(self):
        # pins the block stream contract: 184 of 20000 trials err
        result = _run(["simulate", "--k", "2", "--m", "1000", "--delta",
                       "0.25", "--trials", "20000", "--seed", "7"])
        report = json.loads(result.output)
        assert report["d_th"] == 1
        assert report["empirical_error"] == 0.0092
        assert report["predicted_error"] == pytest.approx(0.010214337653619098,
                                                          rel=1e-12)

    def test_z_score_sane(self):
        result = _run(["simulate", "--k", "2", "--m", "400", "--delta",
                       "0.25", "--trials", "5000", "--seed", "2"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert abs(report["z_score"]) < 4.0

    @pytest.mark.parametrize("visibility", [0.95, 0.98, 0.99])
    def test_reduced_visibility_decides_with_model_threshold(self, tmp_path,
                                                             visibility):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"visibility": visibility}))
        result = CliRunner().invoke(main, [
            "simulate", "--k", "2", "--m", "2000", "--delta", "0.25",
            "--trials", "20000", "--seed", "3", "--config", str(cfg)])
        assert result.exit_code == 0
        report = json.loads(result.output)
        noise = NoiseModel(visibility=visibility)
        assert report["d_th"] == worst_case_error_with_threshold(
            2, 2000, report["mu"], 0.25, noise).d_th

    def test_no_light_still_needs_one_click(self):
        # mu = 0: no threshold separates the inputs; NotEqual still needs a
        # click, so every different-input trial decides Equal
        result = _run(["simulate", "--k", "2", "--m", "1000", "--mu", "0",
                       "--trials", "1000", "--seed", "4"])
        report = json.loads(result.output)
        assert report["d_th"] == 1
        assert report["empirical_error"] == 1.0


class TestVerify:
    def test_all_suites_pass(self):
        result = _run(["verify"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert all(entry["passed"] for entry in report.values())

    def test_single_suite_filter(self):
        result = _run(["verify", "--suite", "usc"])
        report = json.loads(result.output)
        assert list(report) == ["usc"]


class TestUsc:
    def test_overlap_echo(self):
        result = _run(["usc", "--p", "0.2"])
        report = json.loads(result.output)
        assert report["overlap"] == 0.6
        assert report["same_inputs"]["inconclusive"] == \
            __import__("pytest").approx(0.6, abs=1e-12)


class TestEdEstimate:
    def test_deterministic_and_close(self):
        args = ["ed-estimate", "--dimension", "64", "--trials", "2000",
                "--seed", "5"]
        a, b = _run(args), _run(args)
        assert a.output == b.output
        report = json.loads(a.output)
        err = abs(report["mean_estimate"] - report["true_squared_distance"])
        assert err < 4.0 * report["std_error"] + 0.05

    def test_golden_values(self):
        # pins the block stream contract for the default 64-wide real pair
        report = json.loads(_run(["ed-estimate", "--trials", "20000",
                                  "--seed", "1"]).output)
        assert report["true_squared_distance"] == pytest.approx(
            1.9629900575084616, rel=1e-12)
        assert report["mean_estimate"] == pytest.approx(1.9783, rel=1e-12)
        assert report["std_error"] == pytest.approx(0.013781725301921195,
                                                    rel=1e-12)


class TestBadInput:
    """Out-of-range values stop at the CLI boundary with a usage error
    (exit code 2) instead of a traceback from deep inside the library."""

    @pytest.mark.parametrize("args,option", [
        (["simulate", "--seed", "-1"], "--seed"),
        (["usc", "--p", "2"], "--p"),
        (["solve", "--delta", "0.6"], "--delta"),
        (["simulate", "--k", "0"], "--k"),
        (["simulate", "--trials", "0"], "--trials"),
        (["simulate", "--delta", "0", "--mu", "1"], "--delta"),
        (["ed-estimate", "--seed", "-1"], "--seed"),
        (["solve", "--family", "interpolation", "--epsilon", "1"], "--epsilon"),
        (["solve", "--family", "lattice", "--k", "1"], "--k"),
        (["solve", "--family", "ring", "--k", "25"], "--k"),
        (["simulate", "--k", "25"], "--k"),
        (["ed-estimate", "--trials", "1"], "--trials"),
    ])
    def test_flag_out_of_range(self, args, option):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert f"Invalid value for '{option}'" in result.output

    def test_config_value_out_of_range(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 1, "m": 100, "trials": 0}))
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "Invalid value for '--trials'" in result.output

    @pytest.mark.parametrize("args,config,message", [
        (["curves"], {"preset": "fig2", "family": "lattice", "n_point": 0,
                      "n_points": 1},
         "unknown config key 'family'"),
        (["solve"], {"eta": 2.0}, "Invalid value for config key 'eta'"),
        (["curves", "--preset", "fig2"], {"epsilon": 1.5},
         "Invalid value for config key 'epsilon'"),
    ], ids=["unknown-keys", "eta", "epsilon"])
    def test_bad_config_file(self, tmp_path, args, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = CliRunner().invoke(main, [*args, "--config", str(cfg)])
        assert result.exit_code == 2
        assert message in result.output

    def test_flag_overrides_bad_config_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.9}))
        result = _run(["solve", "--config", str(cfg), "--delta", "0.25"])
        assert result.exit_code == 0


def test_import_leaves_out_scipy_stats():
    """The tail kernels call scipy.special directly; importing the CLI must
    not pull in scipy.stats (about 0.5 s and 20 MiB)."""
    code = "import sys, qfp.cli; print('scipy.stats' in sys.modules)"
    src = Path(qfp.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], cwd=src,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
