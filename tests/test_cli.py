"""Tests for the command-line surface."""

import csv
import functools
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qfp
from qfp import leakage
from qfp.analysis import (IDEAL_NOISE, PAPER_EXP_NOISE, InfeasibleError,
                          NoiseModel, worst_case_error_with_threshold)
from qfp.cli import CSV_COLUMNS, main
from qfp.codes import gv_binary_length
from qfp.constellations import lattice_mu_range
from qfp.leakage import fannes_audenaert_bound

DATA = Path(__file__).parent / "data"


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

    @pytest.mark.parametrize("preset", ["fig2", "fig3"])
    def test_preset_matches_golden_csv(self, preset):
        # ROADMAP aim 2's first regression check: the full default grid,
        # byte for byte
        result = _run(["curves", "--preset", preset])
        assert result.exit_code == 0
        assert result.output == (DATA / f"{preset}.csv").read_text()

    def test_ideal_noise_flag_prints_the_default_bytes(self):
        args = ["curves", "--preset", "fig2", "--n-points", "2"]
        assert _run([*args, "--noise", "ideal"]).output == _run(args).output

    def test_fig3_noise_flags_unchanged(self):
        # fig3 has no optimal_lb series, so noise flags still apply
        result = _run(["curves", "--preset", "fig3", "--eta", "0.5",
                       "--p-dark", "1e-9", "--n-points", "1"])
        assert result.output.splitlines()[1:] == [
            "1000,1,ring,0.399091057,11.5402455,33802.5273,beamsplitter,"
            "299.002212,schur_horn,31.6227766,",
            "1000,2,ring,0.388279947,11.8605425,13766.7329,beamsplitter,"
            "275.732143,schur_horn,31.6227766,",
        ]

    def test_zero_visibility_rows_are_infeasible(self):
        # no interference contrast: every row is infeasible, none crashes
        result = _run(["curves", "--preset", "fig3", "--n-points", "1",
                       "--visibility", "0"])
        assert result.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert [row["k"] for row in rows] == ["1", "2"]
        assert all(row["infeasible"].startswith("no feasible distance")
                   for row in rows)

    def test_dark_counts_alone_attain_epsilon(self):
        # p_dark = 0.3 keeps the error below 0.6 with no signal: mu = 0
        result = _run(["curves", "--preset", "fig3", "--p-dark", "0.3",
                       "--epsilon", "0.6", "--n-points", "1"])
        assert result.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert [(row["k"], row["mu"], row["infeasible"]) for row in rows] == [
            ("1", "0", ""), ("2", "0", "")]

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

    def test_epsilon_one_leaks_positive_zero(self):
        report = json.loads(_run(["solve", "--epsilon", "1"]).output)
        assert report["qil_majorization_bits"] == 0.0
        assert math.copysign(1.0, report["qil_majorization_bits"]) == 1.0

    def test_dark_counts_alone_attain_epsilon(self):
        # p_dark = 0.3 alone gives error 0.5197 at m = 106, below epsilon
        result = _run(["solve", "--p-dark", "0.3", "--epsilon", "0.6",
                       "--n", "20"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["mu_launched"] == 0.0
        assert report["worst_case_error"] < 0.6

    def test_infeasible_report(self):
        # exit 1 with strict JSON of the inputs and the reason, and no
        # design point
        result = _run(["solve", "--visibility", "0"])
        assert result.exit_code == 1
        assert json.loads(result.output, parse_constant=_reject_constant) == {
            "family": "ring", "k": 1, "n": 1000, "delta": 0.25,
            "epsilon": 0.01,
            "noise": {"eta": 1.0, "p_dark": 0.0, "visibility": 0.0},
            "infeasible": "error 0.01 unattainable at visibility 0, where "
                          "equal and different inputs click alike"}

    def test_interpolation_reports_repetitions(self):
        result = _run(["solve", "--family", "interpolation", "--k", "2",
                       "--n", "100", "--delta", "0.25"])
        report = json.loads(result.output)
        assert report["repetitions"] >= 1
        assert report["worst_case_error"] <= 0.01

    def test_interpolation_accepts_ideal_noise(self):
        args = ["solve", "--family", "interpolation", "--k", "2", "--n", "100"]
        assert (_run([*args, "--noise", "ideal"]).output
                == _run(args).output)

    def test_lattice_bound_uses_lattice_mu_range(self):
        result = _run(["solve", "--family", "lattice", "--k", "3", "--n",
                       "100000", "--delta", "0.3", "--epsilon", "0.01"])
        report = json.loads(result.output)
        mu_min, mu_max = lattice_mu_range(3, report["m"], report["mu_launched"])
        assert mu_min < mu_max
        assert report["qil_typical_subspace_bits"] == fannes_audenaert_bound(
            100000, report["m_k"], mu_min, mu_max).bits

    @pytest.mark.parametrize("family", [
        name for name, fam in leakage.FAMILIES.items() if fam.bound])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("noise", ["ideal", "paper-exp"])
    def test_design_point_is_the_curves_one(self, family, k, noise):
        # solve reads mu, m_k and the family's bound off the curves' design
        # point at the integer GV codeword length
        n, delta = 100000, 0.3
        report = json.loads(_run([
            "solve", "--family", family, "--k", str(k), "--n", str(n),
            "--delta", str(delta), "--noise", noise]).output)
        opt = leakage._coherent_family_qil(
            family, k, n, gv_binary_length(n, delta), delta, 0.01,
            {"ideal": IDEAL_NOISE, "paper-exp": PAPER_EXP_NOISE}[noise],
            "beamsplitter")
        assert report["mu_launched"] == opt.mu
        assert report["m_k"] == opt.m_k
        bound = ("qil_majorization_bits"
                 if leakage.FAMILIES[family].majorization
                 else "qil_typical_subspace_bits")
        assert report[bound] == opt.bound.bits

    @pytest.mark.parametrize("args,golden", [
        (["--family", "ring", "--k", "2", "--noise", "paper-exp"],
         {"m": 842396, "m_k": 421198.0, "mu_launched": 25.58420123355756,
          "mu_detected": 7.675260370067268, "beta_k": 0.00779368378396465,
          "d_th": 1, "worst_case_error": 0.009999999999618309,
          "qil_majorization_bits": 790.5356072191915,
          "qil_typical_subspace_bits": 1189.4996958698691}),
        (["--family", "lattice", "--k", "3"],
         {"m": 842396, "m_k": 280798.6666666667,
          "mu_launched": 17.470038340040862,
          "mu_detected": 17.470038340040862, "beta_k": 0.00788768227517343,
          "d_th": 1, "worst_case_error": 0.009999987291613522,
          "qil_majorization_bits": None,
          "qil_typical_subspace_bits": 1254.7836707473289}),
    ], ids=["ring-k2-paper-exp", "lattice-k3"])
    def test_golden_values(self, args, golden):
        report = json.loads(_run(["solve", *args, "--n", "100000",
                                  "--delta", "0.3"]).output)
        for key, want in golden.items():
            if want is None:
                assert report[key] is None
            else:
                assert report[key] == pytest.approx(want, rel=1e-12), key

    def test_interpolation_golden_report(self):
        report = json.loads(_run(["solve", "--family", "interpolation",
                                  "--k", "4", "--n", "1000"]).output)
        assert report == {
            "family": "interpolation", "k": 4, "n": 1000, "delta": 0.25,
            "epsilon": 0.01,
            "noise": {"eta": 1.0, "p_dark": 0.0, "visibility": 1.0},
            "m": 5299, "p_k": 0.0007548594074353652, "repetitions": 19,
            "worst_case_error": 0.008647819376891422,
            "qil_bits": 563.0251135499932}

    def test_interpolation_k_up_to_codeword_length(self):
        # m = 530 at n = 100, delta = 0.25: k = m is the largest block
        args = ["solve", "--family", "interpolation", "--n", "100",
                "--delta", "0.25", "--k"]
        assert _run([*args, "530"]).exit_code == 0
        for k in ("531", "5000"):
            result = CliRunner().invoke(main, [*args, k])
            assert result.exit_code == 2
            assert "Invalid value for '--k'" in result.output
            assert "k <= m" in result.output

    @pytest.mark.parametrize("family", sorted(leakage.FAMILIES))
    def test_k_at_most_codeword_length(self, family):
        # n = 1, delta = 0.25 give m = 6: a signal carries at most m bits,
        # whatever the family's own k range
        args = ["solve", "--family", family, "--n", "1", "--k"]
        assert _run([*args, "6"]).exit_code == 0
        result = CliRunner().invoke(main, [*args, "7"])
        assert result.exit_code == 2
        assert "Invalid value for '--k'" in result.output
        assert "k <= m" in result.output

    @pytest.mark.parametrize("family", sorted(leakage.FAMILIES))
    def test_record_decides_noise_and_majorization(self, family):
        # at the family's least k: a family takes noise exactly when it has
        # a coherent bound, and reports a majorization bound exactly when
        # its record is marked for one
        fam = leakage.FAMILIES[family]
        args = ["solve", "--family", family, "--k", str(fam.k_min)]
        noisy = CliRunner().invoke(main, [*args, "--noise", "paper-exp"])
        assert noisy.exit_code == (0 if fam.bound else 2), noisy.output
        bits = json.loads(_run(args).output).get("qil_majorization_bits")
        assert isinstance(bits, float) == fam.majorization

    @pytest.mark.parametrize("family", sorted(leakage.FAMILIES))
    def test_k_range_from_the_table(self, family):
        # the default n = 1000, delta = 0.25 give m = 5299; ring k = 12 is
        # never accepted here, it builds a 592 MiB DFT
        fam = leakage.FAMILIES[family]
        k_max = fam.k_max or gv_binary_length(1000, 0.25)
        assert _run(["solve", "--family", family,
                     "--k", str(fam.k_min)]).exit_code == 0
        for k in (fam.k_min - 1, k_max + 1):
            if k < 1:
                continue
            result = CliRunner().invoke(main, ["solve", "--family", family,
                                               "--k", str(k)])
            assert result.exit_code == 2
            assert "Invalid value for '--k'" in result.output

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
        # one block of the run's stream: 184 of 20000 trials err
        result = _run(["simulate", "--k", "2", "--m", "1000", "--delta",
                       "0.25", "--trials", "20000", "--seed", "7"])
        report = json.loads(result.output)
        assert report["d_th"] == 1
        assert report["empirical_error"] == 0.0092
        assert report["predicted_error"] == pytest.approx(0.010214337653619098,
                                                          rel=1e-12)

    def test_golden_values_past_first_block(self):
        # 100000 trials span two blocks, so this pins the stream past block
        # 0: 985 of 100000 trials err
        result = _run(["simulate", "--k", "2", "--m", "1000", "--delta",
                       "0.25", "--trials", "100000", "--seed", "7"])
        report = json.loads(result.output)
        assert report["d_th"] == 1
        assert report["empirical_error"] == 0.00985

    def test_golden_values_short_final_block(self):
        # k = 3 does not divide m = 3001, and k * delta > 1.  The run exits 1:
        # the even pair errs less often than the ring model predicts there
        result = CliRunner().invoke(main, [
            "simulate", "--k", "3", "--m", "3001", "--delta", "0.4",
            "--trials", "20000", "--seed", "5"])
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["mu"] == pytest.approx(10.603305646488714, rel=1e-12)
        assert report["d_th"] == 1
        assert report["empirical_error"] == 0.00165
        assert report["predicted_error"] == pytest.approx(0.010014238806775445,
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

    def test_no_strategy_option(self):
        # simulate runs the even pair, the one its prediction is made for
        result = CliRunner().invoke(main, ["simulate", "--strategy", "even"])
        assert result.exit_code == 2
        assert "No such option" in result.output

    @pytest.mark.parametrize("args,reason", [
        (["--p-dark", "0.9"],
         "below mu cap 10000000.0 (dark counts too strong)"),
        (["--noise", "paper-exp", "--visibility", "0"],
         "at visibility 0, where equal and different inputs click alike"),
        (["--visibility", "0.01"],
         "below mu cap 10000000.0 (visibility 0.01 too low)"),
    ], ids=["args0", "args1", "args2"])
    def test_infeasible_amplitude_is_one_error_line(self, args, reason):
        # the error names the noise that is present: no dark counts at
        # --visibility alone
        result = CliRunner().invoke(main, ["simulate", *args, "--trials",
                                           "10"])
        assert result.exit_code == 1
        assert result.output == f"Error: error 0.01 unattainable {reason}\n"
        assert not isinstance(result.exception, InfeasibleError)

    def test_no_light_still_needs_one_click(self):
        # mu = 0: no threshold separates the inputs; NotEqual still needs a
        # click, so every different-input trial decides Equal
        result = _run(["simulate", "--k", "2", "--m", "1000", "--mu", "0",
                       "--trials", "1000", "--seed", "4"])
        report = json.loads(result.output)
        assert report["d_th"] == 1
        assert report["empirical_error"] == 1.0


_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _details_match(got: str, want: str) -> bool:
    """Equal text; numbers equal or both below 1e-12, the round-off floor."""
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        return False
    return all(a == b or max(abs(float(a)), abs(float(b))) < 1e-12
               for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)))


@pytest.fixture(scope="module")
def verify_result():
    return _run(["verify"])


class TestVerify:
    def test_all_suites_pass(self, verify_result):
        assert verify_result.exit_code == 0
        report = json.loads(verify_result.output)
        assert all(entry["passed"] for entry in report.values())

    def test_matches_golden_json(self, verify_result):
        report = json.loads(verify_result.output)
        golden = json.loads((DATA / "verify.json").read_text())
        assert sorted(report) == sorted(golden)
        for name, want in golden.items():
            got = report[name]
            assert got["passed"] == want["passed"], name
            assert _details_match(got["detail"], want["detail"]), (got, want)

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
        # pins the run's one stream, one uniform per trial, for the default
        # 64-wide real pair, and the moments of the law it samples
        report = json.loads(_run(["ed-estimate", "--trials", "20000",
                                  "--seed", "1"]).output)
        assert report["true_squared_distance"] == pytest.approx(
            1.9629900575084616, rel=1e-12)
        assert report["mean_estimate"] == pytest.approx(1.9484, rel=1e-12)
        assert report["std_error"] == pytest.approx(0.013785368106027885,
                                                    rel=1e-12)
        assert report["predicted_mean"] == pytest.approx(1.9677977543267293,
                                                         rel=1e-12)
        assert report["predicted_std_error"] == pytest.approx(
            0.013877629846724826, rel=1e-12)

    def test_golden_values_complex_odd_dimension(self):
        # 65 components pack into 33 signals, the last one half empty; the
        # run's one stream and the moments of the law it samples
        report = json.loads(_run(["ed-estimate", "--variant", "complex",
                                  "--dimension", "65", "--trials", "5000",
                                  "--seed", "2"]).output)
        assert report["true_squared_distance"] == pytest.approx(
            1.851391111563582, rel=1e-12)
        assert report["mean_estimate"] == pytest.approx(1.8436, rel=1e-12)
        assert report["std_error"] == pytest.approx(0.027566279907843768,
                                                    rel=1e-12)
        assert report["predicted_mean"] == pytest.approx(1.856811743520263,
                                                         rel=1e-12)
        assert report["predicted_std_error"] == pytest.approx(
            0.02760529691967411, rel=1e-12)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


@pytest.mark.parametrize("args", [
    # a law cut to one entry while an odd mode out still had two rows
    ["ed-estimate", "--dimension", "65", "--alpha2", "1e-30",
     "--trials", "23"],
    # 1/epsilon and mu_det/eta overflow at subnormal input
    ["solve", "--epsilon", "5e-324", "--eta", "0.5"],
    ["curves", "--preset", "fig3", "--epsilon", "5e-324", "--eta", "0.5"],
    ["simulate", "--eta", "5e-324", "--trials", "2"],
    # the dark counts' rounding put p_D one ulp below p_E
    ["curves", "--preset", "fig3", "--n-points", "2", "--epsilon", "0.0229",
     "--noise", "ideal", "--p-dark", "0.999999999999"],
    # the delta optimizer's floor launched mu_det / eta = inf
    ["curves", "--preset", "fig3", "--eta", "5e-324", "--n-points", "1"],
], ids=["ed-cut", "solve-subnormal-eps", "curves-subnormal-eps",
        "simulate-subnormal-eta", "curves-strong-dark",
        "curves-subnormal-eta"])
def test_cli_contract(args):
    # a result, an infeasibility or a usage error: never a traceback, and
    # what a success prints is strict JSON or CSV rows of the header's width
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception,
                                                  SystemExit), result.exception
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        if args[0] == "curves":
            rows = list(csv.reader(io.StringIO(result.output)))
            assert rows[0] == CSV_COLUMNS
            assert {len(row) for row in rows[1:]} == {len(CSV_COLUMNS)}
        else:
            json.loads(result.output, parse_constant=_reject_constant)


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
        # fires before the ring's dense 2^k x 2^k spectrum is built
        (["solve", "--family", "ring", "--k", "13"], "--k"),
        (["solve", "--family", "ring", "--k", "24"], "--k"),
        # nan passes every range comparison, inf an unbounded side
        (["solve", "--delta", "nan"], "--delta"),
        (["simulate", "--mu", "inf", "--trials", "10"], "--mu"),
        (["simulate", "--eta", "nan"], "--eta"),
        (["usc", "--p", "nan"], "--p"),
        (["ed-estimate", "--alpha2", "inf"], "--alpha2"),
        # the interpolation family's error model takes no noise
        (["solve", "--family", "interpolation", "--noise", "paper-exp"],
         "--noise"),
        (["solve", "--family", "interpolation", "--eta", "0.5"], "--eta"),
        (["solve", "--family", "interpolation", "--p-dark", "0"], "--p-dark"),
        (["solve", "--family", "interpolation", "--visibility", "1"],
         "--visibility"),
        # fig2's optimal_lb series is modelled without noise
        (["curves", "--preset", "fig2", "--noise", "paper-exp"], "--noise"),
        (["curves", "--preset", "fig2", "--eta", "0.5"], "--eta"),
        (["curves", "--preset", "fig2", "--visibility", "0.9"],
         "--visibility"),
        # a directory is no output file
        (["curves", "--preset", "fig2", "--out", "."], "--out"),
        (["solve", "--out", "."], "--out"),
        (["simulate", "--out", "."], "--out"),
        (["verify", "--out", "."], "--out"),
        (["usc", "--p", "0.2", "--out", "."], "--out"),
        (["ed-estimate", "--out", "."], "--out"),
        # a signal carries k of the codeword's m bits
        (["simulate", "--k", "5", "--m", "3", "--delta", "0.34"], "--k"),
        # round(m * delta) = 0 would simulate an equal pair
        (["simulate", "--k", "1", "--m", "10", "--delta", "0.04"], "--delta"),
        (["simulate", "--k", "1", "--m", "1", "--delta", "0.5"], "--delta"),
        # and would solve for a pair at distance 0: mu overflows
        (["solve", "--delta", "0"], "--delta"),
        (["solve", "--delta", "1e-20"], "--delta"),
        (["solve", "--delta", "1e-305"], "--delta"),
        (["solve", "--delta", "5e-324"], "--delta"),
        (["solve", "--family", "lattice", "--k", "2", "--n", "10",
          "--delta", "0.001"], "--delta"),
    ])
    def test_flag_out_of_range(self, args, option):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert f"Invalid value for '{option}'" in result.output

    def test_noisy_config_for_fig2_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "fig2", "p_dark": 1e-9}))
        result = CliRunner().invoke(main, ["curves", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "Invalid value for '--p-dark'" in result.output

    def test_out_unwritable(self, tmp_path):
        out = tmp_path / "missing" / "report.json"
        result = CliRunner().invoke(main, ["usc", "--p", "0.2", "--out",
                                           str(out)])
        assert result.exit_code == 1
        assert result.output == (f"Error: Could not open file '{out}': "
                                 f"No such file or directory\n")
        assert not isinstance(result.exception, OSError)

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
        (["solve"], {"eta": 2.0}, "Invalid value for '--eta'"),
        (["curves", "--preset", "fig2"], {"epsilon": 1.5},
         "Invalid value for '--epsilon'"),
        (["solve"], {"delta": "nan"}, "Invalid value for '--delta'"),
    ], ids=["unknown-keys", "eta", "epsilon", "delta-nan"])
    def test_bad_config_file(self, tmp_path, args, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = CliRunner().invoke(main, [*args, "--config", str(cfg)])
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize("text,message", [
        ("{bad", "Invalid value for '--config'"),
        ("[1, 2]", "Invalid value for '--config'"),
        ('{"k": null}', "Invalid value for config key 'k'"),
        ('{"eta": null}', "Invalid value for config key 'eta'"),
        # read as its flag reads the same text, not truncated by int()
        ('{"n": 100000.5}', "Invalid value for '--n'"),
        # a JSON bool is no number, though Python's bool is an int
        ('{"k": true}', "Invalid value for config key 'k'"),
    ], ids=["not-json", "list", "k-null", "eta-null", "n-fraction", "k-bool"])
    def test_malformed_config_file(self, tmp_path, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        result = CliRunner().invoke(main, ["solve", "--config", str(cfg)])
        assert result.exit_code == 2
        assert message in result.output

    def test_config_value_converted_like_its_flag(self, tmp_path):
        # the string "3" passes --k's type; solve must get the integer 3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": "3", "family": "lattice"}))
        from_file = _run(["solve", "--config", str(cfg)])
        from_flags = _run(["solve", "--k", "3", "--family", "lattice"])
        assert from_file.exit_code == 0
        assert from_file.output == from_flags.output

    @pytest.mark.parametrize("args,values", [
        (["solve"], {"family": "ring", "k": 2, "n": 100000, "delta": 0.3,
                     "epsilon": 0.02}),
        (["simulate"], {"k": 2, "m": 1000, "delta": 0.25, "trials": 2000,
                        "seed": 5}),
        (["curves", "--n-points", "2"], {"preset": "fig3", "epsilon": 0.02}),
    ], ids=["solve", "simulate", "curves"])
    def test_config_run_equals_flag_run(self, tmp_path, args, values):
        values = {**values, "noise": "paper-exp", "eta": 0.5, "p_dark": 1e-9,
                  "visibility": 0.99}
        flags = [tok for key, val in values.items()
                 for tok in (f"--{key.replace('_', '-')}", str(val))]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        from_flags = _run([*args, *flags])
        from_file = _run([*args, "--config", str(cfg)])
        assert from_flags.exit_code == 0
        assert from_file.exit_code == 0
        assert from_file.output == from_flags.output

    def test_flag_overrides_bad_config_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.9}))
        result = _run(["solve", "--config", str(cfg), "--delta", "0.25"])
        assert result.exit_code == 0


def test_help_shows_defaults():
    result = _run(["solve", "--help"])
    n_option = result.output.split("--n ")[1].split("--delta")[0]
    assert "default: 1000" in n_option


def _fresh_stdout(code):
    """stdout of ``code`` run in a fresh interpreter."""
    src = Path(qfp.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def test_import_loads_only_numpy_and_the_tail_kernels():
    """Past the standard modules the package's sources import, ``import
    qfp`` loads its own modules and nothing else: numpy, and scipy only for
    the two Boost tail kernels."""
    code = ("import sys\n"
            "import collections.abc, dataclasses, functools, itertools, math\n"
            "import numpy, scipy.special._ufuncs\n"
            "before = set(sys.modules)\n"
            "import qfp\n"
            "print(*sorted(set(sys.modules) - before))")
    assert _fresh_stdout(code).split() == [
        "qfp", "qfp.analysis", "qfp.codes", "qfp.constellations",
        "qfp.leakage", "qfp.montecarlo", "qfp.oracle"]


@functools.cache
def _heavy_scipy_after_cli_import():
    """(subpackage, submodule) pairs of every module under scipy.stats,
    scipy.optimize, scipy.sparse or scipy.linalg that ``import qfp.cli``
    loads; one fresh interpreter serves the three probes below."""
    code = ("import sys, qfp.cli; print(*sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], "
            "['scipy', 'optimize'], ['scipy', 'sparse'], "
            "['scipy', 'linalg'])))")
    return [(m.split(".")[1], m) for m in _fresh_stdout(code).split()]


def _loaded_under(*subpackages):
    return [m for sub, m in _heavy_scipy_after_cli_import()
            if sub in subpackages]


def test_import_leaves_out_scipy_stats():
    """The tail kernels call scipy.special directly; importing the CLI must
    not pull in scipy.stats (about 0.5 s and 20 MiB)."""
    assert _loaded_under("stats") == []


def test_import_leaves_out_scipy_optimize_and_sparse():
    """The amplitude solver's root finder is a port of scipy's brentq, so
    importing the CLI must not load scipy.optimize, nor scipy.sparse,
    which scipy.optimize imports."""
    assert _loaded_under("optimize", "sparse") == []


def test_import_leaves_out_scipy_linalg():
    """Only the oracle's beamsplitter blocks call scipy.linalg.expm, and it
    imports expm where it calls it."""
    assert _loaded_under("linalg") == []


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self")
@pytest.mark.parametrize("args", [
    ["solve", "--family", "lattice", "--k", "24"],
    ["simulate", "--k", "24", "--m", "1000", "--trials", "1000"],
], ids=["solve-lattice", "simulate"])
def test_lattice_solve_builds_no_2_to_the_k_grid(args):
    """The lattice's photon range is the grid's closed form, so a k = 24
    solve stays small; building the 2^24 points took 1.1 GiB.  The encoder
    computes only the points of the labels a codeword holds, so a k = 24
    simulate does too; its 2^24-entry tables peaked at 697 MiB.  The
    child's own peak is VmHWM: its ru_maxrss starts at this process's
    size."""
    code = ("from click.testing import CliRunner\n"
            "from qfp.cli import main\n"
            f"args = {args!r}\n"
            "assert CliRunner().invoke(main, args).exit_code == 0\n"
            "print(*[line.split()[1] for line in open('/proc/self/status')\n"
            "        if line.startswith('VmHWM:')])")
    assert int(_fresh_stdout(code)) < 100 * 1024  # kB


_LOADS_LINALG = "print('scipy.linalg' in sys.modules)"


def test_commands_leave_out_scipy_linalg():
    """No command reaches the oracle's beamsplitter blocks, so none of them
    loads scipy.linalg."""
    commands = [
        ["verify"],
        ["curves", "--preset", "fig2", "--n-points", "1"],
        ["simulate", "--k", "1", "--m", "300", "--delta", "0.25",
         "--trials", "2000"],
        ["solve", "--family", "ring"],
        ["solve", "--family", "lattice", "--k", "3"],
        ["solve", "--family", "interpolation", "--k", "4"],
        ["ed-estimate", "--trials", "100"],
    ]
    code = ("import sys\n"
            "from click.testing import CliRunner\n"
            "from qfp.cli import main\n"
            f"for args in {commands!r}:\n"
            "    assert CliRunner().invoke(main, args).exit_code == 0, args\n"
            + _LOADS_LINALG)
    assert _fresh_stdout(code) == "False"


def test_fig2_keeps_openblas_workers_idle():
    """The ring spectrum's DFT product stays on the calling thread: at k = 6
    an unsplit 64 x 64 complex matrix-vector product woke an OpenBLAS
    worker that then spun between calls, nearly doubling the CPU time of a
    fig2 pass.  Non-main-thread CPU (process time less this thread's time)
    over the command must be at most a fifth of the main thread's.  The
    pause lets the thread pools' start-up spin end first.  On a 1-CPU host
    OpenBLAS starts no worker, so the test passes there trivially."""
    code = ("import time\n"
            "from click.testing import CliRunner\n"
            "from qfp.cli import main\n"
            "time.sleep(0.5)\n"
            "p0, t0 = time.process_time(), time.thread_time()\n"
            "args = ['curves', '--preset', 'fig2', '--n-points', '3']\n"
            "assert CliRunner().invoke(main, args).exit_code == 0\n"
            "p1, t1 = time.process_time(), time.thread_time()\n"
            "print(p1 - p0 - (t1 - t0), t1 - t0)")
    others, main_thread = map(float, _fresh_stdout(code).split())
    assert others <= 0.2 * main_thread
