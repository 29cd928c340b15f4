"""Tests of the benchmark itself.

Run from the root of the repository: python3 -m pytest bench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import qfp  # noqa: E402
import qfp.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bindings():
    """Every global of every qfp module, and every command body."""
    state = {(name, attr): value
             for name, module in sys.modules.items()
             if name == "qfp" or name.startswith("qfp.")
             for attr, value in vars(module).items()}
    for command in qfp.cli.main.commands.values():
        state[("command", command.name)] = command.callback
    return state


def test_wrappers_restore_every_patched_name():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        # rebound in every module that binds it
        for owner in ("qfp", "qfp.analysis", "qfp.leakage"):
            assert (during[(owner, "solve_amplitude")]
                    is not before[(owner, "solve_amplitude")])
        assert (during[("qfp.leakage", "lattice_mu_range")]
                is not before[("qfp.leakage", "lattice_mu_range")])
        assert during[("command", "verify")] is not before[("command", "verify")]
        qfp.leakage.optimize_delta_for_qil("ring", 1, 1e3, 0.01)
    finally:
        tracer.restore()
    assert _bindings() == before
    table = tracer.table()
    assert table["leakage.optimize_delta_for_qil"]["calls"] == 1
    assert table["analysis.solve_amplitude"]["calls"] >= 1


def test_self_time_on_nested_spans():
    # a[0,10] > (b[1,4] > c[2,3]), b[5,9];  a[11,12]
    table = tracing.span_table(
        ["a", "b", "c"],
        name_id=np.array([0, 1, 2, 1, 0]),
        parent=np.array([-1, 0, 1, 0, -1]),
        start=np.array([0.0, 1.0, 2.0, 5.0, 11.0]),
        end=np.array([10.0, 4.0, 3.0, 9.0, 12.0]))
    assert table["a"]["calls"] == 2
    assert table["a"]["total_s"] == pytest.approx(11.0)
    assert table["a"]["self_s"] == pytest.approx(10.0 - 3.0 - 4.0 + 1.0)
    assert table["b"]["calls"] == 2
    assert table["b"]["self_s"] == pytest.approx(3.0 - 1.0 + 4.0)
    assert table["c"]["self_s"] == pytest.approx(1.0)


def test_tracer_records_exceptions():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(ValueError):
            qfp.analysis.no_click_prob(1.0, 1.0, visibility=2.0)
    finally:
        tracer.restore()
    assert tracer.table()["analysis.no_click_prob"]["errors"] == {
        "ValueError": 1}


def test_inputs_are_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert (workloads.make_inputs(name, 3)
                == workloads.make_inputs(name, 3))
        assert (workloads.make_inputs(name, 3)
                != workloads.make_inputs(name, 4))
    ns = workloads.make_inputs("ideal-curves", 5)["n"]
    edges = np.logspace(3, 8, workloads.IDEAL_STRATA + 1)
    assert all(lo <= n < hi for n, lo, hi in zip(ns, edges, edges[1:]))
    strata = workloads.NOISY_STRATA
    half_width = 5.0 * workloads.NOISY_JITTER / strata / 2
    for i, n in enumerate(workloads.make_inputs("noisy-curves", 5)["n"]):
        centre = 3.0 + 5.0 * (i + 0.5) / strata
        assert abs(np.log10(n) - centre) <= half_width


def _failed(op, output):
    return workloads.tally([op], [output])[1]


def test_wrong_amplitude_is_a_failed_operation():
    ns = [2000.0]
    op = workloads.Op(
        "fig2", 6, lambda: None,
        lambda out: workloads.check_curves(out, ns, workloads.FIG2_SERIES,
                                           qfp.IDEAL_NOISE, None))
    text = workloads.run_curves("fig2", ns)
    assert _failed(op, text) == []
    lines = text.splitlines()
    cells = lines[2].split(",")
    mu = cells[lines[0].split(",").index("mu")]
    lines[2] = lines[2].replace(mu, format(float(mu) * 1.001, ".9g"))
    assert len(_failed(op, "\n".join(lines))) == 1
    assert len(_failed(op, RuntimeError("boom"))) == 6


def test_curve_reference_tolerance():
    assert workloads._cells_match("1.23456789", "1.23456790")
    assert not workloads._cells_match("1.23456789", "1.23456791")
    assert not workloads._cells_match("schur_horn", "fannes_audenaert")


def test_corrupted_monte_carlo_result_is_a_failed_operation():
    sim = {"k": 1, "m": 1000, "delta": 0.25, "noise": "ideal",
           "trials": 2000, "seed": 11}
    op = workloads.Op("simulate", 1, lambda: None,
                      lambda out: workloads.check_simulate(out, sim))
    report = workloads.run_simulate(sim)
    assert _failed(op, report) == []
    assert len(_failed(op, {**report, "empirical_error":
                            report["empirical_error"] + 0.05})) == 1

    ed = workloads.make_inputs("montecarlo", 1)["ed"][1]
    ed = {**ed, "trials": 2000}
    op = workloads.Op("ed", 1, lambda: None,
                      lambda res: workloads.check_ed(res, ed))
    res = qfp.montecarlo.simulate_ed(workloads._ed_plan(ed))
    assert _failed(op, res) == []
    shifted = qfp.EdResult(mean_estimate=res.mean_estimate + 6 * res.std_error,
                           std_error=res.std_error, runs=res.runs)
    assert len(_failed(op, shifted)) == 1


def _traced_pass(tmp_path, tag):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "montecarlo", "7",
         "traced", str(tmp_path / f"{tag}.npz")],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_call_counts_repeat_across_traced_runs(tmp_path):
    first, second = (_traced_pass(tmp_path, tag) for tag in "ab")
    calls = [{name: row["calls"] for name, row in run["spans"].items()}
             for run in (first, second)]
    assert calls[0] == calls[1]
    assert first["failures"] == [] and second["failures"] == []
    spans = np.load(tmp_path / "a.npz")
    assert spans["name_id"].size == sum(calls[0].values())
