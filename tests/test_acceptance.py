"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line with the measured quantity.  Criteria 1, 2, 5, 6 and 11 run
the brute-force checks of ``qfp.checks`` on their own samples.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines inline.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from qfp.analysis import (IDEAL_NOISE, PAPER_EXP_NOISE, interp_worst_case_error,
                          log_binom_cdf, ring_worst_case_error, solve_amplitude,
                          worst_case_error_with_threshold)
from qfp.checks import (interp_deviation, overlap_deviation,
                        projector_violations, qary_violations, usc_deviation)
from qfp.cli import CURVE_PRESETS, NOISE_PRESETS
from qfp.codes import gv_binary_length, worst_case_pair
from qfp.constellations import ProtocolInstance, encode_ed
from qfp.leakage import (asymptotic_bound, fannes_audenaert_bound,
                         optimize_delta_for_qil, qil_interpolation)
from qfp.montecarlo import TrialPlan, signal_click_probs, simulate_ed, \
    simulate_equality
from qfp.oracle import (coherent_fock, beamsplitter_click_probs,
                        qubit_from_coherent, usc_outcome_probs)

EPSILON = 0.01
N_GRID = np.logspace(3, 8, 9)
SWEEP_GRID = np.logspace(3, 8, 4)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- shared curve pipelines ---------------------------------------------------

def _preset_curves(preset: str) -> dict:
    """Leakage per (k, n) of a ``qfp curves`` preset's series, on N_GRID."""
    spec = CURVE_PRESETS[preset]
    noise = NOISE_PRESETS[spec["noise"]]
    return {k: [optimize_delta_for_qil("ring", k, float(n), spec["epsilon"],
                                       noise=noise, measurement=model)
                for n in N_GRID]
            for k, model in spec["series"]}


@pytest.fixture(scope="module")
def fig2_curves():
    """Ideal-setting leakage; k=4..6 use the optimal-measurement amplitude
    lower bound."""
    return _preset_curves("fig2")


@pytest.fixture(scope="module")
def fig3_curves():
    """Lossy-detector leakage."""
    return _preset_curves("fig3")


# -- criteria -----------------------------------------------------------------

def test_criterion_01_coherent_overlap():
    start = time.time()
    rng = np.random.default_rng(101)
    pts = rng.uniform(-1, 1, size=(100, 4)) * 2.0 / math.sqrt(2.0)
    worst = overlap_deviation((complex(*p[:2]), complex(*p[2:])) for p in pts)
    elapsed = time.time() - start
    ok = worst < 1e-9 and elapsed < 5.0
    _report(1, ok, f"coherent-overlap max deviation {worst:.2e} "
                   f"(tol 1e-9), {elapsed:.2f}s (limit 5s)")
    assert ok


def test_criterion_02_interp_measurement_equivalence():
    start = time.time()
    worst = interp_deviation((1, 2, 3, 4), (0.1, 0.25, 0.5, 0.75, 1.0))
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 60.0
    _report(2, ok, f"interpolation-measurement max deviation {worst:.2e} "
                   f"(tol 1e-10), {elapsed:.2f}s (limit 60s)")
    assert ok


def test_criterion_03_single_step_ring_error():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        mu = rng.uniform(0.1, 30.0)
        delta = rng.uniform(0.0, 0.5)
        got = ring_worst_case_error(1, mu, delta)
        worst = max(worst, abs(got - math.exp(-2.0 * mu * delta)))
    ok = worst < 1e-12
    _report(3, ok, f"k=1 ring error max deviation {worst:.2e} (tol 1e-12)")
    assert ok


def test_criterion_04_interpolation_error_bound():
    rng = np.random.default_rng(4)
    violations = 0
    for _ in range(10**4):
        k = int(rng.integers(1, 9))
        m = int(rng.integers(k, 500))
        delta = float(rng.uniform(0.001, 0.499))
        r = int(rng.integers(1, 40))
        err = interp_worst_case_error(k, m, delta, k / m, r)
        violations += err > 2.0 ** (-delta * r) + 1e-12
    ok = violations == 0
    _report(4, ok, f"consolidated interpolation error vs 2^(-delta r): "
                   f"{violations} violations in 1e4 samples")
    assert ok


def test_criterion_05_usc_statistics():
    worst_stat = usc_deviation(np.linspace(0.01, 0.5, 25),
                               ((0, 0), (0, 1), (1, 0), (1, 1)))
    worst_port = 0.0
    for b0 in np.linspace(0.1, 1.2, 8):
        # dual-port statistics vs the comparison measurement on the reduced
        # qubits with matching overlap
        p_dark, _ = beamsplitter_click_probs(coherent_fock(b0, 50),
                                             coherent_fock(-b0, 50))
        _, _, p = qubit_from_coherent(b0, -b0)
        diff = usc_outcome_probs(0, 1, p)["different"]
        worst_port = max(worst_port, abs(p_dark - diff))
    ok = worst_stat < 1e-12 and worst_port < 1e-10
    _report(5, ok, f"USC statistics deviation {worst_stat:.2e} (tol 1e-12), "
                   f"port-statistics deviation {worst_port:.2e} (tol 1e-10)")
    assert ok


def test_criterion_06_projector_lower_bound():
    violations = projector_violations(np.random.default_rng(6), 50, (2, 6))
    ok = violations == 0
    _report(6, ok, f"one-sided projector error vs 2c^2/(1+c^2) >= c^2: "
                   f"{violations} violations in 50 ensembles")
    assert ok


def test_criterion_07_ideal_hierarchy(fig2_curves):
    bits = {k: np.array([pt.bound.bits for pt in pts])
            for k, pts in fig2_curves.items()}
    gap_12 = np.max(np.abs(bits[1] - bits[2]) / bits[1])
    close_12 = gap_12 <= 0.005
    below_3 = bool(np.all(bits[1] < bits[3]) and np.all(bits[2] < bits[3]))
    above_3 = bool(all(np.all(bits[k] > bits[3]) for k in (4, 5, 6)))
    ok = close_12 and below_3 and above_3
    _report(7, ok,
            f"ideal-setting hierarchy: k1/k2 max relative gap "
            f"{100 * gap_12:.2f}% ({'<=' if close_12 else '>'} 0.5%), "
            f"k1,k2 < k3: {below_3}, k4,k5,k6 > k3: {above_3}")
    assert ok


def test_criterion_08_experimental_hierarchy(fig3_curves):
    bits = {k: np.array([pt.bound.bits for pt in pts])
            for k, pts in fig3_curves.items()}
    main_ok = bool(np.all(bits[2] < bits[1]))
    sweep_ok = True
    for p_dark in (0.0, 1e-10, 1e-9):
        for eps in (1e-5, 1e-3, 1e-2):
            noise = dataclasses.replace(PAPER_EXP_NOISE, p_dark=p_dark)
            for n in SWEEP_GRID:
                b1 = optimize_delta_for_qil("ring", 1, float(n), eps,
                                            noise=noise).bound.bits
                b2 = optimize_delta_for_qil("ring", 2, float(n), eps,
                                            noise=noise).bound.bits
                sweep_ok &= b2 < b1
    ok = main_ok and sweep_ok
    _report(8, ok, f"lossy-detector hierarchy: k2 < k1 on main grid: "
                   f"{main_ok}, stable over p_dark/epsilon sweep: {sweep_ok}")
    assert ok


def test_criterion_09_bound_comparison(fig3_curves):
    excesses = []
    for n, pt in zip(N_GRID, fig3_curves[2]):
        fa = fannes_audenaert_bound(float(n), pt.m_k, pt.mu, pt.mu)
        excesses.append(fa.bits / pt.bound.bits - 1.0)
    excesses = np.array(excesses)
    ok = bool(np.all((excesses >= 0.10) & (excesses <= 0.50)))
    _report(9, ok,
            f"typical-subspace bound exceeds majorization bound by "
            f"{100 * excesses.min():.1f}%..{100 * excesses.max():.1f}% "
            f"(required window 10%..50%)")
    assert ok


def test_criterion_10_monte_carlo_agreement():
    within = 0
    reps = 20
    trials = 10**5
    for k in (1, 2, 3):
        m = 1000 * k
        delta = 0.25
        mu = solve_amplitude(k, m, delta, EPSILON)
        x, y = worst_case_pair(m, delta, k, "even")
        p = ring_worst_case_error(k, mu, delta)
        sigma = math.sqrt(p * (1.0 - p) / trials)
        d_th = worst_case_error_with_threshold(k, m, mu, delta,
                                               IDEAL_NOISE).d_th
        for rep in range(reps):
            plan = TrialPlan(
                trials=trials, master_seed=1000 * k + rep,
                protocol=ProtocolInstance(family="ring", k=k, mu=mu),
                noise=IDEAL_NOISE, input_x=x, input_y=y)
            res = simulate_equality(plan, d_th)
            within += abs(res.empirical_error - p) < 3.0 * sigma
    frac = within / (3 * reps)

    # threshold-model check: scaled-up dark counts over 1e4 signals
    k, m, delta = 2, 2 * 10**4, 0.25
    noise = dataclasses.replace(PAPER_EXP_NOISE, p_dark=1e-5)
    mu = solve_amplitude(k, m, delta, EPSILON, noise)
    x, y = worst_case_pair(m, delta, k, "even")
    plan = TrialPlan(trials=2 * 10**4, master_seed=77,
                     protocol=ProtocolInstance(family="ring", k=k, mu=mu),
                     noise=noise, input_x=x, input_y=y)
    d_th = worst_case_error_with_threshold(k, m, mu * noise.eta, delta,
                                           noise).d_th
    res = simulate_equality(plan, d_th)
    probs = signal_click_probs(plan)
    # binomial prediction for the different-input (false-negative) side
    p_model = math.exp(log_binom_cdf(d_th, probs.size,
                                     float(probs.mean())))
    sigma = math.sqrt(max(p_model * (1.0 - p_model), 1e-300) / plan.trials)
    z = (res.empirical_error - p_model) / sigma
    ok = frac >= 0.95 and abs(z) < 3.0
    _report(10, ok,
            f"ideal worst-case pairs within 3 sigma in {100 * frac:.0f}% of "
            f"runs (need >= 95%); scaled-dark-count threshold model "
            f"z = {z:.2f} (need |z| < 3)")
    assert ok


def test_criterion_11_gray_vs_qary_sweep():
    violations = qary_violations(range(2, 7), 1e-9, 1000)
    ok = violations == 0
    _report(11, ok, f"binary-vs-2^k-ary signal-count inequality: "
                    f"{violations} violations over 5000 grid points")
    assert ok


def test_criterion_12_ed_estimator():
    rng = np.random.default_rng(12)
    trials = 10**5
    alpha = math.sqrt(0.5)
    dim = 128
    misses = 0
    worst_mode_dev = 0.0
    for pair in range(20):
        u = rng.normal(size=dim)
        v = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        plan = TrialPlan(
            trials=trials, master_seed=1200 + pair,
            protocol=ProtocolInstance(family="ed_real", s=dim, alpha=alpha),
            noise=IDEAL_NOISE, input_x=u, input_y=v)
        res = simulate_ed(plan)
        true = float(np.sum((u - v) ** 2))
        misses += abs(res.mean_estimate - true) >= 3.0 * res.std_error
        # exact identity: packing conserves the expected click intensity
        for sign in (-1.0, 1.0):
            real = np.sum(np.abs(encode_ed(u, alpha)
                                 + sign * encode_ed(v, alpha)) ** 2)
            cplx = np.sum(np.abs(encode_ed(u, alpha, "complex")
                                 + sign * encode_ed(v, alpha, "complex")) ** 2)
            worst_mode_dev = max(worst_mode_dev, abs(real - cplx))
    ok = misses == 0 and worst_mode_dev < 1e-12
    _report(12, ok,
            f"distance estimator: {misses}/20 pairs outside 3 sigma at 1e5 "
            f"runs; variant click-mean identity deviation "
            f"{worst_mode_dev:.2e} (tol 1e-12)")
    assert ok


def test_criterion_13_logarithmic_leakage_scaling():
    delta = 0.25
    ratios = {"k=1": [], "k=m/10": [], "k=m": []}
    for n in np.logspace(3, 8, 6):
        m = gv_binary_length(int(n), delta)
        for name, k in (("k=1", 1), ("k=m/10", max(1, m // 10)),
                        ("k=m", m)):
            bits = qil_interpolation(k, m).bits
            ratios[name].append(bits / math.log2(n))
    spread = {name: max(vals) / min(vals) for name, vals in ratios.items()}
    interp_ok = all(s < 3.0 for s in spread.values())

    asym = [asymptotic_bound(m_k, 8.0, 8.0, 64).bits / math.log2(m_k)
            for m_k in (1e4, 1e6, 1e8, 1e10)]
    asym_ok = max(asym) / min(asym) < 2.0
    ok = interp_ok and asym_ok
    _report(13, ok,
            f"leakage/log2(n) ratio spread {max(spread.values()):.2f} "
            f"(need < 3) per k regime; window-bound/log2(m_k) spread "
            f"{max(asym) / min(asym):.2f} (need < 2)")
    assert ok
