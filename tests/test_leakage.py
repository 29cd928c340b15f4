"""Tests for the information-leakage bounds."""

import csv
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qfp import leakage
from qfp.analysis import InfeasibleError, NoiseModel
from qfp.codes import binary_entropy, gv_binary_rate
from qfp.leakage import (_coherent_family_qil, _log2_fock_dim,
                         _log_poisson_tail_bound, _poisson_pmf, _typical_tail,
                         asymptotic_bound, classical_reference,
                         fannes_audenaert_bound, lambda_interpolation,
                         lambda_ring, lambda_ring_series,
                         optimize_delta_for_qil, qil_interpolation, qil_ring,
                         shannon_entropy)


class TestShannonEntropy:
    def test_uniform(self):
        assert shannon_entropy(np.full(8, 0.125)) == pytest.approx(3.0,
                                                                   abs=1e-12)

    def test_point_mass(self):
        h = shannon_entropy(np.array([1.0, 0.0]))
        assert h == 0.0
        assert math.copysign(1.0, h) == 1.0  # not -0.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            shannon_entropy(np.array([0.5, 0.2]))


def _lambda_ring_inline(k, beta_k):
    """lambda_ring with its roots of unity and DFT phase matrix built on
    every call, the reference for the cached table."""
    b2 = abs(beta_k) ** 2
    two_k = 1 << k
    j = np.arange(two_k)
    omega_j = np.exp(2j * np.pi * j / two_k)
    gen = np.exp(b2 * (omega_j - 1.0))
    phases = np.exp(-2j * np.pi * np.outer(j, j) / two_k)
    vec = (phases @ gen).real / two_k
    return np.clip(vec, 0.0, None)


def _mp_ring(k, b2):
    """Lambda of one ring signal to 50 digits: the Poisson(b2) series folded
    mod 2^k, summed until its terms past the mean fall below 1e-60."""
    with mpmath.workdps(50):
        b2 = mpmath.mpf(b2)
        vec = [mpmath.mpf(0)] * (1 << k)
        term, h = mpmath.exp(-b2), 0
        while h <= b2 or term > mpmath.mpf(10) ** -60:
            vec[h % (1 << k)] += term
            h += 1
            term *= b2 / h
        return vec


def _mp_entropy(vec):
    with mpmath.workdps(50):
        return -sum(p * mpmath.log(p, 2) for p in vec if p > 0)


class TestLambdaVectors:
    def test_interpolation_shape_and_sum(self):
        lam = lambda_interpolation(3, 0.1)
        assert lam.size == 7
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        assert lam[0] == pytest.approx(0.9)

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("b2", [0.01, 0.5, 2.0, 10.0])
    def test_ring_filter_matches_series(self, k, b2):
        beta = math.sqrt(b2)
        got = lambda_ring(k, beta)
        want = lambda_ring_series(k, beta)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("k", range(1, 9))
    def test_series_matches_mpmath(self, k):
        # every term of the series is positive, so it cannot cancel
        for b2 in np.logspace(-12.0, 2.0, 29):
            beta = math.sqrt(b2)
            got = lambda_ring_series(k, beta)
            want = _mp_ring(k, abs(beta) ** 2)
            for g, w in zip(got, want):
                if g > 1e-16:
                    assert abs(g - w) <= 1e-12 * w, (k, b2)

    def test_poisson_pmf_of_the_vacuum(self):
        assert _poisson_pmf(0.0).tolist() == [1.0]

    def test_report_ring_filter_entropy_error_at_fig2(self):
        # no assertion: the DFT filter cancels at weak light, and how much
        # it errs at the fig2 design points is printed for the record
        path = Path(__file__).parent / "data" / "fig2.csv"
        for row in csv.DictReader(path.read_text().splitlines()):
            k, b2 = int(row["k"]), float(row["mu"]) / float(row["m_k"])
            got = shannon_entropy(lambda_ring(k, math.sqrt(b2)))
            want = _mp_entropy(_mp_ring(k, b2))
            print(f"n={row['n']} k={k} beta^2={b2:.3g}: H(lambda_ring) "
                  f"relative error {float(abs(got - want) / want):.2e}")

    @pytest.mark.parametrize("k", range(1, 9))
    def test_ring_equals_inline_table(self, k):
        # the cached DFT table gives the same bits as one built per call
        for b2 in np.logspace(-12.0, 2.0, 29):
            beta = math.sqrt(b2)
            assert np.array_equal(lambda_ring(k, beta),
                                  _lambda_ring_inline(k, beta))

    def test_ring_sums_to_one(self):
        for k in (1, 4, 8):
            assert lambda_ring(k, 1.3).sum() == pytest.approx(1.0, abs=1e-12)

    def test_ring_vacuum_is_point_mass(self):
        lam = lambda_ring(3, 0.0)
        assert lam[0] == pytest.approx(1.0, abs=1e-12)


class TestMajorizationBounds:
    @pytest.mark.parametrize("k,m,p_k", [
        (1, 100, None), (3, 300, None), (7, 50, None), (2000, 10**5, None),
        (4, 100, 0.0), (4, 100, 0.37), (4, 100, 1.0), (1, 2, 0.5)])
    def test_interpolation_closed_form_entropy(self, k, m, p_k):
        # the closed form against the entropy of the materialized vector
        got = qil_interpolation(k, m, p_k).subterms["per_signal_entropy"]
        want = shannon_entropy(lambda_interpolation(
            k, k / m if p_k is None else p_k))
        assert got == pytest.approx(want, rel=1e-12)

    def test_interpolation_below_analytic_cap(self):
        for k, m in [(1, 100), (3, 300), (5, 1000)]:
            bound = qil_interpolation(k, m)
            assert bound.bits <= bound.subterms["analytic_bound"] + 1e-9

    def test_ring_monotone_in_amplitude(self):
        k, m = 2, 1000
        bits = [qil_ring(k, m, b).bits for b in (0.01, 0.05, 0.2, 0.5)]
        assert all(a < b for a, b in zip(bits, bits[1:]))

    def test_ring_scales_with_signals(self):
        assert qil_ring(2, 2000, 0.1).bits == pytest.approx(
            2.0 * qil_ring(2, 1000, 0.1).bits, rel=1e-12)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_ring_vacuum_leaks_nothing(self, k):
        # the inverse DFT of the vacuum leaves round-off off index 0
        assert qil_ring(k, 1001, 0.0).bits == 0.0


def _exact_log_tail(mu, shift):
    """-mu + s (1 + log mu - log s), s = mu + shift, at 200 digits."""
    with mpmath.workdps(200):
        mu, s = mpmath.mpf(mu), mpmath.mpf(mu) + mpmath.mpf(shift)
        return float(-mu + s * (1 + mpmath.log(mu) - mpmath.log(s)))


class TestPoissonTailBound:
    def test_matches_mpmath_and_never_positive(self):
        # near s = mu the two logs cancel; the exponent of a Chernoff bound
        # is <= 0, so a positive value would overflow exp to a bound > 1
        shifts = [*-np.logspace(-3, 6, 19), 0.0, *np.logspace(-3, 60, 64)]
        worst = 0.0
        for mu in np.logspace(-6, 100, 107):
            for shift in shifts:
                if mu + shift <= 0.0:
                    continue
                got = _log_poisson_tail_bound(mu, shift)
                want = _exact_log_tail(mu, shift)
                assert got <= 0.0, (mu, shift)
                scale = max(1.0, abs(shift), abs(want))
                worst = max(worst, abs(got - want) / scale)
        assert worst <= 1e-15


def _window_dim(m_k, mu_min, mu_max, radius):
    """The typical window's Fock count, as fannes_audenaert_bound takes it."""
    return _log2_fock_dim(mu_max + radius,
                          mu_max - mu_min + 2.0 * radius + 1.0, m_k)


def _window_bits(n, m_k, mu_min, mu_max, radius, eps):
    """Typical-subspace bound for one window radius and tail budget eps."""
    gamma = math.sqrt(2.0 * eps)
    return (_window_dim(m_k, mu_min, mu_max, radius) + 2.0 * n * gamma
            + binary_entropy(gamma))


# the lattice's delta-grid edges reach an optimal radius of 2036; the
# brute force is a true minimum only when dim(_BRUTE_MAX_RADIUS) reaches it
_BRUTE_MAX_RADIUS = 3000


def _brute_force_minimum(n, m_k, mu_min, mu_max):
    """(bits, radius) minimized over every radius 1.._BRUTE_MAX_RADIUS whose
    tail bound is below 1/2, with the tail bound as the budget."""
    candidates = []
    for radius in range(1, _BRUTE_MAX_RADIUS + 1):
        eps = _typical_tail(mu_min, mu_max, radius)
        if eps < 0.5:
            candidates.append(
                (_window_bits(n, m_k, mu_min, mu_max, radius, eps), radius))
    return min(candidates)


def _fixed_budget_bits(n, m_k, mu_min, mu_max, eps):
    """Bound at a fixed tail budget: the least radius whose tail fits it."""
    radius = 1
    while _typical_tail(mu_min, mu_max, radius) > eps:
        radius += 1
    return _window_bits(n, m_k, mu_min, mu_max, radius, eps)


def _assert_equals_brute_force(n, m_k, mu_min, mu_max):
    bound = fannes_audenaert_bound(n, m_k, mu_min, mu_max)
    bits, radius = _brute_force_minimum(n, m_k, mu_min, mu_max)
    assert _window_dim(m_k, mu_min, mu_max, _BRUTE_MAX_RADIUS) >= bits
    assert bound.bits == bits
    assert bound.subterms["window_radius"] == radius
    assert bound.subterms["eps_prime"] == _typical_tail(mu_min, mu_max, radius)
    return bound


class TestFannesAudenaert:
    @pytest.mark.parametrize("n,m_k,mu_min,mu_max", [
        (1e4, 1e4, 8.0, 8.0),
        (1e4, 1e4, 0.0, 0.0),                   # vacuum: no tail at all
        (1e5, 1e5, 500.0, 600.0),               # lower tail active
        (1e6, 1e6, 1e4, 1e4),                   # hundreds of radii
        (1e3, 1.0, 1e5, 1e5),                   # best budget just below 1/2
        # criterion 9 at n = 1e8: ring k = 2 under paper-exp at its
        # optimal distance
        (1e8, 2034991724.6037874, 26.511637264483028, 26.511637264483028),
        # lattice design points: the first radius below 1/2 is 253 or 361,
        # the optimum 253 (the first), 1292 and 2036
        (1e3, 500.737603278524, 23048.853778024848, 23048.853778024848),
        (1e5, 33382.50688523493, 17470.212782256378, 87351.0639112819),
        (1e8, 33382506.885234933, 17470.03834004744, 87350.1917002372),
    ])
    def test_equals_brute_force_radius_minimum(self, n, m_k, mu_min, mu_max):
        bound = _assert_equals_brute_force(n, m_k, mu_min, mu_max)
        for eps in (1e-10, 1e-7, 1e-5, 1e-3, 1e-1):
            assert bound.bits <= _fixed_budget_bits(n, m_k, mu_min, mu_max,
                                                    eps)

    @given(n=st.floats(min_value=1e3, max_value=1e8),
           m_k=st.floats(min_value=1.0, max_value=1e10),
           mu=st.lists(st.floats(min_value=0.0, max_value=1e5),
                       min_size=2, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_property_equals_brute_force(self, n, m_k, mu):
        mu_min, mu_max = sorted(mu)
        _assert_equals_brute_force(n, m_k, mu_min, mu_max)

    def test_monotone_in_photon_number(self):
        n, m_k = 1e4, 1e4
        bits = [fannes_audenaert_bound(n, m_k, mu, mu).bits
                for mu in (2.0, 8.0, 32.0)]
        assert all(a < b for a, b in zip(bits, bits[1:]))

    def test_photon_range_ordering_check(self):
        # a NaN or infinite photon number would never end the radius scan
        for mu_min, mu_max in [(5.0, 2.0), (-1.0, 2.0), (math.nan, math.nan),
                               (1.0, math.inf)]:
            with pytest.raises(ValueError):
                fannes_audenaert_bound(1e3, 1e3, mu_min, mu_max)


class TestAsymptoticBound:
    def test_logarithmic_slope_in_mode_count(self):
        mu, delta = 8.0, 64
        ratios = []
        for m_k in (1e4, 1e6, 1e8, 1e10):
            bits = asymptotic_bound(m_k, mu, mu, delta).bits
            ratios.append(bits / math.log2(m_k))
        assert max(ratios) / min(ratios) < 2.0

    def test_requires_wide_window(self):
        with pytest.raises(ValueError):
            asymptotic_bound(1e4, 10.0, 10.0, Delta=5)

    @pytest.mark.parametrize("mu", [0.01, 0.1])
    def test_index_entropy_is_exact_at_weak_light(self, mu):
        # below mu ~ 0.3 the Gaussian entropy 1/2 log2(2 pi e mu) is smaller
        # than the Poisson entropy (negative at mu = 0.01), so it is no bound
        index = asymptotic_bound(1e4, mu, mu, 64).subterms["index_entropy"]
        assert index == shannon_entropy(_poisson_pmf(mu)) >= 0.0
        assert index == pytest.approx(
            stats.poisson(mu).entropy() / math.log(2.0), rel=1e-9)


class TestClassicalReference:
    def test_sqrt_scaling(self):
        assert classical_reference(4e6).bits == pytest.approx(
            2.0 * classical_reference(1e6).bits, rel=1e-12)

    def test_flagged_reference_only(self):
        assert classical_reference(100.0).subterms["reference_only"]


class TestDeltaOptimization:
    def test_local_optimality_probe(self):
        opt = optimize_delta_for_qil("ring", 2, 1e4, 0.01)
        for shift in (-0.01, 0.01):
            delta = opt.delta + shift
            probe = _coherent_family_qil("ring", 2, 1e4,
                                         1e4 / gv_binary_rate(delta), delta,
                                         0.01, NoiseModel(), "beamsplitter")
            assert opt.bound.bits <= probe.bound.bits + 1e-6

    def test_lattice_uses_typical_subspace(self):
        opt = optimize_delta_for_qil("lattice", 2, 1e3, 0.01)
        assert opt.bound.method == "fannes_audenaert"

    def test_ring_uses_majorization(self):
        opt = optimize_delta_for_qil("ring", 2, 1e3, 0.01)
        assert opt.bound.method == "schur_horn"

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            optimize_delta_for_qil("torus", 2, 1e3, 0.01)
        with pytest.raises(ValueError):  # no coherent-state bound
            optimize_delta_for_qil("interpolation", 2, 1e3, 0.01)

    def test_ring_k_cap_enforced_below_the_cli(self):
        # k = 13's DFT phase matrix alone is 1 GiB; under a 2 GiB address
        # space a regression dies with MemoryError instead of taking the host;
        # the vacuum, which needs no DFT, is capped too
        code = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            from qfp import leakage
            k = leakage.FAMILIES["ring"].k_max + 1
            for call in (lambda: leakage.lambda_ring(k, 0.1),
                         lambda: leakage.qil_ring(k, 1000.0, 0.1),
                         lambda: leakage.lambda_ring(k, 0.0),
                         lambda: leakage.qil_ring(k, 1000.0, 0.0),
                         lambda: leakage.optimize_delta_for_qil(
                             "ring", k, 1e3, 0.01)):
                try:
                    call()
                except ValueError as exc:
                    print(exc)
            """)
        src = Path(leakage.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", code], cwd=src,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == [
            "the ring needs k <= 12, got k = 13",
            "the ring needs k <= 12, got k = 13",
            "the ring needs k <= 12, got k = 13",
            "the ring needs k <= 12, got k = 13",
            "the ring family needs 1 <= k <= 12, got k = 13"]

    def test_lattice_k_range_checked_before_the_scan(self, monkeypatch):
        monkeypatch.setattr(leakage, "_coherent_family_qil", None)
        for k in (1, leakage.FAMILIES["lattice"].k_max + 1):
            with pytest.raises(ValueError, match="lattice family needs 2"):
                optimize_delta_for_qil("lattice", k, 1e3, 0.01)

    @pytest.mark.parametrize("family,hook", [("ring", "qil_ring"),
                                             ("lattice", "lattice_mu_range")])
    def test_bounds_resolve_through_module_globals(self, monkeypatch, family,
                                                   hook):
        # the benchmark's tracer rebinds module globals only, so each delta
        # evaluation and each family's bound must be reached through them
        calls = {"_coherent_family_qil": 0, hook: 0}
        for name in calls:
            def spy(*args, _real=getattr(leakage, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(leakage, name, spy)
        optimize_delta_for_qil(family, 2, 1e3, 0.01)
        assert calls["_coherent_family_qil"] == calls[hook] > 0

    def test_optimal_lb_below_beamsplitter_amplitude(self):
        bs = optimize_delta_for_qil("ring", 3, 1e4, 0.01,
                                    measurement="beamsplitter")
        lb = optimize_delta_for_qil("ring", 3, 1e4, 0.01,
                                    measurement="optimal_lb")
        assert lb.mu < bs.mu

    def test_optimal_lb_is_half_the_ideal_beamsplitter_amplitude(self):
        args = ("ring", 3, 1e4, 1e4 / gv_binary_rate(0.3), 0.3, 0.01,
                NoiseModel())
        lb = _coherent_family_qil(*args, "optimal_lb")
        bs = _coherent_family_qil(*args, "beamsplitter")
        assert lb.mu == bs.mu / 2.0

    @pytest.mark.parametrize("noise", [NoiseModel(visibility=0.9),
                                       NoiseModel(eta=0.5),
                                       NoiseModel(p_dark=1e-9)],
                             ids=["visibility", "eta", "p_dark"])
    def test_optimal_lb_rejects_noise(self, noise):
        with pytest.raises(ValueError, match="without noise"):
            _coherent_family_qil("ring", 4, 1e4, 5e4, 0.3, 0.01, noise,
                                 "optimal_lb")

    def test_optimal_lb_infeasible_at_zero_distance(self):
        with pytest.raises(InfeasibleError):
            _coherent_family_qil("ring", 4, 1e4, 1e4, 0.0, 0.01, NoiseModel(),
                                 "optimal_lb")
