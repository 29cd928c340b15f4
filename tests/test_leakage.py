"""Tests for the information-leakage bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qfp.analysis import NoiseModel
from qfp.codes import binary_entropy, gv_binary_rate
from qfp.leakage import (_log2_dim_window, _poisson_entropy, _typical_tail,
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
        assert shannon_entropy(np.array([1.0, 0.0])) == 0.0

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


def _window_bits(n, m_k, mu_min, mu_max, radius, eps):
    """Typical-subspace bound for one window radius and tail budget eps."""
    gamma = math.sqrt(2.0 * eps)
    return (_log2_dim_window(mu_max, mu_min, radius, m_k) + 2.0 * n * gamma
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
    assert _log2_dim_window(mu_max, mu_min, _BRUTE_MAX_RADIUS, m_k) >= bits
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
            bits = asymptotic_bound(1e6, m_k, mu, mu, delta).bits
            ratios.append(bits / math.log2(m_k))
        assert max(ratios) / min(ratios) < 2.0

    def test_requires_wide_window(self):
        with pytest.raises(ValueError):
            asymptotic_bound(1e4, 1e4, 10.0, 10.0, Delta=5)

    @pytest.mark.parametrize("mu", [0.01, 0.1])
    def test_index_entropy_is_exact_at_weak_light(self, mu):
        # below mu ~ 0.3 the Gaussian entropy 1/2 log2(2 pi e mu) is smaller
        # than the Poisson entropy (negative at mu = 0.01), so it is no bound
        index = asymptotic_bound(1e6, 1e4, mu, mu, 64).subterms["index_entropy"]
        assert index == _poisson_entropy(mu) >= 0.0
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
            from qfp.leakage import _coherent_family_qil
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

    def test_optimal_lb_below_beamsplitter_amplitude(self):
        bs = optimize_delta_for_qil("ring", 3, 1e4, 0.01,
                                    measurement="beamsplitter")
        lb = optimize_delta_for_qil("ring", 3, 1e4, 0.01,
                                    measurement="optimal_lb")
        assert lb.mu < bs.mu
