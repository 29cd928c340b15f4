"""Tests for closed-form error probabilities, the binomial click model, and
the parameter solvers, including an exact big-rational threshold oracle and
the scipy.stats oracle of the binomial tail kernels."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qfp import checks
from qfp.analysis import (InfeasibleError, NoiseModel, ThresholdResult,
                          _use_poisson, ed_estimate, ed_repetition_plan,
                          experimental_click_probs, interp_nd_prob,
                          interp_worst_case_error, log_binom_cdf,
                          log_binom_sf, no_click_prob,
                          optimal_measurement_error_lb, optimal_threshold,
                          qary_ring_error, ring_error_exponent,
                          ring_worst_case_error, solve_amplitude,
                          solve_repetition, worst_case_error_with_threshold)
from qfp.constellations import ring_constellation


class TestNoClickProb:
    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
           st.floats(-2, 2))
    @settings(max_examples=100)
    def test_squared_distance_law(self, ar, ai, br, bi):
        a, b = complex(ar, ai), complex(br, bi)
        assert no_click_prob(a, b) == pytest.approx(
            math.exp(-0.5 * abs(a - b) ** 2), rel=1e-12)

    def test_zero_visibility_ignores_phase(self):
        assert no_click_prob(1.0, 1.0, 0.0) == pytest.approx(
            no_click_prob(1.0, -1.0, 0.0), rel=1e-12)


class TestInterpolation:
    def test_nd_prob_no_difference(self):
        assert interp_nd_prob(0, 4, 0.3) == 1.0

    def test_nd_prob_decreasing_in_d(self):
        vals = [interp_nd_prob(d, 5, 0.4) for d in range(6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_worst_case_error_bound(self):
        # consolidated worst case never exceeds 2^(-delta * r) at p_k = k/m
        rng = np.random.default_rng(1)
        for _ in range(500):
            k = int(rng.integers(1, 7))
            m = int(rng.integers(k, 200))
            delta = float(rng.uniform(0.01, 0.49))
            r = int(rng.integers(1, 30))
            err = interp_worst_case_error(k, m, delta, k / m, r)
            assert err <= 2.0 ** (-delta * r) + 1e-12

    def test_solve_repetition_minimal(self):
        k, m, delta, p_k, eps = 3, 60, 0.25, 0.05, 0.01
        r = solve_repetition(k, m, delta, p_k, eps)
        assert interp_worst_case_error(k, m, delta, p_k, r) <= eps
        if r > 1:
            assert interp_worst_case_error(k, m, delta, p_k, r - 1) > eps

    def test_solve_repetition_infeasible(self):
        with pytest.raises(InfeasibleError):
            solve_repetition(3, 60, 0.0, 0.5, 0.01)


class TestRingError:
    def test_k1_exponent_exact(self):
        for delta in np.linspace(0.0, 0.5, 100):
            assert ring_error_exponent(1, float(delta)) == pytest.approx(
                2.0 * delta, abs=1e-14)

    def test_worst_case_error_k1(self):
        for delta in np.linspace(0.01, 0.5, 50):
            for mu in (1.0, 5.0, 20.0):
                assert ring_worst_case_error(1, mu, float(delta)) == \
                    pytest.approx(math.exp(-2.0 * mu * delta), rel=1e-12)

    def test_integer_step_matches_pair_step(self):
        k, beta = 3, 0.8
        points = ring_constellation(k, beta).points
        for steps in range(1, (1 << (k - 1)) + 1):
            delta = steps / k
            err = ring_worst_case_error(k, beta ** 2, delta)
            assert err == pytest.approx(no_click_prob(points[0], points[steps]),
                                        rel=1e-12)

    def test_exponent_monotone_to_half_turn(self):
        k = 4
        deltas = np.linspace(0.0, (1 << (k - 1)) / (1 << k), 50)
        g = [ring_error_exponent(k, float(d)) for d in deltas]
        assert all(a <= b + 1e-15 for a, b in zip(g, g[1:]))


class TestClickModel:
    def test_reduces_to_ring_model_when_ideal(self):
        k, beta, delta = 2, 0.4, 0.3
        p_D, p_E = experimental_click_probs(k, beta, delta, 0.0, 1.0)
        assert p_E == 0.0
        kd = k * delta
        lo, frac = math.floor(kd), k * delta - math.floor(kd)
        points = ring_constellation(k, beta).points
        expect = ((1.0 - frac) * (1.0 - no_click_prob(points[0], points[lo]))
                  + frac * (1.0 - no_click_prob(points[0], points[lo + 1])))
        assert p_D == pytest.approx(expect, rel=1e-12)

    def test_dark_counts_additive(self):
        p_D, p_E = experimental_click_probs(1, 0.2, 0.25, 1e-6, 1.0)
        assert p_E == 1e-6
        assert p_D > 1e-6

    def test_visibility_raises_equal_clicks(self):
        _, p_E = experimental_click_probs(1, 0.5, 0.25, 0.0, 0.98)
        assert p_E > 0.0


def _exact_binom_sf(t, m, p_frac):
    """P(Bin(m, p) >= t) as an exact Fraction."""
    total = Fraction(0)
    for j in range(t, m + 1):
        total += (Fraction(math.comb(m, j)) * p_frac ** j
                  * (1 - p_frac) ** (m - j))
    return total


class TestBinomialTails:
    @pytest.mark.parametrize("m,p,t", [(20, Fraction(1, 10), 3),
                                       (50, Fraction(1, 100), 2),
                                       (30, Fraction(7, 10), 25),
                                       (10, Fraction(1, 2), 5)])
    def test_log_sf_matches_exact(self, m, p, t):
        exact = float(_exact_binom_sf(t, m, p))
        assert math.exp(log_binom_sf(t, m, float(p))) == pytest.approx(
            exact, rel=1e-10)

    @pytest.mark.parametrize("m,p,t", [(20, Fraction(1, 10), 3),
                                       (30, Fraction(7, 10), 25)])
    def test_log_cdf_matches_exact(self, m, p, t):
        exact = 1.0 - float(_exact_binom_sf(t, m, p))
        assert math.exp(log_binom_cdf(t, m, float(p))) == pytest.approx(
            exact, rel=1e-10)

    def test_deep_tail_does_not_underflow(self):
        # the lossy-detector regime: tiny p over many signals
        log_val = log_binom_sf(1, 10**6, 7.3e-11)
        assert -15.0 < log_val < -9.0

    def test_edge_cases(self):
        assert log_binom_sf(0, 10, 0.3) == 0.0
        assert log_binom_sf(11, 10, 0.3) == -math.inf
        assert log_binom_cdf(0, 10, 0.3) == -math.inf


_PROBS = st.one_of(st.sampled_from([0.0, 1e-12, 7.3e-11, 1e-6, 0.5, 1.0]),
                   st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e),
                   st.floats(0.0, 1.0))
_SIZES = st.one_of(st.integers(1, 100),
                   st.floats(0.0, 7.0).map(lambda e: int(10.0 ** e)))


def _stats_tail(kind, t, m, p):
    """The scipy.stats evaluation the compiled kernels replace."""
    if kind == "sf":
        if t <= 0:
            return 0.0
        if t > m or p == 0.0:
            return -math.inf
    else:
        if t <= 0:
            return -math.inf
        if t > m or p == 0.0:
            return 0.0
    if _use_poisson(m, p):
        dist = stats.poisson(m * p)
    else:
        dist = stats.binom(m, p)
    return float(dist.logsf(t - 1) if kind == "sf" else dist.logcdf(t - 1))


def _assert_matches_stats(t, m, p):
    assert log_binom_sf(t, m, p) == _stats_tail("sf", t, m, p)
    assert log_binom_cdf(t, m, p) == _stats_tail("cdf", t, m, p)


class TestTailKernelOracle:
    """The kernels are scipy's private ufuncs behind scipy.stats; these
    tests fail if a scipy release moves or changes them."""

    @given(st.data(), _SIZES, _PROBS)
    @settings(max_examples=400, deadline=None)
    def test_equals_scipy_stats(self, data, m, p):
        t = data.draw(st.one_of(st.integers(-2, min(m + 2, 60)),
                                st.integers(-2, m + 2)), label="t")
        _assert_matches_stats(t, m, p)

    @pytest.mark.parametrize("m,p", [
        (10**6, 7.3e-11),    # Poisson branch
        (10**7, 1e-12),      # Poisson branch, largest m
        (10**6, 1e-3),       # binomial branch, sf underflow
        (10**4, 0.999),      # cdf underflow at small t
        (10, 1.0),
    ])
    def test_edges_equal_scipy_stats(self, m, p):
        for t in list(range(-2, 6)) + [200, m // 2, m - 1, m, m + 1, m + 2]:
            _assert_matches_stats(t, m, p)

    def test_both_branches_and_underflow_covered(self):
        assert _use_poisson(10**6, 7.3e-11)
        assert not _use_poisson(10**6, 1e-3)
        assert log_binom_sf(5000, 10**6, 1e-3) == -math.inf
        assert _stats_tail("sf", 5000, 10**6, 1e-3) == -math.inf
        assert log_binom_cdf(3, 10**4, 0.999) == -math.inf
        assert log_binom_sf(200, 10**6, 7.3e-11) == -math.inf


def _bisection_threshold(m_k: int, p_D: float, p_E: float) -> ThresholdResult:
    """The bisection search that preceded the galloping one, kept verbatim
    as the reference for d_th and the error it reports."""
    if not 0.0 <= p_E <= p_D <= 1.0:
        raise ValueError(f"need 0 <= p_E <= p_D <= 1, got p_E={p_E}, p_D={p_D}")

    def objective(t: int) -> float:
        return max(log_binom_sf(t, m_k, p_E), log_binom_cdf(t, m_k, p_D))

    lo, hi = 0, m_k + 1
    # smallest t where the false-positive tail drops to (or below) the
    # false-negative tail
    while lo < hi:
        mid = (lo + hi) // 2
        if log_binom_sf(mid, m_k, p_E) <= log_binom_cdf(mid, m_k, p_D):
            hi = mid
        else:
            lo = mid + 1
    candidates = {max(0, lo - 1), lo, min(m_k + 1, lo + 1)}
    best = min(candidates, key=lambda t: (objective(t), t))
    log_err = objective(best)
    return ThresholdResult(d_th=best, worst_case_error=math.exp(log_err),
                           log_worst_case_error=log_err, p_D=p_D, p_E=p_E)


def _same_threshold(m_k, p_D, p_E):
    got = optimal_threshold(m_k, p_D, p_E)
    want = _bisection_threshold(m_k, p_D, p_E)
    assert (got.d_th, got.log_worst_case_error) == \
        (want.d_th, want.log_worst_case_error)
    return got


class TestGallopingThreshold:
    @pytest.mark.parametrize("m_k,p_D,p_E", [
        (10**6, 0.31, 0.3),          # crossing near 3e5
        (10**6, 0.3001, 0.3),        # tails nearly equal over a wide range
        (10**5, 0.2, 0.1),
        (10**6, 2e-3, 1e-3),
        (999_999, 0.05, 0.02),
        (10**6, 1e-4, 7.3e-11),      # the Fig. 3 regime: d_th = 8
        (1000, 0.1, 0.1),            # p_E = p_D
        (10**6, 7.3e-11, 7.3e-11),
        (10**6, 0.3, 0.3),
        (100, 1.0, 0.5),             # p_D = 1
        (10**6, 1.0, 0.3),
        (1000, 0.01, 0.0),           # p_E = 0
        (10**6, 1e-9, 0.0),
        (1, 0.5, 0.1),
        (1, 1.0, 1.0),
    ])
    def test_matches_bisection(self, m_k, p_D, p_E):
        _same_threshold(m_k, p_D, p_E)

    @pytest.mark.parametrize("m_k,p_E", [(10, 0.5), (1000, 0.9), (7, 1.0)])
    def test_no_crossing_up_to_m_k(self, m_k, p_E):
        # with p_D = 1 the false-negative tail is 0 for every t <= m_k, so
        # the first crossing is m_k + 1
        assert all(log_binom_sf(t, m_k, p_E) > log_binom_cdf(t, m_k, 1.0)
                   for t in range(m_k + 1))
        got = _same_threshold(m_k, 1.0, p_E)
        assert got.d_th in (m_k, m_k + 1)

    @given(_SIZES.filter(lambda m: m <= 10**6), _PROBS, _PROBS)
    @settings(max_examples=300, deadline=None)
    def test_matches_bisection_random(self, m_k, p_a, p_b):
        _same_threshold(m_k, max(p_a, p_b), min(p_a, p_b))


class TestOptimalThreshold:
    def _brute_force(self, m, p_D, p_E):
        pd, pe = Fraction(p_D), Fraction(p_E)
        best_t, best_err = 0, None
        for t in range(m + 2):
            fp = _exact_binom_sf(t, m, pe)
            fn = 1 - _exact_binom_sf(t, m, pd)
            err = max(fp, fn)
            if best_err is None or err < best_err:
                best_t, best_err = t, err
        return best_t, float(best_err)

    @pytest.mark.parametrize("m,p_D,p_E", [
        (30, Fraction(3, 10), Fraction(1, 100)),
        (50, Fraction(1, 2), Fraction(1, 10)),
        (20, Fraction(9, 10), Fraction(1, 3)),
        (40, Fraction(1, 20), Fraction(1, 50)),
    ])
    def test_matches_exact_brute_force(self, m, p_D, p_E):
        want_t, want_err = self._brute_force(m, p_D, p_E)
        got = optimal_threshold(m, float(p_D), float(p_E))
        assert got.worst_case_error == pytest.approx(want_err, rel=1e-9)
        assert got.d_th == want_t

    def test_zero_dark_counts_gives_one_click(self):
        res = optimal_threshold(1000, 0.01, 0.0)
        assert res.d_th == 1

    def test_decision_needs_one_click(self):
        # with no light and no dark counts every threshold errs with
        # probability 1; the search takes t = 0 on that tie, the decision
        # rule floors it to one click without moving the error
        search = optimal_threshold(1000, 0.0, 0.0)
        rule = worst_case_error_with_threshold(2, 2000, 0.0, 0.25,
                                               NoiseModel())
        assert search.d_th == 0
        assert rule.d_th == 1
        assert rule.worst_case_error == search.worst_case_error == 1.0

    def test_ordering_check(self):
        with pytest.raises(ValueError):
            optimal_threshold(10, 0.1, 0.5)


class TestSolveAmplitude:
    def test_ideal_closed_form(self):
        k, delta, eps = 1, 0.25, 0.01
        mu = solve_amplitude(k, 1000, delta, eps)
        assert mu == pytest.approx(math.log(1.0 / eps) / (2.0 * delta),
                                   rel=1e-12)

    def test_eta_rescales_launch(self):
        mu_ideal = solve_amplitude(1, 1000, 0.25, 0.01)
        mu_lossy = solve_amplitude(1, 1000, 0.25, 0.01, NoiseModel(eta=0.5))
        assert mu_lossy == pytest.approx(2.0 * mu_ideal, rel=1e-12)

    def test_noisy_solution_attains_epsilon(self):
        noise = NoiseModel(eta=0.3, p_dark=1e-7)
        k, m, delta, eps = 2, 10000, 0.3, 0.01
        mu = solve_amplitude(k, m, delta, eps, noise)
        res = worst_case_error_with_threshold(k, m, mu * noise.eta, delta,
                                              noise)
        assert res.worst_case_error <= eps * (1.0 + 1e-6)
        res_low = worst_case_error_with_threshold(k, m, 0.9 * mu * noise.eta,
                                                  delta, noise)
        assert res_low.worst_case_error > eps

    def test_infeasible_dark_counts(self):
        # ten signals cannot beat a 0.49 dark-count floor down to 1e-12
        noise = NoiseModel(eta=0.3, p_dark=0.49)
        with pytest.raises(InfeasibleError):
            solve_amplitude(1, 10, 0.25, 1e-12, noise, mu_cap=1e4)


class TestQaryComparison:
    def test_qary_error_form(self):
        assert qary_ring_error(4, 10.0, 0.3) == pytest.approx(
            math.exp(-10.0 * 0.3 * (1.0 - math.cos(math.pi / 2))), rel=1e-12)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_gray_wins_across_grid(self, k):
        assert checks.qary_violations([k], 1e-6, 100) == 0


class TestMeasurementBound:
    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_dominates_squared_overlap(self, c):
        assert optimal_measurement_error_lb(c) >= c * c - 1e-15


class TestEdEstimator:
    def test_arithmetic(self):
        dark = np.array([1, 0, 1])
        light = np.array([1, 1, 1])
        assert ed_estimate(dark, light, 1.0) == pytest.approx(1.0)

    def test_runs_normalization(self):
        dark = np.array([2, 0])
        light = np.array([4, 2])
        assert ed_estimate(dark, light, 1.0, runs=2) == pytest.approx(0.0)

    def test_plan_quadratic_scaling(self):
        r1 = ed_repetition_plan(0.1, 0.05)
        r2 = ed_repetition_plan(0.05, 0.05)
        assert r2 == pytest.approx(4 * r1, rel=0.01)

    def test_plan_trivial_limit(self):
        assert ed_repetition_plan(0.999, 0.999) >= 1
