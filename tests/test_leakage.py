"""Tests for the information-leakage bounds."""

import csv
import dataclasses
import itertools
import math
import random
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
from qfp.analysis import (_TAIL_MASS, IDEAL_NOISE, PAPER_EXP_NOISE,
                          InfeasibleError, NoiseModel, _first_true,
                          _log_poisson_tail_bound, _poisson_pmf,
                          _typical_tail, solve_amplitude)
from qfp.cli import CURVE_PRESETS, n_grid
from qfp.codes import binary_entropy, gv_binary_rate
from qfp.constellations import lattice_mu_range
from qfp.leakage import (_COARSE_GRID_POINTS, _DELTA_LO, LeakageBound,
                         _coherent_family_qil, _log2_fock_dim, _qil_floor,
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


_PMF_MEANS = [1e-9, 1e-3, 0.5, 1.0, 7.0, 60.0, 1e3, 1e5]


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

    def test_count_law_needs_a_finite_mean(self):
        # no count t exceeds a nan or infinite mean, so the cut rule's
        # uncapped gallop would never end
        for mu in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite mean"):
                _poisson_pmf(mu)
        with pytest.raises(ValueError, match="finite mean"):
            asymptotic_bound(1e4, math.nan, math.nan, 64)

    @pytest.mark.parametrize("mu", _PMF_MEANS)
    def test_poisson_pmf_matches_the_term_loop(self, mu):
        # the term-by-term loop _poisson_pmf replaced; both sum the log of
        # entry h in h steps whose partial sums stay within mu + 50 (the
        # last entry kept exceeds e^-50), so each is off by at most
        # h 2^-53 (mu + 50) relative, subnormal entries aside
        pmf = _poisson_pmf(mu)
        log_term, loop = -mu, [math.exp(-mu)]
        for h in range(1, pmf.size):
            log_term += math.log(mu) - math.log(h)
            loop.append(math.exp(log_term))
        loop = np.array(loop)
        normal = loop > 1e-300
        tol = pmf.size * 2.0 ** -52 * (mu + 50.0)
        assert np.all(np.abs(pmf - loop)[normal] <= tol * loop[normal])

    @pytest.mark.parametrize("mu", _PMF_MEANS)
    def test_poisson_pmf_drops_at_most_the_tail_mass(self, mu):
        # P(N >= size) of Poisson(mu) is the regularized lower incomplete
        # gamma function P(size, mu)
        size = _poisson_pmf(mu).size
        with mpmath.workdps(50):
            dropped = mpmath.gammainc(size, 0, mu, regularized=True)
        assert 0.0 < dropped <= _TAIL_MASS

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

    @pytest.mark.parametrize("k", range(1, 11))
    def test_ring_equals_inline_table(self, k):
        # the cached DFT table, kept in row blocks with its roots of unity
        # less one, gives the same bytes (zero signs included) as one
        # unsplit matrix built per call
        for b2 in np.logspace(-12.0, 2.0, 29):
            beta = math.sqrt(b2)
            assert (lambda_ring(k, beta).tobytes()
                    == _lambda_ring_inline(k, beta).tobytes())

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

    @pytest.mark.parametrize("k", range(1, leakage._RING_K_MAX + 1))
    def test_ring_entropy_skips_only_the_checks(self, k):
        # qil_ring takes H(Lambda) without shannon_entropy's input checks;
        # the bits must be the same up to the cap, whose DFT table
        # (256 MiB at k = 12) is dropped after the test
        try:
            for b2 in np.logspace(-12.0, 2.0, 8):
                beta = math.sqrt(b2)
                got = qil_ring(k, 1000.0, beta).subterms["per_signal_entropy"]
                assert got == shannon_entropy(lambda_ring(k, beta)), b2
        finally:
            if k > 10:
                leakage._ring_tables.cache_clear()


def _exact_log_tail(mu, shift):
    """-mu + s (1 + log mu - log s), s = mu + shift, at 200 digits."""
    with mpmath.workdps(200):
        mu, s = mpmath.mpf(mu), mpmath.mpf(mu) + mpmath.mpf(shift)
        return float(-mu + s * (1 + mpmath.log(mu) - mpmath.log(s)))


_SERIES = tuple(1.0 / j for j in range(13, 1, -1))


def _log_poisson_tail_bound_loop(mu: float, shift: float) -> float:
    """_log_poisson_tail_bound with its series summed by the Horner loop
    over _SERIES that the unrolled expression replaced, kept verbatim."""
    s = mu + shift
    if s <= 0.0:
        return 0.0
    if mu <= 0.0:
        return -math.inf
    x = shift / s
    if abs(x) <= 0.05:
        acc = 0.0
        for c in _SERIES:
            acc = acc * x + c
        return -s * x * x * acc
    return min(0.0, s * (x + (math.log1p(-x) if abs(x) <= 0.5
                              else -math.log(s / mu))))


class TestPoissonTailBound:
    def test_unrolled_series_equals_the_loop(self):
        # the same operations in the same order give the same float
        rng = random.Random(25)
        for _ in range(100_000):
            mu = 10.0 ** rng.uniform(-6.0, 8.0)
            x = rng.uniform(-0.05, 0.05)
            shift = mu * x / (1.0 - x)  # x = shift / (mu + shift)
            assert (_log_poisson_tail_bound(mu, shift)
                    == _log_poisson_tail_bound_loop(mu, shift)), (mu, shift)

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

    @pytest.mark.parametrize("mu", [1e-2, 1.0, 1e3, 17137679.187295206])
    def test_relative_error_at_small_shift(self, mu):
        # x + log1p(-x), x = shift / s, is about -x^2 / 2 and would lose
        # about log2(2 / |x|) bits; mu = 1.7e7 at x = 1.2e-3 is the upper
        # window edge of `solve --family lattice --k 11 --n 10000000
        # --delta 0.05 --noise paper-exp`
        for x in np.logspace(-9.0, math.log10(0.5), 40):
            for shift in (mu * x, -mu * x / (1.0 + x)):  # x and -x
                want = _exact_log_tail(mu, shift)
                got = _log_poisson_tail_bound(mu, shift)
                assert abs(got - want) <= 1e-14 * abs(want), (mu, shift)


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


def _linear_scan_bound(n: float, m_k: float, mu_min: float,
                       mu_max: float) -> LeakageBound:
    """fannes_audenaert_bound as one scan up from the first admissible
    radius, the reference for the search that replaced it (kept verbatim)."""
    if not 0.0 <= mu_min <= mu_max < math.inf:
        raise ValueError(f"bad photon range [{mu_min}, {mu_max}]")
    first = _first_true(lambda r: _typical_tail(mu_min, mu_max, r) < 0.5)
    best = None  # (bits, radius, eps', dimension, continuity, h)
    for radius in itertools.count(first):
        dim_term = _log2_fock_dim(mu_max + radius,
                                  mu_max - mu_min + 2.0 * radius + 1.0, m_k)
        if best is not None and dim_term >= best[0]:
            break
        eps = _typical_tail(mu_min, mu_max, radius)
        gamma = math.sqrt(2.0 * eps)
        continuity = 2.0 * n * gamma
        if best is not None and dim_term + continuity >= best[0]:
            continue
        entropy = binary_entropy(gamma)
        bits = dim_term + continuity + entropy
        if best is None or bits < best[0]:
            best = (bits, radius, eps, dim_term, continuity, entropy)
    bits, radius, eps, dim_term, continuity, entropy = best
    return LeakageBound(bits=bits, method="fannes_audenaert",
                        subterms={"dimension": dim_term,
                                  "continuity": continuity,
                                  "binary_entropy": entropy,
                                  "window_radius": radius, "eps_prime": eps})


def _start_radius(n, m_k, mu_min, mu_max):
    """Where the search starts: the first admissible radius r whose
    continuity term c(r) = 2 n sqrt(2 tail(r)) exceeds c(r + 1) by at most
    one dimension step, dim(first + 1) - dim(first)."""
    def continuity(radius):
        return 2.0 * n * math.sqrt(2.0 * _typical_tail(mu_min, mu_max, radius))

    first = _first_true(lambda r: _typical_tail(mu_min, mu_max, r) < 0.5)
    step = (_window_dim(m_k, mu_min, mu_max, first + 1)
            - _window_dim(m_k, mu_min, mu_max, first))
    return next(r for r in itertools.count(first)
                if continuity(r) - continuity(r + 1) <= step)


# `qfp solve --family lattice --k 24` (n = 1000, delta = 0.25): the optimum
# is the first admissible radius, 2,754,925; a start where c(r) itself falls
# to one dimension step would lie 6.8 million radii above it
_LATTICE_K24 = (1000.0, 220.79166666666666, 326479.54368176736,
                5474743629988.149)


@pytest.fixture(scope="module")
def lattice_design_points():
    """(n, m_k, mu_min, mu_max) of every feasible point of the lattice delta
    optimizer's coarse grid at epsilon = 0.01, ideal: k = 2, 3 and 11
    log-spaced n in [1e3, 1e8]."""
    points = []
    for k in (2, 3):
        for n in np.logspace(3.0, 8.0, 11):
            for delta in np.linspace(leakage._DELTA_LO, 0.4999,
                                     leakage._COARSE_GRID_POINTS):
                m = n / gv_binary_rate(delta)
                try:
                    mu = solve_amplitude(k, int(round(m)), delta, 0.01)
                except InfeasibleError:
                    continue
                points.append((float(n), m / k,
                               *lattice_mu_range(k, int(round(m)), mu)))
    return points


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

    def test_equals_linear_scan_at_lattice_design_points(
            self, lattice_design_points):
        # bits and every subterm, at points whose search starts below the
        # optimum (it scans up), on it, or above it (it walks down), one of
        # them at n = 20 (``qfp solve --n 20``)
        below_n20 = (20.0, 20.0, 0.003, 0.003)
        cases = [*lattice_design_points, below_n20, _LATTICE_K24]
        starts = {"below": 0, "on": 0, "above": 0}
        for case in cases:
            bound = fannes_audenaert_bound(*case)
            assert bound == _linear_scan_bound(*case), case
            start = _start_radius(*case)
            radius = bound.subterms["window_radius"]
            starts["below" if start < radius else
                   "on" if start == radius else "above"] += 1
        assert _start_radius(*below_n20) == 1
        assert fannes_audenaert_bound(*below_n20).subterms[
            "window_radius"] == 2
        assert len(cases) > 800 and min(starts.values()) > 0, starts

    def test_tail_evaluations_per_call(self, monkeypatch,
                                       lattice_design_points):
        # the linear scan takes 61.2 tail bounds per call on these points,
        # the search 34.2; at the k = 24 point it takes 86, where a start at
        # the first c(r) <= step would walk down 6.8 million radii
        calls = [0]

        def spy(*args, _real=_typical_tail):
            calls[0] += 1
            return _real(*args)

        monkeypatch.setattr(leakage, "_typical_tail", spy)
        for case in lattice_design_points:
            fannes_audenaert_bound(*case)
        assert calls[0] / len(lattice_design_points) < 36.0
        calls[0] = 0
        fannes_audenaert_bound(*_LATTICE_K24)
        assert calls[0] < 100

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

    @pytest.mark.parametrize("family,hook,noise,floors", [
        ("ring", "qil_ring", IDEAL_NOISE, 0),
        ("lattice", "lattice_mu_range", IDEAL_NOISE, 0),
        ("ring", "qil_ring", PAPER_EXP_NOISE, _COARSE_GRID_POINTS)],
        ids=["ring-qil_ring", "lattice-lattice_mu_range",
             "ring-qil_ring-paper-exp"])
    def test_bounds_resolve_through_module_globals(self, monkeypatch, family,
                                                   hook, noise, floors):
        # the benchmark's tracer rebinds module globals only, so each delta
        # evaluation, each family's bound and each grid point's floor (one
        # bound each under dark counts) must be reached through them
        calls = {"_coherent_family_qil": 0, hook: 0}
        for name in calls:
            def spy(*args, _real=getattr(leakage, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(leakage, name, spy)
        optimize_delta_for_qil(family, 2, 1e3, 0.01, noise=noise)
        assert calls["_coherent_family_qil"] + floors == calls[hook]
        assert calls["_coherent_family_qil"] > 0

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


_FIG3 = CURVE_PRESETS["fig3"]
_DELTA_GRID = [float(d) for d in np.linspace(_DELTA_LO, 0.4999,
                                              _COARSE_GRID_POINTS)]


def _design_args(k, n, delta, epsilon, noise):
    """The delta optimizer's design point at one distance."""
    return ("ring", k, n, n / gv_binary_rate(delta), delta, epsilon, noise,
            "beamsplitter")


def _objective(args):
    try:
        return _coherent_family_qil(*args).bound.bits
    except InfeasibleError:
        return math.inf


def _fig3_optimum(k, n, noise=PAPER_EXP_NOISE, epsilon=_FIG3["epsilon"]):
    return optimize_delta_for_qil("ring", k, n, epsilon, noise=noise)


class TestObjectiveFloor:
    # (noise, input sizes): at p_dark = 1e-3 the n = 1e8 grid reaches
    # 1.7e12 expected dark clicks and takes 7 s, so it stops at 1e5
    @pytest.mark.parametrize("noise,ns", [
        (PAPER_EXP_NOISE, (1e3, 1e8)),
        (NoiseModel(eta=0.5, p_dark=1e-6), (1e3, 1e8)),
        (NoiseModel(p_dark=1e-3), (1e3, 1e5))],
        ids=["paper-exp", "eta0.5-dark1e-6", "dark1e-3"])
    def test_floor_below_objective(self, noise, ns):
        slack, infeasible = math.inf, 0
        for k, n, delta in itertools.product((1, 2, 3), ns, _DELTA_GRID):
            for epsilon in (0.01, 0.1, 0.3):
                args = _design_args(k, n, delta, epsilon, noise)
                floor, value = _qil_floor(*args), _objective(args)
                assert floor <= value, args
                infeasible += value == math.inf
                if 0.0 < value < math.inf:
                    slack = min(slack, (value - floor) / value)
            # epsilon >= 1/2 clamps the floor's amplitude to 0: the vacuum
            # leaks nothing, and every bound is >= 0
            assert _qil_floor(*_design_args(k, n, delta, 0.6, noise)) == 0.0
        print(f"smallest relative slack {slack:.3g}; "
              f"{infeasible} infeasible points")

    @pytest.mark.parametrize("noise", [
        IDEAL_NOISE, NoiseModel(eta=0.5), NoiseModel(p_dark=1e-6,
                                                     visibility=0.9)],
        ids=["ideal", "loss", "visibility"])
    def test_no_floor_outside_dark_counts_at_full_visibility(self, noise):
        for measurement in ("beamsplitter", "optimal_lb"):
            args = _design_args(2, 1e4, 0.3, 0.01, noise)[:-1] + (measurement,)
            assert _qil_floor(*args) == -math.inf
        args = ("lattice",) + _design_args(2, 1e4, 0.3, 0.01,
                                           PAPER_EXP_NOISE)[1:]
        assert _qil_floor(*args) == -math.inf

    @pytest.mark.parametrize("noise", [IDEAL_NOISE, NoiseModel(
        eta=PAPER_EXP_NOISE.eta, p_dark=PAPER_EXP_NOISE.p_dark,
        visibility=0.9)], ids=["ideal", "visibility0.9"])
    def test_every_grid_point_solved_without_a_floor(self, monkeypatch,
                                                     noise):
        solved = []

        def spy(*args, _real=_coherent_family_qil):
            solved.append(args[4])
            return _real(*args)

        monkeypatch.setattr(leakage, "_coherent_family_qil", spy)
        opt = _fig3_optimum(1, 1e3, noise)
        assert solved[:_COARSE_GRID_POINTS] == _DELTA_GRID
        assert opt.diagnostics["skipped"] == 0
        assert opt.diagnostics["evaluations"] == len(solved)

    @pytest.mark.parametrize("noise,ns,epsilon", [
        (PAPER_EXP_NOISE, tuple(n_grid()), _FIG3["epsilon"]),
        (NoiseModel(p_dark=1e-3), (1e3,), 0.01)],
        ids=["fig3", "dark1e-3"])
    def test_skipping_changes_no_optimum(self, monkeypatch, noise, ns,
                                         epsilon):
        points = [(k, float(n)) for n in ns for k, _ in _FIG3["series"]]
        skipped = [_fig3_optimum(k, n, noise, epsilon) for k, n in points]
        monkeypatch.setattr(leakage, "_qil_floor", lambda *args: -math.inf)
        solved = [_fig3_optimum(k, n, noise, epsilon) for k, n in points]
        assert skipped == solved
        assert all(opt.diagnostics["skipped"] > 0 for opt in skipped)
        assert all(opt.diagnostics["skipped"] == 0 for opt in solved)
        if noise.p_dark == 1e-3:  # the full scan meets an infeasible delta
            assert all(opt.diagnostics["infeasible"] > 0 for opt in solved)

    # solves per fig3 optimization: a change that stops skipping, or skips
    # less, moves these counts (every grid point solved would be 66)
    @pytest.mark.parametrize("k,n,solves", [(1, 1e3, 27), (2, 1e3, 27),
                                            (1, 1e8, 47), (2, 1e8, 45)])
    def test_fig3_solve_count(self, monkeypatch, k, n, solves):
        calls = []

        def spy(*args, _real=_coherent_family_qil):
            calls.append(args)
            return _real(*args)

        monkeypatch.setattr(leakage, "_coherent_family_qil", spy)
        opt = _fig3_optimum(k, n)
        assert len(calls) == solves
        assert opt.diagnostics == {
            "evaluations": solves, "infeasible": 0, "skipped": 66 - solves,
            "grid_fallback": False, "argmin_at_edge": False}


class TestDeltaDiagnostics:
    def test_diagnostics_take_no_part_in_equality(self):
        opt = _fig3_optimum(1, 1e3)
        assert opt == dataclasses.replace(opt, diagnostics={})
        assert _coherent_family_qil(
            *_design_args(1, 1e3, 0.3, 0.01, IDEAL_NOISE)).diagnostics == {}

    def test_arbitrary_distance_is_flagged(self):
        # near delta = 1/2 the dark counts of the long codewords alone
        # attain epsilon = 0.9, so the minimum, 0 bits, sits at the grid's
        # last point and the returned delta says nothing about the bound
        opt = _fig3_optimum(1, 1e3, epsilon=0.9)
        assert (opt.delta, opt.bound.bits) == (0.4999, 0.0)
        assert opt.diagnostics["argmin_at_edge"]
        assert opt.diagnostics["grid_fallback"]
