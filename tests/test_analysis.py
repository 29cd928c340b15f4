"""Tests for closed-form error probabilities, the binomial click model, and
the parameter solvers, including an exact big-rational threshold oracle,
the scipy.stats oracle of the binomial tail kernels and the scipy.optimize
oracle of the root finder."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from qfp import analysis, checks
from qfp.analysis import (PAPER_EXP_NOISE, InfeasibleError, NoiseModel,
                          ThresholdResult, click_probs, ed_estimate,
                          experimental_click_probs, gray_beats_qary,
                          interp_nd_prob, interp_worst_case_error,
                          log_binom_cdf, log_binom_sf, no_click_prob,
                          optimal_measurement_error_lb, optimal_threshold,
                          ring_error_exponent, ring_worst_case_error,
                          solve_amplitude, solve_repetition,
                          worst_case_error_with_threshold)
from qfp.codes import (_signal_blocks, binary_entropy, gv_binary_rate,
                       ring_gray, worst_case_pair)
from qfp.constellations import _signal_amplitude, encode, ring_constellation


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


def _ring_points(codeword, k, mu):
    """encode(codeword, "ring", k, mu) by another route: a signal's label
    from a product with the powers of two, and its ring position, the
    inverse reflected Gray code, from a prefix XOR of k bits."""
    pos = _signal_blocks(codeword, k).astype(np.int64) @ (
        1 << np.arange(k - 1, -1, -1, dtype=np.int64))
    shift = 1
    while shift < k:
        pos ^= pos >> shift
        shift <<= 1
    return _signal_amplitude(codeword.size, k, mu) * np.exp(
        2j * np.pi * pos / (1 << k))


class TestClickLaw:
    @pytest.mark.parametrize("k", [20, 24])
    def test_nearby_ring_points_match_mpmath(self, k):
        # the ideal ring's worst-case pair at delta = 1/(2k): its points sit
        # 2 pi / 2^k apart, where |a|^2 + |b|^2 - 2 Re(a* b) cancels
        m, delta = 1000, 1.0 / (2 * k)
        mu = solve_amplitude(k, m, delta, 0.01)
        x, y = worst_case_pair(m, delta, k, "even")
        a, b = _ring_points(x, k, mu), _ring_points(y, k, mu)
        assert np.array_equal(a, encode(x, "ring", k, mu))
        assert np.array_equal(b, encode(y, "ring", k, mu))
        with mpmath.workdps(50):
            no_click = [mpmath.exp(-abs(mpmath.mpc(p) - mpmath.mpc(q)) ** 2 / 2)
                        for p, q in zip(a, b)]
            product = mpmath.fprod(no_click)
        clicks = click_probs(a, b, NoiseModel())
        for got, exact in zip(clicks, no_click):
            assert abs(got - (1 - exact)) <= 1e-12 * (1 - exact)
        assert (abs(np.prod(no_click_prob(a, b)) - product)
                <= 1e-12 * product)


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
        # one function over all cases, so the test keeps its id
        cases = [
            (3, 60, 0.25, 0.05, 0.01),
            # the per-copy error is 0 (p_k = 1; 0.25^625 underflows): r = 1
            (1, 60, 0.25, 1.0, 0.01),
            (2, 5000, 0.25, 1.0, 0.01),
            # r = 5,508,989
            (8, 8, 1e-4, 0.05, 1e-12),
        ]
        for k, m, delta, p_k, eps in cases:
            r = solve_repetition(k, m, delta, p_k, eps)
            case = (k, m, delta, p_k, eps, r)
            assert interp_worst_case_error(k, m, delta, p_k, r) <= eps, case
            assert interp_worst_case_error(k, m, delta, p_k, r - 1) > eps, case

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
        points = ring_constellation(k, beta, ring_gray(k))
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
        points = ring_constellation(k, beta, ring_gray(k))
        expect = ((1.0 - frac) * (1.0 - no_click_prob(points[0], points[lo]))
                  + frac * (1.0 - no_click_prob(points[0], points[lo + 1])))
        assert p_D == pytest.approx(expect, rel=1e-12)

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError, match="delta must be >= 0"):
            experimental_click_probs(2, 0.1, -0.3, 0.0)

    def test_dark_counts_additive(self):
        p_D, p_E = experimental_click_probs(1, 0.2, 0.25, 1e-6, 1.0)
        assert p_E == 1e-6
        assert p_D > 1e-6

    def test_visibility_raises_equal_clicks(self):
        _, p_E = experimental_click_probs(1, 0.5, 0.25, 0.0, 0.98)
        assert p_E > 0.0

    def test_unit_visibility_adds_dark_counts(self):
        k, beta, delta, p_dark = 2, 0.4, 0.3, 7.3e-11
        p_signal, _ = experimental_click_probs(k, beta, delta, 0.0, 1.0)
        p_D, p_E = experimental_click_probs(k, beta, delta, p_dark, 1.0)
        assert p_E == p_dark
        assert p_D == p_signal + p_dark - p_signal * p_dark

    def test_zero_visibility_keeps_p_D_at_least_p_E(self):
        # both inputs click alike at visibility 0; rounding in the mixture of
        # the two ring steps must not put p_D below p_E, which the threshold
        # search rejects
        for k in (1, 2, 3, 4):
            for beta in np.linspace(0.05, 3.0, 30):
                for delta in np.linspace(0.01, 0.49, 30):
                    p_D, p_E = experimental_click_probs(
                        k, float(beta), float(delta), 7.3e-11, 0.0)
                    assert p_D >= p_E

    def test_strong_dark_counts_keep_p_D_at_least_p_E(self):
        # the dark counts' own rounding put p_D one ulp below p_E here
        # (p_E = 0.999999999999, p_D = 0.9999999999989999)
        p_D, p_E = experimental_click_probs(1, 1.12421e-06, 0.4022307692307692,
                                            0.999999999999)
        assert p_D >= p_E == 0.999999999999

    def test_reduced_visibility_dark_counts_exact(self):
        # 1 - (1 - p)(1 - p_dark) cancels at p, p_dark ~ 1e-10 (8.3e-8
        # relative); compare with the exact rational sum
        k, beta, delta, vis = 2, 1e-5, 0.3, 0.98
        p_dark = PAPER_EXP_NOISE.p_dark
        _, p_E = experimental_click_probs(k, beta, delta, p_dark, vis)
        p = Fraction(-math.expm1(-beta ** 2 * (1.0 - vis)))
        exact = p + Fraction(p_dark) - p * Fraction(p_dark)
        assert p_E == pytest.approx(float(exact), rel=1e-15, abs=0.0)


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
                                       (10, Fraction(1, 2), 5),
                                       # few expected clicks over many signals
                                       (1000, Fraction(1, 10**7), 5)])
    def test_log_sf_matches_exact(self, m, p, t):
        exact = float(_exact_binom_sf(t, m, p))
        assert math.exp(log_binom_sf(t, m, float(p))) == pytest.approx(
            exact, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("m,p,t", [(20, Fraction(1, 10), 3),
                                       (30, Fraction(7, 10), 25)])
    def test_log_cdf_matches_exact(self, m, p, t):
        exact = 1.0 - float(_exact_binom_sf(t, m, p))
        assert math.exp(log_binom_cdf(t, m, float(p))) == pytest.approx(
            exact, rel=1e-10, abs=0.0)

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
    """The scipy.stats evaluation the compiled kernels replace.  It passes
    p = 0 to scipy.stats, so the kernels are checked there too."""
    if kind == "sf":
        if t <= 0:
            return 0.0
        if t > m:
            return -math.inf
    else:
        if t <= 0:
            return -math.inf
        if t > m:
            return 0.0
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
        (10**6, 7.3e-11),    # the Fig. 3 dark-count regime, m*p ~ 1e-4
        (10**7, 1e-12),      # the deepest tail, largest m
        (10**6, 1e-3),       # sf underflow
        (10**4, 0.999),      # cdf underflow at small t
        (10, 1.0),
        (10**6, 0.0),
    ])
    def test_edges_equal_scipy_stats(self, m, p):
        for t in list(range(-2, 6)) + [200, m // 2, m - 1, m, m + 1, m + 2]:
            _assert_matches_stats(t, m, p)

    def test_underflow_covered(self):
        assert log_binom_sf(5000, 10**6, 1e-3) == -math.inf
        assert _stats_tail("sf", 5000, 10**6, 1e-3) == -math.inf
        assert log_binom_cdf(3, 10**4, 0.999) == -math.inf
        assert log_binom_sf(200, 10**6, 7.3e-11) == -math.inf


def _solve(solver, f, a, b, **kw):
    """(root, evaluation points) of one root-finder run; a raised error
    stands in for the root as its kind and text."""
    xs = []

    def counted(x):
        xs.append(x)
        return f(x)

    try:
        return solver(counted, a, b, **kw), xs
    except (ValueError, RuntimeError) as exc:
        kind = RuntimeError if isinstance(exc, RuntimeError) else ValueError
        return (kind, str(exc)), xs


# xtol = 2e-12 and rtol = 4 eps are scipy's defaults
_BRENT_TOLS = st.fixed_dictionaries({
    "xtol": st.sampled_from([2e-12, 1e-12, 1e-6]),
    "rtol": st.sampled_from([4 * math.ulp(1.0), 1e-10, 1e-4]),
    "maxiter": st.sampled_from([100, 10, 3]),
})
_ROOTS = st.floats(-5.0, 5.0)
_WIDTHS = st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e)
_SCALES = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


def _monotone(kind, r, c):
    if kind == "cubic":
        return lambda x: c * (x - r) ** 3 + 1e-3 * (x - r)
    if kind == "tanh":
        return lambda x: math.tanh(c * (x - r))
    if kind == "exp":
        return lambda x: math.exp(min(c * (x - r), 700.0)) - 1.0
    if kind == "stairs":
        # flat steps: f takes one value at many points
        return lambda x: math.floor(c * (x - r)) + 0.5
    # slopes near the underflow limit: products of two of them vanish
    return lambda x: 1e-300 * c * (x - r)


class TestBrentOracle:
    """``_brentq`` is a port of scipy.optimize.brentq, so it must evaluate
    the same points and return the same float; these tests fail if a scipy
    release changes brentq."""

    def _assert_same(self, f, a, b, **kw):
        ours = _solve(analysis._brentq, f, a, b, **kw)
        assert ours == _solve(optimize.brentq, f, a, b, **kw)
        return ours

    @pytest.mark.parametrize("noise", [
        PAPER_EXP_NOISE, NoiseModel(eta=0.5, p_dark=1e-6, visibility=0.98)],
        ids=["paper-exp", "visibility"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_solve_amplitude_brackets(self, monkeypatch, k, noise):
        """The excess closures and brackets solve_amplitude really solves."""
        calls = []
        real = analysis._brentq

        def spy(f, a, b, **kw):
            calls.append((f, a, b, kw))
            return real(f, a, b, **kw)

        monkeypatch.setattr(analysis, "_brentq", spy)
        for m in (1000, 10_000, 10**6):
            for delta in (0.1, 0.25, 0.4):
                for eps in (0.01, 1e-4):
                    solve_amplitude(k, m, delta, eps, noise)
        monkeypatch.undo()
        assert len(calls) == 18
        for f, a, b, kw in calls:
            root, xs = self._assert_same(f, a, b, **kw)
            ref, info = optimize.brentq(f, a, b, full_output=True, **kw)
            assert (root, len(xs)) == (ref, info.function_calls)

    @given(st.sampled_from(["cubic", "tanh", "exp", "stairs", "tiny"]),
           _ROOTS, _SCALES, _WIDTHS, _WIDTHS, st.booleans(), _BRENT_TOLS)
    @settings(max_examples=300, deadline=None)
    def test_monotone(self, kind, r, c, left, right, flip, kw):
        a, b = r - left, r + right
        if flip:
            a, b = b, a
        self._assert_same(_monotone(kind, r, c), a, b, **kw)

    @given(_ROOTS, _SCALES, st.floats(-1.0, 1.0), _WIDTHS, _WIDTHS,
           _BRENT_TOLS)
    @settings(max_examples=300, deadline=None)
    def test_oscillating(self, r, w, slope, left, right, kw):
        # several roots, or none, in the bracket: same-sign ends included
        def f(x):
            return math.sin(w * (x - r)) + slope * (x - r)

        self._assert_same(f, r - left, r + right, **kw)

    @pytest.mark.parametrize("a,b", [(1.0, 3.0), (-1.0, 1.0)],
                             ids=["root-at-a", "root-at-b"])
    def test_root_at_an_end(self, a, b):
        # both ends are evaluated before either is returned
        assert self._assert_same(lambda x: x - 1.0, a, b, xtol=2e-12,
                                 rtol=1e-10) == (1.0, [a, b])

    def test_same_sign_bracket(self):
        (kind, text), xs = self._assert_same(lambda x: x * x + 1.0, -1.0,
                                             2.0, xtol=2e-12, rtol=1e-10)
        assert (kind, xs) == (ValueError, [-1.0, 2.0])
        assert "different signs" in text

    def test_nan_value(self):
        def f(x):
            return math.nan if 0.4 < x < 0.6 else x - 0.5

        (kind, text), xs = self._assert_same(f, 0.0, 1.0, xtol=2e-12,
                                             rtol=1e-10)
        assert kind is ValueError and "NaN" in text and len(xs) == 3

    def test_maxiter_used_up(self):
        (kind, _), xs = self._assert_same(lambda x: x ** 3 - 2.0, 0.0, 2.0,
                                          xtol=2e-12, rtol=1e-10, maxiter=3)
        assert kind is RuntimeError and len(xs) == 5

    @pytest.mark.parametrize("num,den,want", [
        (1.0, 0.0, math.inf), (1.0, -0.0, -math.inf),
        (-2.0, 0.0, -math.inf), (-2.0, -0.0, math.inf),
        (math.inf, -0.0, -math.inf)])
    def test_c_div_by_zero_is_signed_inf(self, num, den, want):
        # C's num / 0 is inf, signed by both operands, where Python raises
        assert analysis._c_div(num, den) == want

    @pytest.mark.parametrize("num,den", [
        (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (math.nan, 0.0),
        (math.nan, -0.0)])
    def test_c_div_zero_or_nan_over_zero_is_nan(self, num, den):
        assert math.isnan(analysis._c_div(num, den))


def _bisection_threshold(m_k: int, p_D: float, p_E: float) -> ThresholdResult:
    """The bisection search that preceded the galloping one, kept as the
    reference for d_th and the error it reports.  It also weighs the
    crossing's upper neighbour, which the galloping search leaves out."""
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
                           log_worst_case_error=log_err)


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

    @pytest.mark.parametrize("m_k,p_D,p_E", [
        (10**6, 1e-4, 7.3e-11),      # d_th = 8
        (10**6, 0.31, 0.3),
        (1000, 0.01, 0.0),
        (10, 1.0, 0.5),              # crossing at the cap m_k + 1
    ])
    def test_kernel_runs_only_where_the_search_probed(self, monkeypatch, m_k,
                                                      p_D, p_E):
        probed, kernel_ts = set(), set()
        first_true = analysis._first_true

        def spy_first_true(pred, cap=None):
            return first_true(lambda t: probed.add(t) or pred(t), cap)

        def spy(kernel):
            def wrapped(k, m, p):
                kernel_ts.add(int(k) + 1)    # the tails pass k = t - 1
                return kernel(k, m, p)
            return wrapped

        monkeypatch.setattr(analysis, "_first_true", spy_first_true)
        for name in ("_binom_sf", "_binom_cdf"):
            monkeypatch.setattr(analysis, name, spy(getattr(analysis, name)))
        optimal_threshold(m_k, p_D, p_E)
        assert probed
        assert kernel_ts <= probed


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


# float.hex of solve_amplitude at epsilon = 0.01, captured with
# scipy.optimize.brentq as the root finder: (k, m, delta, noise, mu)
_MU_GOLDEN = [
    # the fig3 optima, k = 1 and 2, at n = 1e3 and n = 1e8
    (1, 29179, "0x1.90d7fef209098p-2", PAPER_EXP_NOISE,
     "0x1.39c1986328fb7p+4"),
    (2, 23761, "0x1.84ef105294bd8p-2", PAPER_EXP_NOISE,
     "0x1.4354a7804ebb9p+4"),
    (1, 2034987865, "0x1.7b21613e6b9a3p-2", PAPER_EXP_NOISE,
     "0x1.d36c9d25ebd66p+4"),
    (2, 4069983449, "0x1.a1c69d44c6916p-2", PAPER_EXP_NOISE,
     "0x1.a82faa8e65e98p+4"),
    # qfp simulate's default point under paper-exp
    (1, 1000, "0x1.0000000000000p-2", PAPER_EXP_NOISE,
     "0x1.eea5f4b13740fp+4"),
    (2, 5000, "0x1.3333333333333p-2",
     NoiseModel(eta=0.5, p_dark=1e-6, visibility=0.98),
     "0x1.baedc60b9be63p+4"),
]


class TestSolveAmplitude:
    def test_ideal_closed_form(self):
        k, delta, eps = 1, 0.25, 0.01
        mu = solve_amplitude(k, 1000, delta, eps)
        assert mu == pytest.approx(math.log(1.0 / eps) / (2.0 * delta),
                                   rel=1e-12)

    def test_subnormal_epsilon_is_finite(self):
        # 1/epsilon overflows, so the exponent is -log epsilon
        g = ring_error_exponent(1, 0.25)
        assert solve_amplitude(1, 1000, 0.25, 5e-324) == -math.log(5e-324) / g
        assert solve_amplitude(1, 1000, 0.25, 5e-324, NoiseModel(
            eta=0.5)) == 2.0 * -math.log(5e-324) / g

    @pytest.mark.parametrize("noise", [NoiseModel(eta=5e-324),
                                       NoiseModel(eta=5e-324, p_dark=0.1)])
    def test_overflowing_launch_is_infeasible(self, noise):
        with pytest.raises(InfeasibleError, match="eta"):
            solve_amplitude(1, 1000, 0.25, 0.01, noise)

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

    @pytest.mark.parametrize("k,m,delta,noise,mu", _MU_GOLDEN)
    def test_noisy_golden(self, k, m, delta, noise, mu):
        assert solve_amplitude(k, m, float.fromhex(delta), 0.01,
                               noise).hex() == mu

    def test_no_amplitude_evaluated_twice(self, monkeypatch):
        # mu_ideal = 9.2 >= 1 starts both bracket loops at one amplitude,
        # and _brentq evaluates the bracket ends the loops evaluated
        seen = []
        real = analysis.worst_case_error_with_threshold

        def spy(k, m, mu_detected, *args):
            seen.append(mu_detected)
            return real(k, m, mu_detected, *args)

        monkeypatch.setattr(analysis, "worst_case_error_with_threshold", spy)
        solve_amplitude(1, 1000, 0.25, 0.01, PAPER_EXP_NOISE)
        assert len(seen) > 2
        assert len(seen) == len(set(seen))

    def test_dark_counts_alone_attain_epsilon(self):
        # the error with no signal at all is 0.5197 < epsilon
        noise = NoiseModel(p_dark=0.3)
        assert worst_case_error_with_threshold(
            1, 106, 0.0, 0.25, noise).worst_case_error < 0.6
        assert solve_amplitude(1, 106, 0.25, 0.6, noise) == 0.0

    def test_infeasible_dark_counts(self):
        # ten signals cannot beat a 0.49 dark-count floor down to 1e-12
        noise = NoiseModel(eta=0.3, p_dark=0.49)
        with pytest.raises(InfeasibleError):
            solve_amplitude(1, 10, 0.25, 1e-12, noise)

    def test_click_cap_is_named_before_bracketing(self, monkeypatch):
        # fig3 noise at n = 1e3, k = 1, eps = 0.9 and the grid point
        # delta = 1e-4: only a share k*delta of the signal can click, so no
        # click stays more likely than 0.9 at every amplitude, and the error
        # names that cap instead of doubling the bracket up to the mu cap
        seen = []
        real = analysis.worst_case_error_with_threshold

        def spy(k, m, mu_detected, *args):
            seen.append(mu_detected)
            return real(k, m, mu_detected, *args)

        monkeypatch.setattr(analysis, "worst_case_error_with_threshold", spy)
        m = int(round(1e3 / gv_binary_rate(1e-4)))
        assert m == 1001
        with pytest.raises(InfeasibleError,
                           match=r"^error 0\.9 unattainable at any mu: at "
                                 r"k\*delta = 0\.0001 < 1 a signal clicks "
                                 r"with probability below p_inf = 0\.0001, "
                                 r"so no signal clicks with probability "
                                 r"above \(1 - p_inf\)\^1001 = 0\.904742$"):
            solve_amplitude(1, m, 1e-4, 0.9, PAPER_EXP_NOISE)
        assert seen == []

    @pytest.mark.parametrize("k,m,delta", [(1, 1001, 1e-4), (2, 1000, 1e-3),
                                           (3, 99, 2e-3)])
    def test_click_cap_is_tight(self, k, m, delta):
        # a hair above the no-click floor the root exists and is found; a
        # hair below it the cap is named
        noise = NoiseModel(eta=0.5, p_dark=1e-6)
        m_k = -(-m // k)
        floor = (1.0 - (k * delta + 1e-6 - k * delta * 1e-6)) ** m_k
        mu = solve_amplitude(k, m, delta, floor * (1 + 1e-6), noise)
        res = worst_case_error_with_threshold(k, m, mu * noise.eta, delta,
                                              noise)
        assert res.worst_case_error == pytest.approx(floor * (1 + 1e-6),
                                                     rel=1e-6)
        with pytest.raises(InfeasibleError, match="p_inf"):
            solve_amplitude(k, m, delta, floor * (1 - 1e-6), noise)

    def test_zero_visibility_is_named_before_bracketing(self, monkeypatch):
        # p_D == p_E at visibility 0, so every threshold errs with
        # probability at least 1/2 and no amplitude is tried
        seen = []
        monkeypatch.setattr(analysis, "worst_case_error_with_threshold",
                            lambda *args: seen.append(args))
        for noise in (NoiseModel(visibility=0.0),
                      NoiseModel(eta=0.3, p_dark=7.3e-11, visibility=0.0)):
            with pytest.raises(InfeasibleError, match="at visibility 0,"):
                solve_amplitude(1, 1000, 0.25, 0.49, noise)
        assert seen == []

    def test_zero_visibility_attains_half_and_above(self):
        noise = NoiseModel(visibility=0.0)
        mu = solve_amplitude(1, 1000, 0.25, 0.6, noise)
        res = worst_case_error_with_threshold(1, 1000, mu, 0.25, noise)
        assert res.worst_case_error == pytest.approx(0.6, rel=1e-6)

    def test_click_cap_needs_visibility_one(self):
        # below visibility 1 every signal clicks at high amplitude, so the
        # cap does not apply and the same point is feasible
        noise = NoiseModel(eta=0.3, p_dark=7.3e-11, visibility=0.99)
        mu = solve_amplitude(1, 1001, 1e-4, 0.9, noise)
        assert 0.0 < mu < math.inf


def _gv_qary_rate(delta_q, q):
    """Rate in bits per codeletter of a q-ary code saturating the
    Gilbert-Varshamov bound, 0 <= delta_q < 1 - 1/q: the oracle of
    ``gray_beats_qary``."""
    return math.log2(q) - delta_q * math.log2(q - 1) - binary_entropy(delta_q)


class TestQaryComparison:
    def test_oracle_reduces_to_binary(self):
        for delta in (0.0, 0.1, 0.3):
            assert _gv_qary_rate(delta, 2) == pytest.approx(
                gv_binary_rate(delta), rel=1e-12)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_gray_wins_across_grid(self, k):
        assert checks.qary_violations([k], 1e-6, 100) == 0

    @pytest.mark.parametrize("k", range(2, 7))
    def test_margin_equals_gv_rate_difference(self, k):
        # criterion 11's grid without its top point, where the 2^k-ary
        # distance k*delta reaches 1 - 2^-k, outside the q-ary GV domain
        q = 1 << k
        hi = (1.0 - 2.0 ** (-k)) / k
        for delta in np.linspace(1e-9, hi, 1000)[:-1]:
            delta = float(delta)
            ok, margin = gray_beats_qary(k, delta)
            rate_gap = k * gv_binary_rate(delta) - _gv_qary_rate(k * delta, q)
            assert k * delta * margin == pytest.approx(rate_gap, rel=0,
                                                       abs=1e-13)
            assert ok == (rate_gap >= 0.0)


class TestMeasurementBound:
    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_dominates_squared_overlap(self, c):
        assert optimal_measurement_error_lb(c) >= c * c - 1e-15


class TestEdEstimator:
    def test_arithmetic(self):
        # dark clicks [1, 0, 1] and light clicks [1, 1, 1]: D = 3 - 2 = 1
        assert ed_estimate(1, 1.0) == pytest.approx(1.0)
        estimates = ed_estimate(np.array([1, 0, 4, -2]), 2.0)
        assert estimates.shape == (4,)
        assert np.allclose(estimates, [1.75, 2.0, 1.0, 2.5])
