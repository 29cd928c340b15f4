"""Closed-form error probabilities, parameter solvers, the experimental
binomial click model, and the count laws.

The count laws are the binomial tails below, the Poisson photon-number law
(``_poisson_pmf``) with its Chernoff tail bound and typical-window mass
(``_log_poisson_tail_bound``, ``_typical_tail``), and the Poisson-binomial
click total and click difference of independent modes
(``_click_total_pmf``, ``_difference_law``).  Every truncated law keeps
``_count_law_size`` entries, so it drops at most ``_TAIL_MASS``.

All probabilities that can underflow (binomial tails with per-signal click
probabilities down to ~1e-11 over ~1e6 signals) are returned in log space.
Each tail is one call of scipy's compiled Boost binomial kernel,
``_binom_sf`` or ``_binom_cdf`` (the ones ``scipy.stats.binom`` calls), over
the whole parameter range, the deep tail included.  The values are
bit-identical to ``scipy.stats.binom`` ``logsf``/``logcdf`` without its
per-call argument handling.

The noisy amplitude solver finds its root with ``_brentq``, a line-for-line
port of ``scipy.optimize.brentq`` that evaluates the same points and returns
the same float.  So the two tail kernels are all this module takes from
scipy, and importing it loads neither ``scipy.optimize`` nor, through it,
``scipy.sparse``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special._ufuncs import _binom_cdf, _binom_sf

from .codes import _signal_count, binary_entropy
from .constellations import _signal_amplitude

__all__ = [
    "NoiseModel",
    "ThresholdResult",
    "InfeasibleError",
    "IDEAL_NOISE",
    "PAPER_EXP_NOISE",
    "click_probs",
    "no_click_prob",
    "interp_nd_prob",
    "interp_worst_case_error",
    "solve_repetition",
    "ring_error_exponent",
    "ring_worst_case_error",
    "experimental_click_probs",
    "log_binom_sf",
    "log_binom_cdf",
    "optimal_threshold",
    "worst_case_error_with_threshold",
    "solve_amplitude",
    "gray_beats_qary",
    "optimal_measurement_error_lb",
    "ed_estimate",
]


class InfeasibleError(ValueError):
    """Raised when no parameter choice can attain the requested error."""


@dataclass(frozen=True)
class NoiseModel:
    """Channel transmittivity, per-signal dark-count probability, and
    interferometric visibility."""

    eta: float = 1.0
    p_dark: float = 0.0
    visibility: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if not 0.0 <= self.p_dark < 1.0:
            raise ValueError(f"p_dark must lie in [0, 1), got {self.p_dark}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")

    @property
    def is_ideal(self) -> bool:
        return self.eta == 1.0 and self.p_dark == 0.0 and self.visibility == 1.0


IDEAL_NOISE = NoiseModel()
# the detectors of the paper's Fig. 3 (the `paper-exp` preset)
PAPER_EXP_NOISE = NoiseModel(eta=0.3, p_dark=7.3e-11)


@dataclass(frozen=True)
class ThresholdResult:
    """Click threshold minimizing the worst of the two binomial tail errors."""

    d_th: int
    worst_case_error: float
    log_worst_case_error: float


def _dark_port_mean(beta_a, beta_b, noise: NoiseModel):
    """Detected mean photon number at the dark port for launched |beta_a>,
    |beta_b> on a balanced beamsplitter: eta (|a - b|^2 / 2 + (1 - V)
    Re(a* b)), whose squared distance does not cancel for nearby points."""
    return noise.eta * (0.5 * np.abs(beta_a - beta_b) ** 2 + (
        1.0 - noise.visibility) * (np.conj(beta_a) * beta_b).real)


def click_probs(beta_a, beta_b, noise: NoiseModel):
    """Dark-port click probability 1 - e^-lam of each launched mode pair,
    dark counts added (the pair (a, -b) gives the light port).  Amplitude
    arrays broadcast, one probability per pair."""
    return _with_dark_counts(-np.expm1(-_dark_port_mean(beta_a, beta_b, noise)),
                             noise.p_dark)


def no_click_prob(beta_a: complex | np.ndarray, beta_b: complex | np.ndarray,
                  visibility: float = 1.0) -> float | np.ndarray:
    """The no-click probability e^-lam of ``click_probs``'s dark port on
    lossless detectors without dark counts."""
    return np.exp(-_dark_port_mean(beta_a, beta_b,
                                   NoiseModel(visibility=visibility)))


def interp_nd_prob(d: float, k: int, p_k: float) -> float:
    """No-detection probability for one interpolation signal whose block
    differs in d bits: 1 - (d/k) p_k (1 - (d-1) p_k / (2k))."""
    if not 0 <= d <= k:
        raise ValueError(f"d must lie in [0, {k}], got {d}")
    if not 0.0 <= p_k <= 1.0:
        raise ValueError(f"p_k must lie in [0, 1], got {p_k}")
    return 1.0 - (d / k) * p_k * (1.0 - (d - 1.0) * p_k / (2.0 * k))


def interp_worst_case_error(k: int, m: int, delta: float, p_k: float, r: int) -> float:
    """Worst-case error of the interpolation protocol: all m*delta differing
    bits consolidated into the fewest blocks, each signal repeated r times."""
    md = m * delta
    full = math.floor(md / k)
    t = md - k * full
    per_full = interp_nd_prob(k, k, p_k)
    per_part = interp_nd_prob(t, k, p_k)
    return per_full ** (full * r) * per_part ** r


def _first_true(pred, cap: int | None = None) -> int:
    """Smallest t >= 1 with pred(t), for a pred that is false below some t
    and true from it on.

    Gallops over t = 1, 2, 4, ... and then bisects the last doubling
    interval, so a first true t costs O(log t) calls of pred.  ``cap`` is a
    t where pred is known to hold: it bounds the search and is never
    evaluated.
    """
    lo, hi = 0, 1
    while (cap is None or hi < cap) and not pred(hi):
        lo, hi = hi, 2 * hi
    if cap is not None:
        hi = min(hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def solve_repetition(k: int, m: int, delta: float, p_k: float, epsilon: float) -> int:
    """Minimal repetition number r with interp_worst_case_error <= epsilon.

    The error does not increase in r, so ``_first_true`` finds r by
    galloping and bisection; a per-copy error that underflows to 0 gives 1.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if interp_worst_case_error(k, m, delta, p_k, 1) >= 1.0:
        raise InfeasibleError(
            "per-copy factor is 1 (p_k = 0 or delta = 0); epsilon unattainable"
        )
    return _first_true(
        lambda r: interp_worst_case_error(k, m, delta, p_k, r) <= epsilon)


def _ring_steps(k: int, delta: float) -> tuple[float, float, float]:
    """(frac, cos lo, cos hi): the cosines of the ring steps lo = floor(k*delta)
    and lo + 1 nearest k*delta, and frac = k*delta - lo, the upper's weight."""
    if delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    kd = k * delta
    lo = math.floor(kd)
    two_k = 1 << k
    return (kd - lo, math.cos(2.0 * math.pi * lo / two_k),
            math.cos(2.0 * math.pi * (lo + 1) / two_k))


def _with_dark_counts(p, p_dark: float):
    """1 - (1 - p)(1 - p_dark), summed so tiny p and p_dark do not cancel."""
    return p + p_dark - p * p_dark


def ring_error_exponent(k: int, delta: float) -> float:
    """Exponent g with worst-case ring error exp(-mu * g); fractional k*delta
    interpolates between the two nearest ring steps."""
    frac, cos_lo, cos_hi = _ring_steps(k, delta)
    return 1.0 - (1.0 - frac) * cos_lo - frac * cos_hi


def ring_worst_case_error(k: int, mu: float, delta: float) -> float:
    """Worst-case error of the ideal ring protocol (exact for delta <= 3/k)."""
    if mu < 0.0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    return math.exp(-mu * ring_error_exponent(k, delta))


def experimental_click_probs(k: int, beta_k: float, delta: float, p_dark: float,
                             visibility: float = 1.0) -> tuple[float, float]:
    """Per-signal click probabilities (p_D, p_E) of the binomial click model.

    p_D applies to the worst-case (evenly distributed) differing inputs, p_E
    to equal inputs.  At unit visibility p_E is the dark-count probability
    alone and p_D matches the fractional-step ring model exactly.
    """
    frac, cos_lo, cos_hi = _ring_steps(k, delta)
    b2 = abs(beta_k) ** 2
    p_signal = ((1.0 - frac) * -math.expm1(-b2 * (1.0 - visibility * cos_lo))
                + frac * -math.expm1(-b2 * (1.0 - visibility * cos_hi)))
    p_equal = -math.expm1(-b2 * (1.0 - visibility))
    p_E = _with_dark_counts(p_equal, p_dark)
    # each term is >= p_equal, as cos <= 1; at visibility 0 both equal it,
    # and rounding, of their mixture or of the dark counts, must not leave
    # p_D below p_E
    return max(_with_dark_counts(p_signal, p_dark), p_E), p_E


def _log_tail(prob: float) -> float:
    # numpy's log, as in scipy.stats: on AVX-512 hardware it differs from
    # math.log in the last bit for about 0.6 % of arguments
    return float(np.log(prob)) if prob != 0.0 else -math.inf


def log_binom_sf(t: int, m: int, p: float) -> float:
    """log P(Bin(m, p) >= t)."""
    if t <= 0:
        return 0.0
    if t > m:
        return -math.inf
    return _log_tail(_binom_sf(t - 1, m, p))


def log_binom_cdf(t: int, m: int, p: float) -> float:
    """log P(Bin(m, p) < t)."""
    if t <= 0:
        return -math.inf
    if t > m:
        return 0.0
    return _log_tail(_binom_cdf(t - 1, m, p))


_TAIL_MASS = 1e-18  # a count law's dropped mass: far below a uniform's 2^-53


def _count_law_size(mu: float, cap: int | None = None) -> int:
    """Entries kept of a count law of mean mu: up to the first t > mu whose
    Chernoff bound e^-mu (e mu / t)^t on P(N >= t), valid for Poisson
    counts and sums of Bernoulli trials, is below ``_TAIL_MASS``.  No t
    exceeds a nan or infinite mu, so a non-finite mu raises ValueError."""
    if not math.isfinite(mu):
        raise ValueError(f"a count law needs a finite mean, got {mu}")
    return _first_true(lambda t: t > mu and _log_poisson_tail_bound(
        mu, t - mu) < math.log(_TAIL_MASS), cap=cap)


def _poisson_pmf(mu: float) -> np.ndarray:
    """P(N = h) of a Poisson(mu) photon number for h below
    ``_count_law_size(mu)``, each term e^-mu prod_{i <= h} (mu / i) summed
    in log space (every factor is positive, so nothing cancels)."""
    log_ratios = np.log(mu / np.arange(1, _count_law_size(mu)))
    return np.exp(-mu + np.concatenate(([0.0], np.cumsum(log_ratios))))


def _log_poisson_tail_bound(mu: float, shift: float) -> float:
    """log of the Chernoff bound e^{-mu} (e mu / (mu + shift))^(mu + shift).

    With s = mu + shift and x = shift / s that is s (x + log1p(-x)) up to
    |x| = 1/2 and s (x - log(s / mu)) past it.  x + log1p(-x) loses about
    log2(2 / |x|) bits, so for |x| <= 0.05 it is the series
    -sum_{j >= 2} x^j / j, summed by Horner's rule from 1/13 (at |x| <= 0.05
    the first term left out, x^14 / 14, is below 2^-53 x^2 / 2).  s / mu >=
    2^-53 never underflows; it overflows only where mu < 2^-1024 s, whose
    exponent, below -708 s, comes out -inf.  A Chernoff exponent is <= 0,
    and round-off must not lift it above."""
    s = mu + shift
    if s <= 0.0:
        return 0.0
    if mu <= 0.0:
        return -math.inf
    x = shift / s
    if abs(x) <= 0.05:
        acc = ((((((((((x * (1 / 13) + 1 / 12) * x + 1 / 11) * x + 1 / 10)
                      * x + 1 / 9) * x + 1 / 8) * x + 1 / 7) * x + 1 / 6)
                   * x + 1 / 5) * x + 1 / 4) * x + 1 / 3) * x + 1 / 2
        return -s * x * x * acc
    return min(0.0, s * (x + (math.log1p(-x) if abs(x) <= 0.5
                              else -math.log(s / mu))))


def _typical_tail(mu_min: float, mu_max: float, delta: int) -> float:
    """Upper bound on the probability mass outside the typical photon-number
    window [mu_min - delta, mu_max + delta]."""
    upper = math.exp(_log_poisson_tail_bound(mu_max, delta))
    lower = 0.0
    if mu_min - delta > 0.0:
        lower = math.exp(_log_poisson_tail_bound(mu_min, -delta))
    return lower + upper


def _click_total_pmf(p: np.ndarray) -> np.ndarray:
    """P(N = t), t = 0, 1, ..., of the clicks N of independent modes that
    click with probabilities p: the Poisson-binomial law (Hoeffding, Ann.
    Math. Stat. 27, 1956).

    The pmf keeps ``_count_law_size`` entries, so it drops at most
    ``_TAIL_MASS``.  Modes merge pairwise, level by level, each
    merge one convolution of two columns cut at that length, so every term
    is a product of probabilities (nothing cancels) and the loops run over
    counts, never over modes.  The cut costs the kept entries nothing: a
    convolution's first entries read only the first entries of its factors.
    """
    size = _count_law_size(float(p.sum()), cap=p.size + 1)
    cols = np.stack([1.0 - p, p])  # entry (t, j): P(mode j clicks t times)
    while cols.shape[1] > 1:
        width, modes = cols.shape
        half = modes // 2
        a, b = cols[:, :half], cols[:, half:2 * half]
        merged = np.zeros((min(2 * width - 1, size), modes - half))
        for t in range(min(width, size)):
            n = min(width, merged.shape[0] - t)
            merged[t:t + n, :half] += a[t] * b[:n]
        if modes % 2:  # the odd mode out passes to the next level as it is,
            # cut like the merged columns
            merged[:width, half] = cols[:merged.shape[0], -1]
        cols = merged
    return cols[:size, 0]


def _difference_law(p_click: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values d and probabilities of D = N_light - N_dark, for the
    per-mode click probabilities of the dark port (row 0) and the light
    port (row 1): one convolution of the two ports' click-total laws."""
    dark, light = (_click_total_pmf(p) for p in p_click)
    return (np.arange(dark.size + light.size - 1) - (dark.size - 1),
            np.convolve(light, dark[::-1]))


def optimal_threshold(m_k: int, p_D: float, p_E: float) -> ThresholdResult:
    """Integer threshold minimizing max(P(Bin(m_k,p_E) >= t), P(Bin(m_k,p_D) < t)).

    The false-positive tail does not increase in t and the false-negative
    tail does not decrease.  Let t_c be the first crossing, the smallest t
    where the false-positive tail is at or below the false-negative one.
    For every t >= t_c the worse tail is the false-negative one, smallest
    at t_c; for every t < t_c it is the false-positive one, smallest at
    t_c - 1.  So only t_c - 1 and t_c can win (t_c + 1 never does), and on
    a tie ``min`` takes the smaller t.  ``_first_true`` finds t_c >= 1 by
    galloping over t = 1, 2, 4, ... and bisecting the last doubling
    interval, capped at m_k + 1, so it costs O(log t_c) tail pairs; with
    few expected clicks (small p_E*m_k) that is a handful, against
    O(log m_k) for bisecting all of [0, m_k + 1].  Both candidates are
    thresholds the search has evaluated, or t = 0 and m_k + 1, whose tails
    need no kernel call.
    """
    if not 0.0 <= p_E <= p_D <= 1.0:
        raise ValueError(f"need 0 <= p_E <= p_D <= 1, got p_E={p_E}, p_D={p_D}")

    memo = {}

    def tails(t: int) -> tuple[float, float]:
        if t not in memo:
            memo[t] = log_binom_sf(t, m_k, p_E), log_binom_cdf(t, m_k, p_D)
        return memo[t]

    def crosses(t: int) -> bool:
        false_pos, false_neg = tails(t)
        return false_pos <= false_neg

    # t = 0 never crosses (log sf = 0 > log cdf = -inf) and t = m_k + 1
    # always does (log sf = -inf <= log cdf = 0)
    hi = _first_true(crosses, cap=m_k + 1)
    log_err, best = min((max(tails(t)), t) for t in (hi - 1, hi))
    return ThresholdResult(d_th=best, worst_case_error=math.exp(log_err),
                           log_worst_case_error=log_err)


def worst_case_error_with_threshold(k: int, m: int, mu_detected: float,
                                    delta: float, noise: NoiseModel) -> ThresholdResult:
    """Threshold-decision worst-case error of the ring protocol at a given
    detected total mean photon number.

    This d_th is the decision rule itself: the Monte Carlo decides with it.
    NotEqual needs at least one click, so d_th >= 1; t = 0 can win the
    search only in a tie at error 1, so the floor moves no error value.
    """
    p_D, p_E = experimental_click_probs(k, _signal_amplitude(m, k, mu_detected),
                                        delta, noise.p_dark, noise.visibility)
    res = optimal_threshold(_signal_count(m, k), p_D, p_E)
    return res if res.d_th >= 1 else replace(res, d_th=1)


def _brentq(f, a: float, b: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy's ``brentq``: the C loop of
    ``Zeros/brentq.c`` with the same operations in the same order, and the
    checks of its Python wrapper.  It evaluates f at the same points and
    returns the same float.  An end with f == 0 is returned at once; ends of
    one sign and a nan value of f raise ``ValueError``, and ``maxiter``
    iterations without convergence raise ``RuntimeError``.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    rtol_min = 4 * math.ulp(1.0)
    if rtol < rtol_min:
        raise ValueError(f"rtol too small ({rtol:g} < {rtol_min:g})")

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 * delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = _c_div(-fcur * (fblk * dblk - fpre * dpre),
                              dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _c_div(num: float, den: float) -> float:
    """num / den as C computes it: a zero den gives +-inf or nan, not an
    exception.  The extrapolation step reaches it when a product of two
    tiny slopes underflows."""
    if den != 0.0:
        return num / den
    if num == 0.0 or math.isnan(num):
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def _log_over(x: float, epsilon: float) -> float:
    """log(x / epsilon) for x > 0, taken as log(x) - log(epsilon) only where
    x / epsilon overflows (a subnormal epsilon), so every normal epsilon
    keeps the bits of log(x / epsilon)."""
    ratio = x / epsilon
    if ratio < math.inf:
        return math.log(ratio)
    return math.log(x) - math.log(epsilon)


_MU_CAP = 1e7
# _brentq's tolerances in solve_amplitude: its root may sit up to
# xtol + rtol |x| below the crossing, which the delta optimizer's floor
# allows for
_AMPLITUDE_XTOL = 1e-12
_AMPLITUDE_RTOL = 1e-10


def solve_amplitude(k: int, m: int, delta: float, epsilon: float,
                    noise: NoiseModel = IDEAL_NOISE) -> float:
    """Total mean photon number attaining worst-case error epsilon.

    Ideal noise inverts the closed-form ring error.  Otherwise the detected
    mean photon number is root-found through the threshold model.  The
    returned value is the launched (initial) photon number, i.e. it includes
    the 1/eta rescale.  If the error stays below epsilon down to the 1e-12
    floor of the lower bracket, dark counts alone attain epsilon and the
    value is 0.0, as at epsilon = 1.  At visibility 1 with k*delta < 1 the
    click probability p_D is capped below frac + p_dark - frac p_dark
    (frac = k*delta) whatever the amplitude; if even the cap leaves no
    click more likely than epsilon, ``InfeasibleError`` names the cap
    before any bracketing, and so does visibility 0 at epsilon < 1/2.  A
    launched value that overflows, as at a subnormal eta, raises
    ``InfeasibleError`` too.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if epsilon == 1.0:
        return 0.0
    g = ring_error_exponent(k, delta)
    if g <= 0.0:
        raise InfeasibleError(f"zero error exponent at k={k}, delta={delta}")
    mu_ideal = _log_over(1.0, epsilon) / g
    if noise.p_dark == 0.0 and noise.visibility == 1.0:
        return _launched(mu_ideal, noise.eta)

    if noise.visibility == 0.0 and epsilon < 0.5:
        # p_D == p_E, so every threshold errs with probability >= 1/2
        raise InfeasibleError(f"error {epsilon} unattainable at visibility 0,"
                              f" where equal and different inputs click alike")
    log_eps = math.log(epsilon)
    if noise.visibility == 1.0 and k * delta < 1.0:
        # step 0 never clicks, so p_D stays below its limit p_inf and the
        # error is at least P(no click) = (1 - p_D)^m_k at every amplitude;
        # the margin keeps round-off from raising where a root exists
        p_inf = _with_dark_counts(k * delta, noise.p_dark)
        m_k = _signal_count(m, k)
        log_floor = m_k * math.log1p(-p_inf)
        if log_floor - log_eps > 1e-9:
            raise InfeasibleError(
                f"error {epsilon} unattainable at any mu: at k*delta = "
                f"{k * delta:g} < 1 a signal clicks with probability below "
                f"p_inf = {p_inf:g}, so no signal clicks with probability "
                f"above (1 - p_inf)^{m_k} = {math.exp(log_floor):g}")

    memo = {}  # the bracket loops and _brentq revisit amplitudes

    def excess(mu_det: float) -> float:
        if mu_det not in memo:
            memo[mu_det] = worst_case_error_with_threshold(
                k, m, mu_det, delta, noise).log_worst_case_error - log_eps
        return memo[mu_det]

    lo = mu_ideal
    while lo > 1e-12 and excess(lo) < 0.0:
        lo /= 4.0
    hi = max(mu_ideal, 1.0)
    while excess(hi) > 0.0:
        hi *= 2.0
        if hi > _MU_CAP:
            causes = ["dark counts too strong"] * (noise.p_dark > 0.0) + [
                f"visibility {noise.visibility:g} too low"] * (noise.visibility < 1.0)
            raise InfeasibleError(
                f"error {epsilon} unattainable below mu cap {_MU_CAP} "
                f"({', '.join(causes)})")
    if excess(lo) < 0.0 and excess(hi) < 0.0:
        # lo reached the floor: dark counts alone keep the error below epsilon
        return 0.0
    return _launched(_brentq(excess, lo, hi, xtol=_AMPLITUDE_XTOL,
                             rtol=_AMPLITUDE_RTOL), noise.eta)


def _launched(mu_det: float, eta: float) -> float:
    """The launched photon number mu_det / eta; one that overflows, as at a
    subnormal eta, is infeasible."""
    mu = mu_det / eta
    if mu == math.inf:
        raise InfeasibleError(f"launched photon number {mu_det:g} / eta "
                              f"overflows at eta = {eta:g}")
    return mu


_DELTA_FLOOR = 1e-12


def gray_beats_qary(k: int, delta: float) -> tuple[bool, float]:
    """Check h(d)/d - h(kd)/(kd) <= log2(2^k - 1) and return the slack.

    True means the Gray-coded binary ring protocol sends fewer signals than
    the q-ary ring protocol at q = 2^k under GV-saturating codes.
    """
    if not 0.0 <= delta <= (1.0 - 2.0 ** (-k)) / k:
        raise ValueError(f"delta out of range for k={k}: {delta}")
    d = max(delta, _DELTA_FLOOR)
    lhs = binary_entropy(d) / d - binary_entropy(k * d) / (k * d)
    rhs = math.log2((1 << k) - 1)
    margin = rhs - lhs
    return margin >= -1e-12, margin


def optimal_measurement_error_lb(overlap: float) -> float:
    """Lower bound 2c^2/(1+c^2) on the worst-case error of any one-sided
    measurement, for state overlap c (itself >= c^2)."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {overlap}")
    c2 = overlap * overlap
    return 2.0 * c2 / (1.0 + c2)


def ed_estimate(difference: float | np.ndarray,
                alpha: complex) -> float | np.ndarray:
    """Squared-distance estimate 2 - D/|alpha|^2 from the click difference
    D = N_light - N_dark, a scalar or an array of them.

    Uses clicks as photon-count proxies, so it is asymptotically unbiased
    only in the weak-amplitude limit.
    """
    if abs(alpha) == 0.0:
        raise ValueError("alpha must be nonzero")
    return 2.0 - difference / abs(alpha) ** 2
