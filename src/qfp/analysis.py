"""Closed-form error probabilities, parameter solvers, and the experimental
binomial click model.

All probabilities that can underflow (binomial tails with per-signal click
probabilities down to ~1e-11 over ~1e6 signals) are returned in log space.
The tails come from scipy's compiled kernels, called directly: the Boost
binomial ufuncs ``_binom_sf``/``_binom_cdf`` (the ones ``scipy.stats.binom``
calls), or ``pdtrc``/``pdtr`` in the Poisson limit m*p < 1e-3, p < 1e-6.
The values are bit-identical to ``scipy.stats`` ``logsf``/``logcdf``
without its per-call argument handling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize, special
from scipy.special._ufuncs import _binom_cdf, _binom_sf

from .codes import binary_entropy

__all__ = [
    "NoiseModel",
    "ThresholdResult",
    "InfeasibleError",
    "IDEAL_NOISE",
    "PAPER_EXP_NOISE",
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
    "qary_ring_error",
    "gray_beats_qary",
    "optimal_measurement_error_lb",
    "ed_estimate",
    "ed_repetition_plan",
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
    p_D: float
    p_E: float


def no_click_prob(beta_a: complex | np.ndarray, beta_b: complex | np.ndarray,
                  visibility: float = 1.0) -> float | np.ndarray:
    """Probability of no dark-port click when interfering |beta_a> with |beta_b>.

    At unit visibility this is exp(-|beta_a - beta_b|^2 / 2), the squared-
    distance law of the balanced beamsplitter; reduced visibility scales only
    the interference term.  Amplitude arrays broadcast, one probability per
    signal pair.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    mu_dark = 0.5 * (np.abs(beta_a) ** 2 + np.abs(beta_b) ** 2
                     - 2.0 * visibility * (np.conj(beta_a) * beta_b).real)
    return np.exp(-mu_dark)


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


def solve_repetition(k: int, m: int, delta: float, p_k: float, epsilon: float) -> int:
    """Minimal repetition number r with interp_worst_case_error <= epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    per_copy = interp_worst_case_error(k, m, delta, p_k, 1)
    if per_copy >= 1.0:
        raise InfeasibleError(
            "per-copy factor is 1 (p_k = 0 or delta = 0); epsilon unattainable"
        )
    r = max(1, math.ceil(math.log(epsilon) / math.log(per_copy) - 1e-12))
    while r > 1 and interp_worst_case_error(k, m, delta, p_k, r - 1) <= epsilon:
        r -= 1
    while interp_worst_case_error(k, m, delta, p_k, r) > epsilon:
        r += 1
    return r


def ring_error_exponent(k: int, delta: float) -> float:
    """Exponent g with worst-case ring error exp(-mu * g); fractional k*delta
    interpolates between the two nearest ring steps."""
    if delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    kd = k * delta
    lo = math.floor(kd)
    frac = kd - lo
    two_k = 1 << k
    return (1.0
            - (1.0 - frac) * math.cos(2.0 * math.pi * lo / two_k)
            - frac * math.cos(2.0 * math.pi * (lo + 1) / two_k))


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
    b2 = abs(beta_k) ** 2
    kd = k * delta
    lo = math.floor(kd)
    frac = kd - lo
    two_k = 1 << k

    def click(step: float) -> float:
        ang = 2.0 * math.pi * step / two_k
        return -math.expm1(-b2 * (1.0 - visibility * math.cos(ang)))

    p_signal = (1.0 - frac) * click(lo) + frac * click(lo + 1)
    p_equal_optical = -math.expm1(-b2 * (1.0 - visibility))
    p_D = 1.0 - (1.0 - p_signal) * (1.0 - p_dark)
    p_E = 1.0 - (1.0 - p_equal_optical) * (1.0 - p_dark)
    if visibility == 1.0:
        # reduce exactly to the additive form of the binomial click model
        p_D = p_signal + p_dark - p_signal * p_dark
        p_E = p_dark
    return p_D, p_E


_POISSON_MEAN_CUT = 1e-3
_POISSON_P_CUT = 1e-6


def _use_poisson(m: int, p: float) -> bool:
    return m * p < _POISSON_MEAN_CUT and p < _POISSON_P_CUT


def _log_tail(prob: float) -> float:
    # numpy's log, as in scipy.stats: on AVX-512 hardware it differs from
    # math.log in the last bit for about 0.6 % of arguments
    return float(np.log(prob)) if prob != 0.0 else -math.inf


def log_binom_sf(t: int, m: int, p: float) -> float:
    """log P(Bin(m, p) >= t), Poisson-limit evaluation in the deep tail."""
    if t <= 0:
        return 0.0
    if t > m:
        return -math.inf
    if p == 0.0:
        return -math.inf
    if _use_poisson(m, p):
        return _log_tail(special.pdtrc(t - 1, m * p))
    return _log_tail(_binom_sf(t - 1, m, p))


def log_binom_cdf(t: int, m: int, p: float) -> float:
    """log P(Bin(m, p) < t)."""
    if t <= 0:
        return -math.inf
    if t > m:
        return 0.0
    if p == 0.0:
        return 0.0
    if _use_poisson(m, p):
        return _log_tail(special.pdtr(t - 1, m * p))
    return _log_tail(_binom_cdf(t - 1, m, p))


def optimal_threshold(m_k: int, p_D: float, p_E: float) -> ThresholdResult:
    """Integer threshold minimizing max(P(Bin(m_k,p_E) >= t), P(Bin(m_k,p_D) < t)).

    The false-positive tail is nonincreasing and the false-negative tail
    nondecreasing in t, so the global minimum sits next to the crossing:
    the smallest t where the false-positive tail drops to (or below) the
    false-negative one.  The search gallops over t = 1, 2, 4, ... and then
    bisects the last doubling interval, so it costs O(log t) tail pairs for
    a crossing at t; with few expected clicks (small p_E*m_k) that is a
    handful, against O(log m_k) for bisecting all of [0, m_k + 1].
    """
    if not 0.0 <= p_E <= p_D <= 1.0:
        raise ValueError(f"need 0 <= p_E <= p_D <= 1, got p_E={p_E}, p_D={p_D}")

    @functools.cache
    def tails(t: int) -> tuple[float, float]:
        return log_binom_sf(t, m_k, p_E), log_binom_cdf(t, m_k, p_D)

    def crosses(t: int) -> bool:
        false_pos, false_neg = tails(t)
        return false_pos <= false_neg

    # t = 0 never crosses (log sf = 0 > log cdf = -inf) and t = m_k + 1
    # always does (log sf = -inf <= log cdf = 0)
    lo, hi = 0, 1
    while hi <= m_k and not crosses(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, m_k + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if crosses(mid):
            hi = mid
        else:
            lo = mid
    candidates = {max(0, hi - 1), hi, min(m_k + 1, hi + 1)}
    log_err, best = min((max(tails(t)), t) for t in candidates)
    return ThresholdResult(d_th=best, worst_case_error=math.exp(log_err),
                           log_worst_case_error=log_err, p_D=p_D, p_E=p_E)


def worst_case_error_with_threshold(k: int, m: int, mu_detected: float,
                                    delta: float, noise: NoiseModel) -> ThresholdResult:
    """Threshold-decision worst-case error of the ring protocol at a given
    detected total mean photon number.

    This d_th is the decision rule itself: the Monte Carlo decides with it.
    NotEqual needs at least one click, so d_th >= 1; t = 0 can win the
    search only in a tie at error 1, so the floor moves no error value.
    """
    m_k = -(-m // k)
    beta2 = mu_detected / (m / k)
    p_D, p_E = experimental_click_probs(k, math.sqrt(beta2), delta,
                                        noise.p_dark, noise.visibility)
    res = optimal_threshold(m_k, p_D, p_E)
    return res if res.d_th >= 1 else replace(res, d_th=1)


_MU_CAP_DEFAULT = 1e7


def solve_amplitude(k: int, m: int, delta: float, epsilon: float,
                    noise: NoiseModel = IDEAL_NOISE,
                    mu_cap: float = _MU_CAP_DEFAULT) -> float:
    """Total mean photon number attaining worst-case error epsilon.

    Ideal noise inverts the closed-form ring error.  Otherwise the detected
    mean photon number is root-found through the threshold model.  The
    returned value is the launched (initial) photon number, i.e. it includes
    the 1/eta rescale.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if epsilon == 1.0:
        return 0.0
    g = ring_error_exponent(k, delta)
    if g <= 0.0:
        raise InfeasibleError(f"zero error exponent at k={k}, delta={delta}")
    if noise.p_dark == 0.0 and noise.visibility == 1.0:
        return math.log(1.0 / epsilon) / g / noise.eta

    log_eps = math.log(epsilon)

    def excess(mu_det: float) -> float:
        return worst_case_error_with_threshold(k, m, mu_det, delta,
                                               noise).log_worst_case_error - log_eps

    mu_ideal = math.log(1.0 / epsilon) / g
    lo = mu_ideal
    while lo > 1e-12 and excess(lo) < 0.0:
        lo /= 4.0
    hi = max(mu_ideal, 1.0)
    while excess(hi) > 0.0:
        hi *= 2.0
        if hi > mu_cap:
            raise InfeasibleError(
                f"error {epsilon} unattainable below mu cap {mu_cap} "
                f"(dark counts too strong)"
            )
    mu_det = optimize.brentq(excess, lo, hi, xtol=1e-12, rtol=1e-10)
    return mu_det / noise.eta


def qary_ring_error(q: int, mu: float, delta_q: float) -> float:
    """Worst-case error of the q-ary ring protocol."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if not 0.0 <= delta_q < 1.0 - 1.0 / q:
        raise ValueError(f"delta_q must lie in [0, 1 - 1/q), got {delta_q}")
    return math.exp(-mu * delta_q * (1.0 - math.cos(2.0 * math.pi / q)))


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


def ed_estimate(clicks_dark: np.ndarray, clicks_light: np.ndarray,
                alpha: complex, runs: int = 1) -> float | np.ndarray:
    """Squared-distance estimate 2 - (N_light - N_dark)/|alpha|^2 from total
    click counts, normalized per run.

    The totals sum the last axis (the modes): a 1-D pair of click vectors
    gives one estimate, a (trials, modes) pair one per trial.  Uses
    clicks as photon-count proxies, so it is asymptotically unbiased only in
    the weak-amplitude limit.
    """
    if abs(alpha) == 0.0:
        raise ValueError("alpha must be nonzero")
    n_dark = np.sum(clicks_dark, axis=-1) / runs
    n_light = np.sum(clicks_light, axis=-1) / runs
    return 2.0 - (n_light - n_dark) / abs(alpha) ** 2


# Hoeffding-style constant for the run count: per-run increments of the
# distance estimator are bounded, and a factor 2 covers the considered
# weak-amplitude operating points.
ED_PLAN_CONSTANT = 2.0


def ed_repetition_plan(epsilon_add: float, delta_fail: float) -> int:
    """Number of runs to estimate the squared distance to within epsilon_add
    except with probability delta_fail."""
    if not 0.0 < epsilon_add < 1.0 or not 0.0 < delta_fail < 1.0:
        raise ValueError("epsilon_add and delta_fail must lie in (0, 1)")
    return max(1, math.ceil(
        ED_PLAN_CONSTANT * math.log(2.0 / delta_fail) / epsilon_add ** 2))
