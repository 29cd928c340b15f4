"""Information-leakage upper bounds.

Two engines: majorization of the diagonal probability vector (interpolation
and ring families), and projection onto a typical photon-number subspace
with a Fannes-Audenaert continuity step (any coherent-state protocol,
including the lattice family).  Entropies are base 2 throughout.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import (IDEAL_NOISE, InfeasibleError, NoiseModel,
                       ring_error_exponent, solve_amplitude)
from .codes import binary_entropy, gv_binary_rate
from .constellations import lattice_mu_range

__all__ = [
    "LeakageBound",
    "shannon_entropy",
    "lambda_interpolation",
    "qil_interpolation",
    "lambda_ring",
    "lambda_ring_series",
    "qil_ring",
    "fannes_audenaert_bound",
    "asymptotic_bound",
    "classical_reference",
    "DeltaOptimum",
    "optimize_delta_for_qil",
]


@dataclass(frozen=True)
class LeakageBound:
    """A leakage upper bound in bits, tagged with the method that produced it
    and its labeled sub-terms."""

    bits: float
    method: str
    subterms: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.bits < 0.0:
            raise ValueError(f"leakage bound must be >= 0, got {self.bits}")


def shannon_entropy(p: np.ndarray) -> float:
    """Shannon entropy in bits of a probability vector (0 log 0 = 0)."""
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-12):
        raise ValueError("probability vector has negative entries")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"probability vector sums to {p.sum()}, not 1")
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def lambda_interpolation(k: int, p_k: float) -> np.ndarray:
    """Diagonal probability vector of one interpolation signal:
    (1 - p_k, p_k/2k, ..., p_k/2k) with 2k tail entries."""
    if not 0.0 <= p_k <= 1.0:
        raise ValueError(f"p_k must lie in [0, 1], got {p_k}")
    vec = np.full(2 * k + 1, p_k / (2.0 * k))
    vec[0] = 1.0 - p_k
    return vec


def qil_interpolation(k: int, m: int, p_k: float | None = None,
                      r: int = 1) -> LeakageBound:
    """Majorization leakage bound 2 ceil(m/k) r H(Lambda) for the
    interpolation family."""
    if p_k is None:
        p_k = k / m
    if not 0.0 <= p_k <= 1.0:
        raise ValueError(f"p_k must lie in [0, 1], got {p_k}")
    # H(lambda_interpolation) in closed form: its 2k tail entries are equal,
    # so the vector (infeasible at block sizes near m) is never built
    per_signal = 0.0
    if 0.0 < p_k:
        per_signal -= p_k * math.log2(p_k / (2.0 * k))
    if p_k < 1.0:
        per_signal -= (1.0 - p_k) * math.log2(1.0 - p_k)
    n_signals = -(-m // k)
    bits = 2.0 * n_signals * r * per_signal
    analytic = 2.0 * r * (2.0 + (1.0 + k / m) * math.log2(2.0 * m))
    subterms = {
        "per_signal_entropy": per_signal,
        "signals": n_signals * r,
        "analytic_bound": analytic,
    }
    if p_k == k / m and bits > analytic + 1e-9:
        raise AssertionError(
            f"majorization bound {bits} exceeds its analytic cap {analytic}"
        )
    return LeakageBound(bits=bits, method="schur_horn", subterms=subterms)


@functools.cache
def _ring_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-only arrays of lambda_ring: the 2^k-th roots of unity and the
    2^k x 2^k phase matrix of the inverse DFT, read-only and cached for the
    process's lifetime (2^(2k+4) bytes: 64 KiB at k = 6, 256 MiB at 12)."""
    two_k = 1 << k
    j = np.arange(two_k)
    omega_j = np.exp(2j * np.pi * j / two_k)
    phases = np.exp(-2j * np.pi * np.outer(j, j) / two_k)
    omega_j.flags.writeable = False
    phases.flags.writeable = False
    return omega_j, phases


def lambda_ring(k: int, beta_k: float) -> np.ndarray:
    """Diagonal probability vector of one ring signal.

    Entry l is the Poisson(|beta|^2) mass on photon numbers congruent to l
    mod 2^k, evaluated by roots-of-unity filtering of the generating
    function (stable for any |beta|^2, unlike the raw factorial series).
    The roots of unity and the DFT phase matrix depend on k alone, so they
    are built once per k; each call does one matrix-vector product.
    """
    b2 = abs(beta_k) ** 2
    two_k = 1 << k
    omega_j, phases = _ring_tables(k)
    # sum_{h = l mod 2^k} e^{-b2} b2^h / h! = 2^-k sum_j w^{-lj} exp(b2 (w^j - 1))
    gen = np.exp(b2 * (omega_j - 1.0))
    vec = (phases @ gen).real / two_k
    return np.clip(vec, 0.0, None)


def lambda_ring_series(k: int, beta_k: float) -> np.ndarray:
    """Direct factorial-series evaluation of lambda_ring, for cross-checks."""
    b2 = abs(beta_k) ** 2
    two_k = 1 << k
    vec = np.zeros(two_k)
    log_term = -b2  # log of e^{-b2} b2^h / h! at h = 0
    h = 0
    while True:
        term = math.exp(log_term)
        vec[h % two_k] += term
        if h > b2 and term < 1e-18:
            break
        h += 1
        log_term += math.log(b2) - math.log(h) if b2 > 0 else -math.inf
        if b2 == 0.0:
            break
    return vec


def qil_ring(k: int, m: float, beta_k: float) -> LeakageBound:
    """Majorization leakage bound (2m/k) H(Lambda) for the ring family."""
    per_signal = shannon_entropy(lambda_ring(k, beta_k))
    bits = (2.0 * m / k) * per_signal
    return LeakageBound(bits=bits, method="schur_horn",
                        subterms={"per_signal_entropy": per_signal,
                                  "signals": m / k})


def _log_poisson_tail_bound(mu: float, shift: float) -> float:
    """log of the Chernoff bound e^{-mu} (e mu / (mu + shift))^(mu + shift)."""
    s = mu + shift
    if s <= 0.0:
        return 0.0
    return -mu + s * (1.0 + math.log(mu) - math.log(s)) if mu > 0 else -math.inf


def _typical_tail(mu_min: float, mu_max: float, delta: int) -> float:
    """Upper bound on the probability mass outside the typical photon-number
    window [mu_min - delta, mu_max + delta]."""
    upper = math.exp(_log_poisson_tail_bound(mu_max, delta))
    lower = 0.0
    if mu_min - delta > 0.0:
        lower = math.exp(_log_poisson_tail_bound(mu_min, -delta))
    return lower + upper


def _log2_dim_window(mu_max: float, mu_min: float, delta: float, m_k: float) -> float:
    """log2 dimension of Fock states of m_k modes with total photon number in
    the window of radius delta around [mu_min, mu_max]."""
    return ((mu_max + delta) * math.log2(mu_max + delta + m_k - 1.0)
            + math.log2(mu_max - mu_min + 2.0 * delta + 1.0))


def fannes_audenaert_bound(n: float, m_k: float, mu_min: float,
                           mu_max: float) -> LeakageBound:
    """Practical leakage bound from typical-subspace projection plus the
    Fannes-Audenaert continuity inequality, minimized exactly over the
    integer window radius r.

    Radius r with tail budget eps' = tail(r) gives dim(r) + 2 n g + h(g),
    g = sqrt(2 eps').  That budget is the best for r: every eps' in
    [tail(r), tail(r - 1)) selects r, and 2 n g + h(g) increases in g for
    every double g < 1 once n >= 27 (callers use n >= 1e3).  Radii with
    tail(r) >= 1/2 admit no budget; tail(r) does not increase in r, so the
    scan starts at the first radius below 1/2, found by galloping and
    bisection with the same tail function.  It stops once dim(r) alone
    reaches the best bound, which is exact: dim(r) increases strictly in r,
    the rest is >= 0.  For the same reason h(g) is skipped where
    dim(r) + 2 n g already reaches the best bound.
    """
    if not 0.0 <= mu_min <= mu_max < math.inf:
        raise ValueError(f"bad photon range [{mu_min}, {mu_max}]")
    # gallop to a radius below 1/2, then bisect: tail(lo) >= 1/2 unless
    # lo = 0, tail(hi) < 1/2
    hi = 1
    while _typical_tail(mu_min, mu_max, hi) >= 0.5:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _typical_tail(mu_min, mu_max, mid) >= 0.5:
            lo = mid
        else:
            hi = mid
    best = None  # (bits, radius, eps', dimension, continuity, h)
    for radius in itertools.count(hi):
        dim_term = _log2_dim_window(mu_max, mu_min, radius, m_k)
        if best is not None and dim_term >= best[0]:
            break
        eps = _typical_tail(mu_min, mu_max, radius)
        if eps >= 0.5:
            continue
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


def _poisson_entropy(mu: float) -> float:
    """Entropy in bits of a Poisson(mu) variable, by direct summation."""
    if mu == 0.0:
        return 0.0
    h = 0.0
    log_p = -mu
    j = 0
    while True:
        p = math.exp(log_p)
        if p > 0.0:
            h -= p * log_p
        if j > mu and p < 1e-16:
            break
        j += 1
        log_p += math.log(mu) - math.log(j)
    return h / math.log(2.0)


def asymptotic_bound(n: float, m_k: float, mu_min: float, mu_max: float,
                     Delta: int) -> LeakageBound:
    """Telescoping-window leakage bound with O(log m_k) scaling.

    Splits the photon-number line into windows of width Delta around
    [mu_min, mu_max]; each window contributes its occupation probability
    times its log-dimension, plus the entropy of the window index.
    """
    if Delta <= mu_max:
        raise ValueError(f"requires Delta > mu_max, got Delta={Delta}, "
                         f"mu_max={mu_max}")
    index_entropy = _poisson_entropy(mu_max)
    # j = 0 window: occupation bounded by 1
    total = _log2_dim_window(mu_max, mu_min, Delta, m_k)
    j = 1
    while True:
        log_pr = _log_poisson_tail_bound(mu_max, j * Delta)
        dim = ((mu_max + (j + 1) * Delta)
               * math.log2(mu_max + (j + 1) * Delta + m_k - 1.0)
               + math.log2(Delta))
        term = math.exp(log_pr) * dim
        total += term
        if term < 1e-12:
            break
        j += 1
        if j > 10**6:
            raise ValueError("telescoping series failed to converge")
    return LeakageBound(
        bits=index_entropy + total,
        method="asymptotic",
        subterms={"index_entropy": index_entropy, "window_sum": total,
                  "truncation_index": j},
    )


def classical_reference(n: float) -> LeakageBound:
    """Reference-only classical leakage curve c * sqrt(n); the constant c = 1
    is a documented placeholder, not a cited bound."""
    c = 1.0
    return LeakageBound(bits=c * math.sqrt(n), method="classical_ref",
                        subterms={"constant": c, "reference_only": True})


@dataclass(frozen=True)
class DeltaOptimum:
    """Result of the 1-D leakage minimization over the code distance."""

    delta: float
    bound: LeakageBound
    m: float
    mu: float
    m_k: float


_DELTA_LO = 1e-4
_GOLDEN_TOL = 1e-6
_COARSE_GRID_POINTS = 41


def _coherent_family_qil(family: str, k: int, n: float, m: float,
                         delta: float, epsilon: float, noise: NoiseModel,
                         measurement: str) -> DeltaOptimum:
    """Design point and leakage bound of a ring or lattice protocol for n
    input bits at codeword length m: real-valued from the delta optimizer,
    the integer GV length from ``qfp solve``, rounded where m must be whole.

    The ring family admits the majorization bound; the lattice constellation
    does not, so it falls back to the typical-subspace bound with its
    per-codeword photon-number range.
    """
    if measurement == "optimal_lb":
        # optimal one-sided measurement error >= beamsplitter error squared,
        # so half the exponent budget guarantees epsilon
        g = ring_error_exponent(k, delta)
        mu = math.log(1.0 / epsilon) / (2.0 * g) / noise.eta
        if not noise.is_ideal and noise.p_dark > 0.0:
            raise ValueError("optimal-measurement bound is ideal-setting only")
    elif measurement == "beamsplitter":
        mu = solve_amplitude(k, int(round(m)), delta, epsilon, noise)
    else:
        raise ValueError(f"unknown measurement {measurement!r}")
    m_k = m / k
    if family == "lattice":
        mu_min, mu_max = lattice_mu_range(k, int(round(m)), mu)
        bound = fannes_audenaert_bound(n, m_k, mu_min, mu_max)
    else:
        beta_k = math.sqrt(mu / m_k)
        bound = qil_ring(k, m, beta_k)
    return DeltaOptimum(delta=delta, bound=bound, m=m, mu=mu, m_k=m_k)


def optimize_delta_for_qil(family: str, k: int, n: float, epsilon: float,
                           noise: NoiseModel = IDEAL_NOISE,
                           measurement: str = "beamsplitter") -> DeltaOptimum:
    """Golden-section minimization of the family's leakage bound over the
    relative minimum distance delta."""
    if family not in ("ring", "lattice"):
        raise ValueError(f"unsupported family {family!r}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")

    def design(delta: float) -> DeltaOptimum:
        # the GV bound taken as an equality for the rate: m is real-valued
        return _coherent_family_qil(family, k, n, n / gv_binary_rate(delta),
                                    delta, epsilon, noise, measurement)

    def objective(delta: float) -> float:
        # a distance can be individually infeasible (dark-count floor above
        # epsilon at its codeword length) without the whole problem being so
        try:
            return design(delta).bound.bits
        except InfeasibleError:
            return math.inf

    # the integer-threshold click model makes the objective piecewise with
    # genuine jumps (dark-count floor crossings), so bracket the global
    # minimum on a coarse grid before refining
    # m diverges as delta -> 1/2, so the minimum is always interior; keep
    # the scan away from the blow-up
    grid = np.linspace(_DELTA_LO, 0.4999, _COARSE_GRID_POINTS)
    values = [objective(float(d)) for d in grid]
    i_best = int(np.argmin(values))
    if not math.isfinite(values[i_best]):
        raise InfeasibleError(
            f"no feasible distance for k={k}, n={n}, epsilon={epsilon} "
            f"under the given noise")
    a = float(grid[max(0, i_best - 1)])
    b = float(grid[min(grid.size - 1, i_best + 1)])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > _GOLDEN_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    result = design(0.5 * (a + b))
    # near a jump the bracket midpoint may sit on the expensive branch;
    # never return worse than the best coarse-grid point
    if result.bound.bits > values[i_best]:
        result = design(float(grid[i_best]))
    return result
