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
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .analysis import (IDEAL_NOISE, InfeasibleError, NoiseModel, _first_true,
                       interp_worst_case_error, solve_amplitude,
                       solve_repetition, worst_case_error_with_threshold)
from .codes import MAX_GRAY_BITS, binary_entropy, gv_binary_rate
from .constellations import (_signal_amplitude, lattice_mu_range,
                             ring_constellation)

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
    "Family",
    "FAMILIES",
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
    # 0.0 - sum, not -sum: a deterministic vector has entropy 0.0, not -0.0
    return float(0.0 - (p * np.log2(p)).sum())


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


_RING_K_MAX = 12  # lambda_ring's 2^k x 2^k DFT takes 592 MiB to build at 12


@functools.cache
def _ring_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-only arrays of lambda_ring: the 2^k-th roots of unity and the
    2^k x 2^k phase matrix of the inverse DFT, read-only and cached for the
    process's lifetime (2^(2k+4) bytes: 64 KiB at k = 6, 256 MiB at 12)."""
    two_k = 1 << k
    j = np.arange(two_k)
    omega_j = ring_constellation(k, 1.0)
    phases = np.exp(-2j * np.pi * np.outer(j, j) / two_k)
    omega_j.flags.writeable = False
    phases.flags.writeable = False
    return omega_j, phases


def lambda_ring(k: int, beta_k: float) -> np.ndarray:
    """Diagonal probability vector of one ring signal.

    Entry l is the Poisson(|beta|^2) mass on photon numbers congruent to l
    mod 2^k, evaluated by roots-of-unity filtering of the generating
    function.  The filter sums 2^k terms of size O(1) into entries of size
    |beta|^2, so at weak light it cancels: H(Lambda) is off by about 7e-6
    relative at k = 5, |beta|^2 = 1.7e-9 (``lambda_ring_series`` sums
    positive terms and does not cancel).  The roots of unity and the DFT
    phase matrix depend on k alone, so they are built once per k; each call
    does at most one matrix-vector product.
    """
    if k > _RING_K_MAX:
        raise ValueError(f"the ring needs k <= {_RING_K_MAX}, got k = {k}")
    b2 = abs(beta_k) ** 2
    two_k = 1 << k
    if b2 == 0.0:  # the vacuum, exactly: the DFT would leave round-off
        return np.eye(1, two_k)[0]
    omega_j, phases = _ring_tables(k)
    # sum_{h = l mod 2^k} e^{-b2} b2^h / h! = 2^-k sum_j w^{-lj} exp(b2 (w^j - 1))
    gen = np.exp(b2 * (omega_j - 1.0))
    vec = (phases @ gen).real / two_k
    return np.clip(vec, 0.0, None)


def _poisson_pmf(mu: float) -> np.ndarray:
    """P(N = h) of a Poisson(mu) photon number for h = 0, 1, ..., built term
    by term in log space (every term is positive, so nothing cancels) up to
    the first h past the mean whose term is below 1e-18."""
    terms = []
    log_term = -mu  # log of e^{-mu} mu^h / h! at h = 0
    h = 0
    while True:
        term = math.exp(log_term)
        terms.append(term)
        if mu == 0.0 or (h > mu and term < 1e-18):
            return np.array(terms)
        h += 1
        log_term += math.log(mu) - math.log(h)


def lambda_ring_series(k: int, beta_k: float) -> np.ndarray:
    """lambda_ring as the Poisson series folded mod 2^k, for cross-checks."""
    pmf = _poisson_pmf(abs(beta_k) ** 2)
    return np.bincount(np.arange(pmf.size) % (1 << k), weights=pmf,
                       minlength=1 << k)


def qil_ring(k: int, m: float, beta_k: float) -> LeakageBound:
    """Majorization leakage bound (2m/k) H(Lambda) for the ring family."""
    per_signal = shannon_entropy(lambda_ring(k, beta_k))
    bits = (2.0 * m / k) * per_signal
    return LeakageBound(bits=bits, method="schur_horn",
                        subterms={"per_signal_entropy": per_signal,
                                  "signals": m / k})


def _log_poisson_tail_bound(mu: float, shift: float) -> float:
    """log of the Chernoff bound e^{-mu} (e mu / (mu + shift))^(mu + shift).

    With s = mu + shift and x = shift / s that is s (x - log(s / mu)), and
    mu / s = 1 - x, so near s = mu log1p(-x) keeps the two logs from
    cancelling.  s / mu >= 2^-53 never underflows; it overflows only where
    mu < 2^-1024 s, whose exponent, below -708 s, comes out -inf.  A
    Chernoff exponent is <= 0, and round-off must not lift it above."""
    s = mu + shift
    if s <= 0.0:
        return 0.0
    if mu <= 0.0:
        return -math.inf
    x = shift / s
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


def _log2_fock_dim(top: float, width: float, m_k: float) -> float:
    """log2 of a count of the Fock states of m_k modes whose total photon
    number is one of ``width`` values up to ``top``: at most
    (top + m_k - 1)^top states per total."""
    return top * math.log2(top + m_k - 1.0) + math.log2(width)


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
    scan starts at the first radius below 1/2, which ``_first_true`` finds
    by galloping and bisection with the same tail function.  It stops once
    dim(r) alone reaches the best bound, which is exact: dim(r) increases
    strictly in r, the rest is >= 0.  For the same reason h(g) is skipped
    where dim(r) + 2 n g already reaches the best bound.
    """
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


def asymptotic_bound(m_k: float, mu_min: float, mu_max: float,
                     Delta: int) -> LeakageBound:
    """Telescoping-window leakage bound with O(log m_k) scaling.

    Splits the photon-number line into windows of width Delta around
    [mu_min, mu_max]; each window contributes its occupation probability
    times its log-dimension, plus the entropy of the window index.
    """
    if Delta <= mu_max:
        raise ValueError(f"requires Delta > mu_max, got Delta={Delta}, "
                         f"mu_max={mu_max}")
    index_entropy = shannon_entropy(_poisson_pmf(mu_max))
    # j = 0 window, radius Delta around [mu_min, mu_max]: occupation <= 1
    total = _log2_fock_dim(mu_max + Delta, mu_max - mu_min + 2.0 * Delta + 1.0,
                           m_k)
    j = 1
    while True:
        log_pr = _log_poisson_tail_bound(mu_max, j * Delta)
        term = math.exp(log_pr) * _log2_fock_dim(mu_max + (j + 1) * Delta,
                                                 Delta, m_k)
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

    ``optimal_lb`` is modelled without noise.  Any one-sided measurement errs
    at least the beamsplitter error squared, so it takes half the latter's mu.
    """
    if measurement not in ("beamsplitter", "optimal_lb"):
        raise ValueError(f"unknown measurement {measurement!r}")
    if measurement == "optimal_lb" and not noise.is_ideal:
        raise ValueError("optimal_lb is modelled without noise")
    mu = solve_amplitude(k, int(round(m)), delta, epsilon, noise)
    if measurement == "optimal_lb":
        mu /= 2.0
    return DeltaOptimum(delta=delta, bound=FAMILIES[family].bound(n, k, m, mu),
                        mu=mu, m_k=m / k)


def optimize_delta_for_qil(family: str, k: int, n: float, epsilon: float,
                           noise: NoiseModel = IDEAL_NOISE,
                           measurement: str = "beamsplitter") -> DeltaOptimum:
    """Golden-section minimization of the family's leakage bound over the
    relative minimum distance delta."""
    fam = FAMILIES.get(family)
    if getattr(fam, "bound", None) is None:
        raise ValueError(f"unsupported family {family!r}")
    if not fam.k_min <= k <= fam.k_max:
        raise ValueError(f"the {family} family needs {fam.k_min} <= k <= "
                         f"{fam.k_max}, got k = {k}")
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


def _interpolation_report(n, k, m, delta, epsilon, noise) -> dict:
    p_k = k / m
    r = solve_repetition(k, m, delta, p_k, epsilon)
    return {"m": m, "p_k": p_k, "repetitions": r,
            "worst_case_error": interp_worst_case_error(k, m, delta, p_k, r),
            "qil_bits": qil_interpolation(k, m, p_k, r).bits}


def _coherent_report(family, n, k, m, delta, epsilon, noise) -> dict:
    """``qfp solve``'s fields at the curves' design point, integer m."""
    opt = _coherent_family_qil(family, k, n, m, delta, epsilon, noise,
                               "beamsplitter")
    mu_det = opt.mu * noise.eta
    th = worst_case_error_with_threshold(k, m, mu_det, delta, noise)
    ring = opt.bound.method == "schur_horn"
    return {"m": m, "m_k": opt.m_k, "mu_launched": opt.mu,
            "mu_detected": mu_det, "beta_k": _signal_amplitude(m, k, opt.mu),
            "d_th": th.d_th, "worst_case_error": th.worst_case_error,
            "qil_majorization_bits": opt.bound.bits if ring else None,
            "qil_typical_subspace_bits": fannes_audenaert_bound(
                n, opt.m_k, opt.mu, opt.mu).bits if ring else opt.bound.bits}


@dataclass(frozen=True)
class Family:
    """One equality protocol family, the only place its name takes meaning."""

    k_min: int
    k_max: int | None  # None: up to the codeword length m
    noisy: bool  # its error model takes noise (and so epsilon = 1)
    report: Callable[..., dict]  # qfp solve's fields
    bound: Callable[..., LeakageBound] | None = None  # coherent: (n, k, m, mu)


FAMILIES = {
    "interpolation": Family(1, None, False, _interpolation_report),
    "lattice": Family(2, MAX_GRAY_BITS, True,
                      functools.partial(_coherent_report, "lattice"),
                      lambda n, k, m, mu: fannes_audenaert_bound(
                          n, m / k, *lattice_mu_range(k, int(round(m)), mu))),
    "ring": Family(1, _RING_K_MAX, True,
                   functools.partial(_coherent_report, "ring"),
                   lambda n, k, m, mu: qil_ring(
                       k, m, _signal_amplitude(m, k, mu))),
}
