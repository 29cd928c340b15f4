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
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import (_AMPLITUDE_RTOL, _AMPLITUDE_XTOL, IDEAL_NOISE,
                       InfeasibleError, NoiseModel, _first_true, _launched,
                       _log_over, _log_poisson_tail_bound, _poisson_pmf,
                       _typical_tail, interp_worst_case_error,
                       ring_error_exponent, solve_amplitude, solve_repetition,
                       worst_case_error_with_threshold)
from .codes import MAX_GRAY_BITS, _signal_count, binary_entropy, gv_binary_rate
from .constellations import _signal_amplitude, lattice_mu_range

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
    "solve_report",
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
    return _entropy_bits(p)


def _entropy_bits(p: np.ndarray) -> float:
    """``shannon_entropy`` without its checks, for a float vector built
    valid (``lambda_ring``'s spectrum)."""
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
    n_signals = _signal_count(m, k)
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
    """The k-only arrays of lambda_ring: the 2^k-th roots of unity less one
    and the 2^k x 2^k phase matrix of the inverse DFT, read-only and cached
    for the process's lifetime (2^(2k+4) bytes: 64 KiB at k = 6, 256 MiB at
    12).

    The phase matrix is kept as a stack of row blocks of at most 32 rows (a
    view, no copy).  OpenBLAS runs a 64 x 64 complex matrix-vector product
    on two threads but a 32 x 64 one on one, and once woken its worker
    spins between calls: at k = 6 that nearly doubled the CPU time of a
    fig2 pass.  Each row is the same dot product either way, so the bits do not
    change."""
    two_k = 1 << k
    j = np.arange(two_k)
    omega_less_one = np.exp(2j * np.pi * j / two_k) - 1.0
    phases = np.exp(-2j * np.pi * np.outer(j, j) / two_k)
    phases = phases.reshape(-1, min(32, two_k), two_k)
    omega_less_one.flags.writeable = False
    phases.flags.writeable = False
    return omega_less_one, phases


def lambda_ring(k: int, beta_k: float) -> np.ndarray:
    """Diagonal probability vector of one ring signal.

    Entry l is the Poisson(|beta|^2) mass on photon numbers congruent to l
    mod 2^k, evaluated by roots-of-unity filtering of the generating
    function.  The filter sums 2^k terms of size O(1) into entries of size
    |beta|^2, so at weak light it cancels: H(Lambda) is off by about 7e-6
    relative at k = 5, |beta|^2 = 1.7e-9 (``lambda_ring_series`` sums
    positive terms and does not cancel).  The roots of unity and the DFT
    phase matrix depend on k alone, so they are built once per k; each call
    does at most one stacked product of the phase matrix's row blocks with
    one vector, which keeps k <= 6 off OpenBLAS's thread pool (see
    ``_ring_tables``).
    """
    if k > _RING_K_MAX:
        raise ValueError(f"the ring needs k <= {_RING_K_MAX}, got k = {k}")
    b2 = abs(beta_k) ** 2
    two_k = 1 << k
    if b2 == 0.0:  # the vacuum, exactly: the DFT would leave round-off
        return np.eye(1, two_k)[0]
    omega_less_one, phases = _ring_tables(k)
    # sum_{h = l mod 2^k} e^{-b2} b2^h / h! = 2^-k sum_j w^{-lj} exp(b2 (w^j - 1))
    gen = np.exp(b2 * omega_less_one)
    vec = (phases @ gen).real.ravel() / two_k
    return np.maximum(vec, 0.0)


def lambda_ring_series(k: int, beta_k: float) -> np.ndarray:
    """lambda_ring as the Poisson series folded mod 2^k, for cross-checks."""
    pmf = _poisson_pmf(abs(beta_k) ** 2)
    return np.bincount(np.arange(pmf.size) % (1 << k), weights=pmf,
                       minlength=1 << k)


def qil_ring(k: int, m: float, beta_k: float) -> LeakageBound:
    """Majorization leakage bound (2m/k) H(Lambda) for the ring family."""
    per_signal = _entropy_bits(lambda_ring(k, beta_k))
    bits = (2.0 * m / k) * per_signal
    return LeakageBound(bits=bits, method="schur_horn",
                        subterms={"per_signal_entropy": per_signal,
                                  "signals": m / k})


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

    Radius r with tail budget eps' = tail(r) gives f(r) = dim(r) + c(r) +
    h(g), g = sqrt(2 eps'), c(r) = 2 n g.  Any budget eps' >= tail(r) gives
    a valid upper bound; tail(r) is the best one for r once n >= 27, where
    2 n g + h(g) increases in g for every double g < 1.  Below that (``qfp
    solve --n`` takes any n >= 1) a budget between tail(r) and tail(r - 1)
    could be lower, so the value is a valid upper bound but not always the
    least over every budget.  Radii with tail(r) >= 1/2 admit no budget.

    The search rests on two facts, which hold for the floating-point sums
    too: dim(r) increases strictly in r, and tail(r) does not increase.
    So the admissible radii start at ``first``, the first with tail below
    1/2, which ``_first_true`` finds by galloping and bisection.  Galloping
    again, the scan starts where f stops falling, near the optimum: at the
    first radius whose c(r) exceeds c(r + 1) by at most one dimension step,
    dim(first + 1) - dim(first).  Any start gives the same result; this one
    keeps both walks short, and where c(r) falls slowly it is ``first``.
    The scan goes up while dim(r) alone stays below the best bound (the
    rest is >= 0), then walks down from the start while dim(first) + c(r),
    a lower bound on f at r and at every radius below it, does not exceed
    the best bound; there a tie replaces the best, so ties go to the
    smaller radius, as in one scan up from ``first``.  h(g) is skipped
    where dim(r) + c(r) alone settles a radius.

    An infinite mu_max, or a dimension term that overflows at ``first``,
    leaves no finite bound and raises ``InfeasibleError``.
    """
    if not 0.0 <= mu_min <= mu_max:
        raise ValueError(f"bad photon range [{mu_min}, {mu_max}]")
    if mu_max == math.inf:
        raise InfeasibleError(f"no finite bound at mu_max {mu_max}")

    def dimension(radius: int) -> float:
        return _log2_fock_dim(mu_max + radius,
                              mu_max - mu_min + 2.0 * radius + 1.0, m_k)

    def budget(radius: int) -> tuple[float, float, float]:
        eps = _typical_tail(mu_min, mu_max, radius)
        gamma = math.sqrt(2.0 * eps)
        return eps, gamma, 2.0 * n * gamma

    probed = {}  # the gallops' budgets, O(log r), which the scans reuse

    def probe(radius: int) -> tuple[float, float, float]:
        if radius not in probed:
            probed[radius] = budget(radius)
        return probed[radius]

    first = _first_true(lambda r: probe(r)[0] < 0.5)
    floor = dimension(first)
    if floor == math.inf:
        raise InfeasibleError(f"log-dimension overflows at mu_max {mu_max:g}")
    step = dimension(first + 1) - floor
    start = first - 1 + _first_true(
        lambda j: probe(first - 1 + j)[2] - probe(first + j)[2] <= step)
    best = (math.inf,)  # then (bits, radius, eps', dimension, continuity, h)
    for radius in itertools.count(start):
        dim_term = dimension(radius)
        if dim_term >= best[0]:
            break
        eps, gamma, continuity = probed.get(radius) or budget(radius)
        if dim_term + continuity >= best[0]:
            continue
        entropy = binary_entropy(gamma)
        bits = dim_term + continuity + entropy
        if bits < best[0]:
            best = (bits, radius, eps, dim_term, continuity, entropy)
    for radius in range(start - 1, first - 1, -1):
        eps, gamma, continuity = probed.get(radius) or budget(radius)
        if floor + continuity > best[0]:
            break
        dim_term = dimension(radius)
        if dim_term + continuity > best[0]:
            continue
        entropy = binary_entropy(gamma)
        bits = dim_term + continuity + entropy
        if bits <= best[0]:
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
    """Result of the 1-D leakage minimization over the code distance.

    ``diagnostics`` says how the delta optimizer got there and takes no
    part in equality: ``evaluations`` (design points solved, infeasible
    ones included), ``infeasible`` (of those, the distances that could not
    attain epsilon), ``skipped`` (coarse-grid points settled by their
    floor), ``grid_fallback`` (the best coarse-grid point replaced the
    golden-section result) and ``argmin_at_edge`` (the coarse minimum sat
    at the first or last grid point, so the search range, not the
    objective, may have set delta).  ``_coherent_family_qil``'s design
    point leaves it empty.
    """

    delta: float
    bound: LeakageBound
    mu: float
    m_k: float
    diagnostics: dict = field(default_factory=dict, compare=False)


_DELTA_LO = 1e-4
_GOLDEN_TOL = 1e-6
_COARSE_GRID_POINTS = 41


def _coherent_family_qil(family: Family, k: int, n: float, m: float,
                         delta: float, epsilon: float, noise: NoiseModel,
                         measurement: str) -> DeltaOptimum:
    """Design point and leakage bound of a coherent family's protocol for n
    input bits at codeword length m: real-valued from the delta optimizer,
    the integer GV length from ``qfp solve``, rounded where m must be whole.
    ``optimal_lb``, noise-free by the caller's check, takes half the mu of the
    beamsplitter, whose error squared bounds any one-sided measurement's."""
    mu = solve_amplitude(k, int(round(m)), delta, epsilon, noise)
    if measurement == "optimal_lb":
        mu /= 2.0
    return DeltaOptimum(delta=delta, bound=family.bound(n, k, m, mu),
                        mu=mu, m_k=m / k)


def _qil_floor(family: Family, k: int, n: float, m: float, delta: float,
               epsilon: float, noise: NoiseModel, measurement: str) -> float:
    """A lower bound on the bits of ``_coherent_family_qil`` at the same
    arguments (infeasible counting as inf), from no tail call: the family
    marked ``majorization`` (the ring) with the beamsplitter measurement
    under dark counts at visibility 1, and -inf at any other setting.

    At visibility 1 each signal's dark count is an independent OR on its
    ideal click, so any rule on the noisy counts is a randomized rule on
    the ideal click pattern.  Equal inputs never click ideally; differing
    ones give no click with probability P0.  A rule that says "differ" with
    probability q on the empty pattern errs max(q, P0 (1 - q)) >=
    P0 / (1 + P0), so error <= epsilon needs P0 <= epsilon / (1 - epsilon).
    The click model sends m_k = ceil(M/k) signals of beta^2 = k mu_det / M,
    M = round(m), each without an ideal click with probability
    (1 - frac) e^{-beta^2 a_lo} + frac e^{-beta^2 a_hi} >= e^{-beta^2 g},
    a = 1 - cos of each of the two ring steps (Jensen; g, the ring's error
    exponent, is their frac-weighted mean).  So P0 >= e^{-c mu_det g} with
    c = k ceil(M/k) / M >= 1, and mu_det >= ln((1 - eps) / eps) / (g c):
    without the factor c, which exceeds 1 wherever k does not divide M,
    the floor would not be proven.
    ``_brentq``'s root may sit up to xtol + rtol |x| below that crossing,
    so the floor shrinks it by those tolerances and clamps it at 0 (for
    epsilon >= 1/2 dark counts alone can attain epsilon).  H(Lambda) does
    not decrease in beta^2 (a wrapped Poisson(a + b) is a wrapped
    Poisson(a) plus an independent one, and on a group H(X + Y) >= H(X)),
    so the family's bound at the launched mu_det / eta is below its bound
    at the solved amplitude.  Where that launch overflows, the solve's
    larger one does too, and the floor is inf.
    """
    if (not family.majorization or measurement != "beamsplitter"
            or noise.p_dark == 0.0 or noise.visibility != 1.0):
        return -math.inf
    g = ring_error_exponent(k, delta)
    whole = int(round(m))
    c = k * _signal_count(whole, k) / whole
    mu_det = _log_over(1.0 - epsilon, epsilon) / (g * c)
    mu_det = max(0.0, (mu_det - _AMPLITUDE_XTOL) / (1.0 + _AMPLITUDE_RTOL))
    try:
        mu = _launched(mu_det, noise.eta)
    except InfeasibleError:
        return math.inf
    return family.bound(n, k, m, mu).bits


def optimize_delta_for_qil(family: str, k: int, n: float, epsilon: float,
                           noise: NoiseModel = IDEAL_NOISE,
                           measurement: str = "beamsplitter") -> DeltaOptimum:
    """Golden-section minimization of the family's leakage bound over the
    relative minimum distance delta.

    A coarse grid brackets the minimum first.  Its points are solved in
    ascending order of ``_qil_floor``, a lower bound on the objective that
    needs no tail call; a point whose floor is above the best value found
    so far is skipped, with its floor stored as its value.  The floor is
    at most the point's true value, so a skipped point's true value is
    strictly above the minimum: it could neither be the argmin nor tie
    it.  The argmin is therefore the one a full scan finds, and so are the
    bracket, which reads only the argmin's neighbours on the grid, and the
    fallback, which reads only the argmin's value.  The floor is
    finite only for the ring with the beamsplitter measurement under dark
    counts at visibility 1 (see ``_qil_floor``); everywhere else every
    point is solved, in grid order.  On fig3's 22 optimizations it cuts
    the solves from 66.0 to 31.1 per optimization.
    """
    fam = FAMILIES.get(family)
    if getattr(fam, "bound", None) is None:
        raise ValueError(f"unsupported family {family!r}")
    if not fam.k_min <= k <= fam.k_max:
        raise ValueError(f"the {family} family needs {fam.k_min} <= k <= "
                         f"{fam.k_max}, got k = {k}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if measurement not in ("beamsplitter", "optimal_lb"):
        raise ValueError(f"unknown measurement {measurement!r}")
    if measurement == "optimal_lb" and not noise.is_ideal:
        raise ValueError("optimal_lb is modelled without noise")

    tally = {"evaluations": 0, "infeasible": 0, "skipped": 0}

    def point(delta: float) -> tuple:
        # the GV bound taken as an equality for the rate: m is real-valued
        return (fam, k, n, n / gv_binary_rate(delta), delta, epsilon,
                noise, measurement)

    def design(delta: float) -> DeltaOptimum:
        tally["evaluations"] += 1
        return _coherent_family_qil(*point(delta))

    def objective(delta: float) -> float:
        # a distance can be individually infeasible (dark-count floor above
        # epsilon at its codeword length) without the whole problem being so
        try:
            return design(delta).bound.bits
        except InfeasibleError:
            tally["infeasible"] += 1
            return math.inf

    # the integer-threshold click model makes the objective piecewise with
    # genuine jumps (dark-count floor crossings), so bracket the global
    # minimum on a coarse grid before refining
    # m diverges as delta -> 1/2, so the minimum is always interior; keep
    # the scan away from the blow-up
    grid = np.linspace(_DELTA_LO, 0.4999, _COARSE_GRID_POINTS)
    values = [_qil_floor(*point(float(d))) for d in grid]
    best = math.inf
    for i in sorted(range(grid.size), key=values.__getitem__):
        if values[i] > best:
            tally["skipped"] += 1
            continue
        values[i] = objective(float(grid[i]))
        best = min(best, values[i])
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
    fallback = result.bound.bits > values[i_best]
    if fallback:
        result = design(float(grid[i_best]))
    return replace(result, diagnostics={
        **tally, "grid_fallback": fallback,
        "argmin_at_edge": i_best in (0, grid.size - 1)})


def solve_report(family: Family, n: int, k: int, m: int, delta: float,
                 epsilon: float, noise: NoiseModel) -> dict:
    """``qfp solve``'s fields at integer m: for a coherent family, those of
    the curves' design point."""
    if family.bound is None:
        p_k = k / m
        r = solve_repetition(k, m, delta, p_k, epsilon)
        return {"m": m, "p_k": p_k, "repetitions": r, "worst_case_error":
                interp_worst_case_error(k, m, delta, p_k, r),
                "qil_bits": qil_interpolation(k, m, p_k, r).bits}
    opt = _coherent_family_qil(family, k, n, m, delta, epsilon, noise,
                               "beamsplitter")
    mu_det = opt.mu * noise.eta
    th = worst_case_error_with_threshold(k, m, mu_det, delta, noise)
    major = family.majorization
    return {"m": m, "m_k": opt.m_k, "mu_launched": opt.mu,
            "mu_detected": mu_det, "beta_k": _signal_amplitude(m, k, opt.mu),
            "d_th": th.d_th, "worst_case_error": th.worst_case_error,
            "qil_majorization_bits": opt.bound.bits if major else None,
            "qil_typical_subspace_bits": fannes_audenaert_bound(
                n, opt.m_k, opt.mu, opt.mu).bits if major else opt.bound.bits}


@dataclass(frozen=True)
class Family:
    """One equality protocol family: each difference from the others that
    the code reads, so no code branches on its name.  A family takes noise
    (and so epsilon = 1) exactly when it has a coherent ``bound``.  A name
    is resolved to its record once, where it enters the code
    (``optimize_delta_for_qil`` and ``qfp solve``); the design point, its
    floor and ``solve_report`` take the record."""

    k_min: int
    k_max: int | None  # None: up to the codeword length m
    bound: Callable[..., LeakageBound] | None = None  # coherent: (n, k, m, mu)
    majorization: bool = False  # bound is by majorization, so _qil_floor holds


FAMILIES = {
    "interpolation": Family(1, None),
    "lattice": Family(2, MAX_GRAY_BITS,
                      lambda n, k, m, mu: fannes_audenaert_bound(
                          n, m / k, *lattice_mu_range(k, int(round(m)), mu))),
    "ring": Family(1, _RING_K_MAX, lambda n, k, m, mu: qil_ring(
        k, m, _signal_amplitude(m, k, mu)), majorization=True),
}
