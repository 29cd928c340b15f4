"""Stochastic simulation of protocol runs under the noise model.

Each run draws from one stream, Philox keyed by the master seed (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).  Trials run in
blocks of ``block_rows(width)`` that only bound memory: numpy consumes the
stream element by element in C order, so the blocks draw the numbers one
whole-run array would, and results are a pure function of the plan whatever
the block size.  A Euclidean-distance trial is one uniform: its estimator
reads only the click difference D = N_light - N_dark, whose exact law is
built once per plan and sampled by inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import (NoiseModel, _first_true, _with_dark_counts, ed_estimate,
                       no_click_prob)
from .constellations import ProtocolInstance, encode, encode_ed
from .leakage import _log_poisson_tail_bound

__all__ = [
    "TrialPlan",
    "EqualityResult",
    "EdResult",
    "block_rows",
    "signal_click_probs",
    "simulate_equality",
    "simulate_ed",
    "wilson_interval",
]

_BLOCK_ELEMENTS = 1 << 17  # random draws per block of trials
# click-total mass a port's pmf may drop, far below the 2^-53 spacing of the
# uniforms that sample it
_TAIL_MASS = 1e-18


@dataclass(frozen=True)
class TrialPlan:
    """Fully specifies a reproducible batch of simulated protocol runs."""

    trials: int
    master_seed: int
    protocol: ProtocolInstance
    noise: NoiseModel
    input_x: np.ndarray = field(repr=False)
    input_y: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class EqualityResult:
    empirical_error: float
    confidence_interval: tuple[float, float]
    d_th: int


@dataclass(frozen=True)
class EdResult:
    mean_estimate: float
    std_error: float
    runs: int
    # the estimator's mean and standard error under the exact law the
    # trials are drawn from
    predicted_mean: float | None = None
    predicted_std_error: float | None = None


def block_rows(width: int) -> int:
    """Trials per block when each trial draws ``width`` values: as many as
    fit in the element budget, and at least one."""
    return max(1, _BLOCK_ELEMENTS // width)


def _blocks(trials: int, rows: int):
    """(first trial, trial count) of each block of ``rows`` trials; only the
    last block may be short."""
    for start in range(0, trials, rows):
        yield start, min(rows, trials - start)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95 % Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z = 1.96
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials
                                   + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def signal_click_probs(plan: TrialPlan) -> np.ndarray:
    """Per-signal dark-port click probability for the plan's input pair.

    Amplitudes in the plan are launched values; the channel applies
    sqrt(eta) before the beamsplitter, and dark counts add independently.
    """
    p = plan.protocol
    root_eta = math.sqrt(plan.noise.eta)
    no_click = no_click_prob(encode(plan.input_x, p.family, p.k, p.mu) * root_eta,
                             encode(plan.input_y, p.family, p.k, p.mu) * root_eta,
                             plan.noise.visibility)
    return _with_dark_counts(1.0 - no_click, plan.noise.p_dark)


def simulate_equality(plan: TrialPlan, d_th: int) -> EqualityResult:
    """Empirical error rate of the decision "NotEqual iff at least d_th
    dark-port clicks", with d_th from the click model
    (``analysis.worst_case_error_with_threshold``).

    For different inputs the error is deciding Equal (clicks below
    threshold); for equal inputs it is deciding NotEqual.
    """
    probs = signal_click_probs(plan)
    inputs_equal = bool(np.array_equal(plan.input_x, plan.input_y))
    # group signals by click probability; per trial only the group totals
    # are needed
    uniq, counts = np.unique(np.round(probs, 15), return_counts=True)
    rng = np.random.Generator(np.random.Philox(key=plan.master_seed))
    errors = 0
    for _, rows in _blocks(plan.trials, block_rows(uniq.size)):
        clicks = rng.binomial(counts, uniq, size=(rows, uniq.size)).sum(axis=1)
        errors += int(np.count_nonzero((clicks >= d_th) == inputs_equal))
    return EqualityResult(
        empirical_error=errors / plan.trials,
        confidence_interval=wilson_interval(errors, plan.trials),
        d_th=d_th,
    )


def _click_total_pmf(p: np.ndarray) -> np.ndarray:
    """P(N = t), t = 0, 1, ..., of the clicks N of independent modes that
    click with probabilities p: the Poisson-binomial law (Hoeffding, Ann.
    Math. Stat. 27, 1956).

    The pmf stops at the first t past the mean whose Chernoff bound
    e^-mu (e mu / t)^t on P(N >= t) is below ``_TAIL_MASS``; that bound
    holds for any sum of Bernoulli trials of mean mu.  Modes merge pairwise,
    level by level, each merge one convolution of two columns cut at that
    length, so every term is a product of probabilities (nothing cancels)
    and the loops run over counts, never over modes.  The cut costs the
    kept entries nothing: a convolution's first entries read only the
    first entries of its factors.
    """
    mu = float(p.sum())
    size = _first_true(lambda t: t > mu and _log_poisson_tail_bound(
        mu, t - mu) < math.log(_TAIL_MASS), cap=p.size + 1)
    cols = np.stack([1.0 - p, p])  # entry (t, j): P(mode j clicks t times)
    while cols.shape[1] > 1:
        width, modes = cols.shape
        half = modes // 2
        a, b = cols[:, :half], cols[:, half:2 * half]
        merged = np.zeros((min(2 * width - 1, size), modes - half))
        for t in range(min(width, size)):
            n = min(width, merged.shape[0] - t)
            merged[t:t + n, :half] += a[t] * b[:n]
        if modes % 2:  # the odd mode out passes to the next level as it is
            merged[:width, half] = cols[:, -1]
        cols = merged
    return cols[:size, 0]


def _difference_law(p_click: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values d and probabilities of D = N_light - N_dark, for the
    per-mode click probabilities of the dark port (row 0) and the light
    port (row 1): one convolution of the two ports' click-total laws."""
    dark, light = (_click_total_pmf(p) for p in p_click)
    return (np.arange(dark.size + light.size - 1) - (dark.size - 1),
            np.convolve(light, dark[::-1]))


def simulate_ed(plan: TrialPlan) -> EdResult:
    """Monte Carlo distance-estimator runs for the Euclidean-distance family.

    Photon counts at each output port are Poisson (coherent light on
    threshold detectors saturates at one click; clicks are used as count
    proxies per the weak-amplitude analysis).  A mode of mean lam clicks
    with probability 1 - e^-lam (1 - p_dark): a photon arrives or a dark
    count fires.  The estimator reads only D = N_light - N_dark, so each
    trial is one uniform u mapped to the least d with F(d) > u, F the CDF of
    D's exact law (``_difference_law``); a u above F's last entry, which
    misses at most the dropped tail mass, takes the largest d kept.  The
    result also reports the estimator's mean and standard error predicted
    from that law.
    """
    protocol = plan.protocol
    if not protocol.family.startswith("ed_"):
        raise ValueError(f"not an ED family: {protocol.family!r}")
    variant = protocol.family.removeprefix("ed_")  # encode_ed checks it
    if plan.noise.visibility != 1.0:
        raise ValueError(f"the ED click model has no visibility term, got "
                         f"visibility {plan.noise.visibility}")
    if plan.trials < 2:
        raise ValueError(f"simulate_ed needs >= 2 trials for the sample "
                         f"standard error, got {plan.trials}")
    amps_u = encode_ed(plan.input_x, protocol.alpha, variant)
    amps_v = encode_ed(plan.input_y, protocol.alpha, variant)
    # row 0 is the dark port, row 1 the light port
    lam = 0.5 * np.abs([amps_u - amps_v, amps_u + amps_v]) ** 2 * plan.noise.eta
    p_click = _with_dark_counts(-np.expm1(-lam), plan.noise.p_dark)
    d, pmf = _difference_law(p_click)
    cdf = np.cumsum(pmf)
    rng = np.random.Generator(np.random.Philox(key=plan.master_seed))
    estimates = np.empty(plan.trials)
    for start, rows in _blocks(plan.trials, block_rows(1)):
        pick = np.searchsorted(cdf, rng.random(rows), side="right")
        totals = d[np.minimum(pick, d.size - 1), None]
        estimates[start:start + rows] = ed_estimate(
            np.zeros_like(totals), totals, protocol.alpha)
    mean_d = pmf @ d
    alpha2 = abs(protocol.alpha) ** 2
    return EdResult(
        mean_estimate=float(estimates.mean()),
        std_error=float(estimates.std(ddof=1) / math.sqrt(plan.trials)),
        runs=plan.trials,
        predicted_mean=float(ed_estimate(np.zeros(1), np.array([mean_d]),
                                         protocol.alpha)),
        predicted_std_error=float(math.sqrt(pmf @ (d - mean_d) ** 2)
                                  / (alpha2 * math.sqrt(plan.trials))),
    )
