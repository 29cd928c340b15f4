"""Stochastic simulation of protocol runs under the noise model.

Each run draws from one stream, Philox keyed by the master seed (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).  Trials run in
blocks of ``block_rows(width)`` that only bound memory: numpy consumes the
stream element by element in C order, so the blocks draw the numbers one
whole-run array would, and results are a pure function of the plan whatever
the block size.  An equality trial draws one binomial click total per
distinct click probability of the pair: a signal's probability depends only
on its (label_x, label_y) pair, so the law is built from the few distinct
label pairs (2-4 for a worst-case ring pair), not from m per-signal
amplitudes.  A Euclidean-distance trial is one uniform: its estimator reads
only the click difference D = N_light - N_dark, whose exact law
(``analysis._difference_law``) is built once per plan and sampled by
inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import (NoiseModel, _difference_law, click_probs,
                       ed_estimate)
from .constellations import (ProtocolInstance, _label_points, _signal_labels,
                             encode, encode_ed)

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
    """Per-signal dark-port click probability for the plan's input pair."""
    p = plan.protocol
    return click_probs(encode(plan.input_x, p.family, p.k, p.mu),
                       encode(plan.input_y, p.family, p.k, p.mu), plan.noise)


def _click_profile(plan: TrialPlan) -> tuple[np.ndarray, np.ndarray]:
    """The pair's click law: its distinct per-signal click probabilities,
    rounded to 15 decimals and ascending, and how many signals have each.

    A signal's probability depends only on its (label_x, label_y) pair, so
    it is computed once per distinct pair on ``encode``'s points of the
    pair's labels, and pairs whose rounded probabilities coincide merge.
    """
    p = plan.protocol
    pairs, per_pair = np.unique(_signal_labels(plan.input_x, p.k) << p.k
                                | _signal_labels(plan.input_y, p.k),
                                return_counts=True)
    points = _label_points(p.family, p.k, np.size(plan.input_x), p.mu,
                           np.stack((pairs >> p.k, pairs & ((1 << p.k) - 1))))
    probs = click_probs(*points, plan.noise)
    uniq, which = np.unique(np.round(probs, 15), return_inverse=True)
    counts = np.zeros(uniq.size, dtype=per_pair.dtype)
    np.add.at(counts, which, per_pair)
    return uniq, counts


def simulate_equality(plan: TrialPlan, d_th: int) -> EqualityResult:
    """Empirical error rate of the decision "NotEqual iff at least d_th
    dark-port clicks", with d_th from the click model
    (``analysis.worst_case_error_with_threshold``).

    For different inputs the error is deciding Equal (clicks below
    threshold); for equal inputs it is deciding NotEqual.  Per trial only
    the click totals of the pair's click law (``_click_profile``) are drawn.
    """
    uniq, counts = _click_profile(plan)
    inputs_equal = bool(np.array_equal(plan.input_x, plan.input_y))
    rng = np.random.Generator(np.random.Philox(key=plan.master_seed))
    errors = 0
    for _, rows in _blocks(plan.trials, block_rows(uniq.size)):
        clicks = rng.binomial(counts, uniq, size=(rows, uniq.size)).sum(axis=1)
        errors += int(np.count_nonzero((clicks >= d_th) == inputs_equal))
    return EqualityResult(
        empirical_error=errors / plan.trials,
        confidence_interval=wilson_interval(errors, plan.trials),
    )


def simulate_ed(plan: TrialPlan) -> EdResult:
    """Monte Carlo distance-estimator runs for the Euclidean-distance family.

    Photon counts at each output port are Poisson (coherent light on
    threshold detectors saturates at one click; clicks are used as count
    proxies per the weak-amplitude analysis); each mode pair clicks at each
    port by ``analysis.click_probs``.  The estimator reads only D = N_light
    - N_dark, so each trial is one uniform u mapped to the least d with
    F(d) > u, F the CDF of D's exact law (``_difference_law``); a u above
    F's last entry, which misses at most the dropped tail mass, takes the
    largest d kept.  The result also reports the estimator's mean and
    standard error predicted from that law.
    """
    protocol = plan.protocol
    if not protocol.family.startswith("ed_"):
        raise ValueError(f"not an ED family: {protocol.family!r}")
    variant = protocol.family.removeprefix("ed_")  # encode_ed checks it
    if plan.trials < 2:
        raise ValueError(f"simulate_ed needs >= 2 trials for the sample "
                         f"standard error, got {plan.trials}")
    amps_u = encode_ed(plan.input_x, protocol.alpha, variant)
    amps_v = encode_ed(plan.input_y, protocol.alpha, variant)
    # row 0 is the dark port, row 1 the light port
    d, pmf = _difference_law(click_probs(amps_u, [amps_v, -amps_v], plan.noise))
    cdf = np.cumsum(pmf)
    rng = np.random.Generator(np.random.Philox(key=plan.master_seed))
    estimates = np.empty(plan.trials)
    for start, rows in _blocks(plan.trials, block_rows(1)):
        pick = np.searchsorted(cdf, rng.random(rows), side="right")
        estimates[start:start + rows] = ed_estimate(
            d[np.minimum(pick, d.size - 1)], protocol.alpha)
    mean_d = pmf @ d
    alpha2 = abs(protocol.alpha) ** 2
    return EdResult(
        mean_estimate=float(estimates.mean()),
        std_error=float(estimates.std(ddof=1) / math.sqrt(plan.trials)),
        runs=plan.trials,
        predicted_mean=float(ed_estimate(mean_d, protocol.alpha)),
        predicted_std_error=float(math.sqrt(pmf @ (d - mean_d) ** 2)
                                  / (alpha2 * math.sqrt(plan.trials))),
    )
