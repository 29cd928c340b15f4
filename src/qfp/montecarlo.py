"""Stochastic simulation of protocol runs under the noise model.

Each run draws from one stream, Philox keyed by the master seed (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).  Trials run in
blocks of ``block_rows(width)`` that only bound memory: numpy consumes the
stream element by element in C order, so the blocks draw the numbers one
whole-run array would, and results are a pure function of the plan whatever
the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import NoiseModel, _with_dark_counts, ed_estimate, no_click_prob
from .constellations import ProtocolInstance, encode, encode_ed

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
    d_th: int


@dataclass(frozen=True)
class EdResult:
    mean_estimate: float
    std_error: float
    runs: int


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


def simulate_ed(plan: TrialPlan) -> EdResult:
    """Monte Carlo distance-estimator runs for the Euclidean-distance family.

    Photon counts at each output port are Poisson (coherent light on
    threshold detectors saturates at one click; clicks are used as count
    proxies per the weak-amplitude analysis).  A mode of mean lam clicks
    with probability 1 - e^-lam (1 - p_dark): a photon arrives or a dark
    count fires.  Only click totals enter the estimator, so each click is
    one uniform compared with that probability, for both ports at once.
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
    rng = np.random.Generator(np.random.Philox(key=plan.master_seed))
    estimates = np.empty(plan.trials)
    for start, rows in _blocks(plan.trials, block_rows(p_click.size)):
        clicks = rng.random((rows, *p_click.shape)) < p_click
        estimates[start:start + rows] = ed_estimate(
            clicks[:, 0], clicks[:, 1], protocol.alpha)
    return EdResult(
        mean_estimate=float(estimates.mean()),
        std_error=float(estimates.std(ddof=1) / math.sqrt(plan.trials)),
        runs=plan.trials,
    )
