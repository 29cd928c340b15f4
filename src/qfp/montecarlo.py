"""Stochastic simulation of protocol runs under the noise model.

Trials run in blocks.  Block b draws all of its trials' randomness as one
array from its own counter-based stream, Philox keyed by the master seed and
advanced to block b (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11).  A block holds ``block_rows(width)`` trials, fixed by a
constant element budget and the number of draws per trial, so results are a
pure function of the plan and are identical however the blocks are split
across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import NoiseModel, ed_estimate, no_click_prob
from .constellations import ProtocolInstance, encode_ed, encode_lattice, encode_ring

__all__ = [
    "TrialPlan",
    "EqualityResult",
    "EdResult",
    "block_rows",
    "derive_block_rng",
    "signal_click_probs",
    "simulate_equality",
    "simulate_ed",
    "wilson_interval",
]

_BLOCK_STRIDE = 1 << 40  # Philox counter steps reserved per block of trials
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
    trials: int


@dataclass(frozen=True)
class EdResult:
    mean_estimate: float
    std_error: float
    runs: int


def block_rows(width: int) -> int:
    """Trials per block when each trial draws ``width`` values: as many as
    fit in the element budget, and at least one."""
    return max(1, _BLOCK_ELEMENTS // width)


def derive_block_rng(master_seed: int, block_index: int) -> np.random.Generator:
    """Counter-based stream: Philox keyed by the master seed, advanced to a
    per-block offset.  Depends only on (master_seed, block_index)."""
    bg = np.random.Philox(key=master_seed)
    bg.advance(block_index * _BLOCK_STRIDE)
    return np.random.Generator(bg)


def _blocks(trials: int, rows: int):
    """(block index, first trial, trial count) of each block of ``rows``
    trials; only the last block may be short."""
    for b, start in enumerate(range(0, trials, rows)):
        yield b, start, min(rows, trials - start)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials
                                   + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def _encode(protocol: ProtocolInstance, codeword: np.ndarray) -> np.ndarray:
    if protocol.family == "ring":
        return encode_ring(codeword, protocol.k, protocol.mu)
    if protocol.family == "lattice":
        return encode_lattice(codeword, protocol.k, protocol.mu)
    raise ValueError(f"unsupported family {protocol.family!r} for click simulation")


def signal_click_probs(plan: TrialPlan) -> np.ndarray:
    """Per-signal dark-port click probability for the plan's input pair.

    Amplitudes in the plan are launched values; the channel applies
    sqrt(eta) before the beamsplitter, and dark counts add independently.
    """
    root_eta = math.sqrt(plan.noise.eta)
    no_click = no_click_prob(_encode(plan.protocol, plan.input_x) * root_eta,
                             _encode(plan.protocol, plan.input_y) * root_eta,
                             plan.noise.visibility)
    return 1.0 - no_click * (1.0 - plan.noise.p_dark)


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
    errors = 0
    for b, _, rows in _blocks(plan.trials, block_rows(uniq.size)):
        rng = derive_block_rng(plan.master_seed, b)
        clicks = rng.binomial(counts, uniq, size=(rows, uniq.size)).sum(axis=1)
        errors += int(np.count_nonzero((clicks >= d_th) == inputs_equal))
    return EqualityResult(
        empirical_error=errors / plan.trials,
        confidence_interval=wilson_interval(errors, plan.trials),
        d_th=d_th,
        trials=plan.trials,
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
    if protocol.family not in ("ed_real", "ed_complex"):
        raise ValueError(f"not an ED family: {protocol.family!r}")
    variant = "real" if protocol.family == "ed_real" else "complex"
    amps_u = encode_ed(plan.input_x, protocol.alpha, variant)
    amps_v = encode_ed(plan.input_y, protocol.alpha, variant)
    # row 0 is the dark port, row 1 the light port
    lam = 0.5 * np.abs([amps_u - amps_v, amps_u + amps_v]) ** 2 * plan.noise.eta
    p_dark = plan.noise.p_dark
    p_click = p_dark - np.expm1(-lam) * (1.0 - p_dark)
    estimates = np.empty(plan.trials)
    for b, start, rows in _blocks(plan.trials, block_rows(p_click.size)):
        rng = derive_block_rng(plan.master_seed, b)
        clicks = rng.random((rows, *p_click.shape)) < p_click
        estimates[start:start + rows] = ed_estimate(
            clicks[:, 0], clicks[:, 1], protocol.alpha)
    return EdResult(
        mean_estimate=float(estimates.mean()),
        std_error=float(estimates.std(ddof=1) / math.sqrt(plan.trials)),
        runs=plan.trials,
    )
