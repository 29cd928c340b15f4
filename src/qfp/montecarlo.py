"""Stochastic simulation of protocol runs under the noise model.

Every trial draws from its own counter-derived random stream, so results are
a pure function of (master_seed, trial_index) and are identical regardless
of how trials are chunked across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import (NoiseModel, ed_estimate, no_click_prob,
                       optimal_threshold)
from .constellations import ProtocolInstance, encode_ed, encode_lattice, encode_ring

__all__ = [
    "TrialPlan",
    "EqualityResult",
    "EdResult",
    "derive_trial_rng",
    "signal_click_probs",
    "simulate_equality",
    "simulate_ed",
    "wilson_interval",
]

_TRIAL_STRIDE = 1 << 40  # Philox counter blocks reserved per trial


@dataclass(frozen=True)
class TrialPlan:
    """Fully specifies a reproducible batch of simulated protocol runs."""

    trials: int
    master_seed: int
    protocol: ProtocolInstance
    noise: NoiseModel
    input_x: np.ndarray = field(repr=False)
    input_y: np.ndarray = field(repr=False)
    d_th: int | None = None  # decision threshold; None derives it from the model

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


def derive_trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based stream: Philox keyed by the master seed, advanced to a
    per-trial block.  Depends only on (master_seed, trial_index)."""
    bg = np.random.Philox(key=master_seed)
    bg.advance(trial_index * _TRIAL_STRIDE)
    return np.random.Generator(bg)


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
    amps_x = _encode(plan.protocol, plan.input_x)
    amps_y = _encode(plan.protocol, plan.input_y)
    root_eta = math.sqrt(plan.noise.eta)
    no_click = np.array([
        no_click_prob(a * root_eta, b * root_eta, plan.noise.visibility)
        for a, b in zip(amps_x, amps_y)
    ])
    return 1.0 - no_click * (1.0 - plan.noise.p_dark)


def _threshold_for_plan(plan: TrialPlan, probs: np.ndarray) -> int:
    """Decision threshold from the binomial click model: the modeled p_D is
    the mean per-signal click probability of the given input pair.  At least
    one click is always required to declare NotEqual."""
    if plan.d_th is not None:
        return plan.d_th
    p_E = 1.0 - (1.0 - plan.noise.p_dark) * math.exp(
        -plan.protocol.mu * plan.noise.eta * (1.0 - plan.noise.visibility))
    p_D = float(probs.mean())
    if p_D <= p_E:
        return 1
    return max(1, optimal_threshold(probs.size, p_D, p_E).d_th)


def simulate_equality(plan: TrialPlan) -> EqualityResult:
    """Empirical worst-case-side error rate of the threshold decision.

    For different inputs the error is deciding Equal (clicks below
    threshold); for equal inputs it is deciding NotEqual.
    """
    probs = signal_click_probs(plan)
    d_th = _threshold_for_plan(plan, probs)
    inputs_equal = bool(np.array_equal(plan.input_x, plan.input_y))
    # group signals by click probability; per trial only the group totals
    # are needed
    uniq, counts = np.unique(np.round(probs, 15), return_counts=True)
    errors = 0
    for t in range(plan.trials):
        rng = derive_trial_rng(plan.master_seed, t)
        clicks = int(np.sum(rng.binomial(counts, uniq)))
        not_equal = clicks >= d_th
        if not_equal == inputs_equal:
            errors += 1
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
    proxies per the weak-amplitude analysis).
    """
    protocol = plan.protocol
    if protocol.family not in ("ed_real", "ed_complex"):
        raise ValueError(f"not an ED family: {protocol.family!r}")
    variant = "real" if protocol.family == "ed_real" else "complex"
    amps_u = encode_ed(plan.input_x, protocol.alpha, variant)
    amps_v = encode_ed(plan.input_y, protocol.alpha, variant)
    lam_dark = 0.5 * np.abs(amps_u - amps_v) ** 2 * plan.noise.eta
    lam_light = 0.5 * np.abs(amps_u + amps_v) ** 2 * plan.noise.eta
    estimates = np.empty(plan.trials)
    for t in range(plan.trials):
        rng = derive_trial_rng(plan.master_seed, t)
        dark_clicks = (rng.poisson(lam_dark) > 0).astype(np.int64)
        light_clicks = (rng.poisson(lam_light) > 0).astype(np.int64)
        if plan.noise.p_dark > 0.0:
            dark_clicks |= rng.random(lam_dark.size) < plan.noise.p_dark
            light_clicks |= rng.random(lam_light.size) < plan.noise.p_dark
        estimates[t] = ed_estimate(dark_clicks, light_clicks, protocol.alpha)
    return EdResult(
        mean_estimate=float(estimates.mean()),
        std_error=float(estimates.std(ddof=1) / math.sqrt(plan.trials)),
        runs=plan.trials,
    )
