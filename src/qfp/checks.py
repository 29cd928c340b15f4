"""Brute-force checks of the closed forms, each written once.

A check takes its sample (pairs, grids, a random generator, an ensemble
count) and returns what it measured: a maximum deviation, a violation count
or the first broken case.  ``qfp verify`` runs them on the samples in
``SUITES``, the acceptance gate on its own samples and bounds.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis, codes, oracle

__all__ = [
    "overlap_deviation",
    "interp_deviation",
    "usc_deviation",
    "projector_violations",
    "ring_gray_break",
    "qary_violations",
    "SUITES",
]


def overlap_deviation(pairs) -> float:
    """Max deviation of the truncated-Fock overlap |<a|b>| from
    exp(-|a - b|^2 / 2) over coherent amplitude pairs (a, b)."""
    worst = 0.0
    for a, b in pairs:
        got = abs(np.vdot(oracle.coherent_fock(a, 60),
                          oracle.coherent_fock(b, 60)))
        worst = max(worst, abs(got - math.exp(-0.5 * abs(a - b) ** 2)))
    return worst


def interp_deviation(ks, p_ks) -> float:
    """Max deviation of the explicit interpolation measurement from
    ``interp_nd_prob`` over one signal per block size k, overlap parameter
    p_k and number of differing bits d = 0..k."""
    worst = 0.0
    for k in ks:
        for p_k in p_ks:
            for d in range(k + 1):
                x = np.zeros(k, dtype=np.uint8)
                y = x.copy()
                y[:d] = 1
                got = oracle.interp_measurement_oracle(x, y, k, p_k)[0]
                want = analysis.interp_nd_prob(d, k, p_k)
                worst = max(worst, abs(got - want))
    return worst


def usc_deviation(ps, inputs) -> float:
    """Max deviation of the comparison measurement's statistics on qubit
    inputs |q_a>|q_b> from inconclusive = c, the right verdict = 1 - c and
    the wrong one = 0, where c = 1 - 2p is the qubit overlap."""
    worst = 0.0
    for p in ps:
        c = 1.0 - 2.0 * p
        for a, b in inputs:
            probs = oracle.usc_outcome_probs(a, b, p)
            right, wrong = (("same", "different") if a == b
                            else ("different", "same"))
            worst = max(worst, abs(probs["inconclusive"] - c),
                        abs(probs[right] - (1.0 - c)), abs(probs[wrong]))
    return worst


def projector_violations(rng: np.random.Generator, ensembles: int,
                         dims: tuple[int, int]) -> int:
    """Random ensembles of 2-4 pure states, of dimension drawn from
    ``dims`` (half-open), whose worst one-sided projector error falls below
    2c^2/(1+c^2) for the largest pairwise overlap c, or where that bound
    falls below c^2."""
    violations = 0
    for _ in range(ensembles):
        dim = int(rng.integers(*dims))
        count = int(rng.integers(2, 5))
        raw = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
        states = [s / np.linalg.norm(s) for s in raw]
        c = max(abs(np.vdot(a, b)) for i, a in enumerate(states)
                for b in states[i + 1:])
        # oracle.optimal_projector_error, with the ensemble's span built once
        span = oracle._equal_input_span(states)
        worst = max(oracle._projector_error(span, states[i], states[j])
                    for i in range(count) for j in range(count) if i != j)
        lb = analysis.optimal_measurement_error_lb(c)
        violations += bool(worst < lb - 1e-12 or lb < c * c - 1e-12)
    return violations


def ring_gray_break(ks) -> tuple[int, int] | None:
    """First (k, position) whose ring neighbour, wrap-around included,
    carries a label more than one bit away, or whose label
    ``codes.gray_position`` (the map the encoder runs) does not place back
    at that position; None when every k holds."""
    for k in ks:
        labels = codes.ring_gray(k).tolist()
        placed = codes.gray_position(labels).tolist()
        size = 1 << k
        for pos in range(size):
            a, b = labels[pos], labels[(pos + 1) % size]
            if bin(a ^ b).count("1") != 1 or placed[pos] != pos:
                return k, pos
    return None


def qary_violations(ks, lo: float, points: int) -> int:
    """Grid points where the Gray-coded binary ring needs more signals than
    the 2^k-ary ring (``gray_beats_qary``), over ``points`` distances from
    ``lo`` to the top of each k's range."""
    violations = 0
    for k in ks:
        hi = (1.0 - 2.0 ** (-k)) / k
        for delta in np.linspace(lo, hi, points):
            ok, _ = analysis.gray_beats_qary(k, float(delta))
            violations += not ok
    return violations


def _verify_overlap_pairs():
    rng = np.random.default_rng(20240501)
    for _ in range(100):
        ba, bb = (rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2) for _ in range(2))
        yield ba * (2.0 / max(2.0, abs(ba))), bb * (2.0 / max(2.0, abs(bb)))


def _below(value, bound, detail: str) -> tuple[bool, str]:
    return bool(value < bound), detail.format(value)


def _gray_suite() -> tuple[bool, str]:
    broken = ring_gray_break(range(1, 13))
    if broken is None:
        return True, "ring adjacency holds for k <= 12"
    return False, "ring Gray code broken at k={}, pos={}".format(*broken)


# qfp verify: each suite's check on its fixed sample, the bound the measured
# value must stay below (counts: 1), and its report
SUITES = {
    "overlap": lambda: _below(
        overlap_deviation(_verify_overlap_pairs()), 1e-9,
        "max overlap deviation {:.2e}"),
    "usc": lambda: _below(
        usc_deviation(np.linspace(0.025, 0.5, 20), ((0, 0), (0, 1))), 1e-10,
        "max USC statistic deviation {:.2e}"),
    "interp": lambda: _below(
        interp_deviation((1, 2, 3), (0.1, 0.5, 1.0)), 1e-10,
        "max no-detection deviation {:.2e}"),
    "projector": lambda: _below(
        projector_violations(np.random.default_rng(7), 25, (2, 5)), 1,
        "{} lower-bound violations"),
    "gray": _gray_suite,
    "qary": lambda: _below(
        qary_violations(range(2, 7), 1e-4, 200), 1,
        "{} inequality violations"),
}
