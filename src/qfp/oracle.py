"""Brute-force verification layer, independent of the closed forms it checks.

Coherent states are expanded in a truncated Fock basis; the beamsplitter is
the exact photon-number-conserving two-mode unitary; comparison measurements
are built from explicit projectors.  Everything here is deliberately direct
and allocation-heavy: the point is trustworthiness, not speed.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .codes import _signal_blocks
from .constellations import _qubit_pair, interpolation_signal

__all__ = [
    "default_cutoff",
    "coherent_fock",
    "beamsplitter_click_probs",
    "qubit_from_coherent",
    "usc_povm",
    "usc_outcome_probs",
    "cswap_antisym_prob",
    "interp_measurement_oracle",
    "optimal_projector_error",
]


def default_cutoff(beta: complex) -> int:
    """Poisson-tail-motivated cutoff: mean + 8 standard-deviation-ish margin."""
    b2 = abs(beta) ** 2
    return max(20, math.ceil(b2 + 8.0 * math.sqrt(b2 + 1.0)))


def coherent_fock(beta: complex, cutoff: int | None = None) -> np.ndarray:
    """Coherent state |beta> as its complex amplitudes on Fock levels
    0..cutoff."""
    if cutoff is None:
        cutoff = default_cutoff(beta)
    b2 = abs(beta) ** 2
    if b2 > cutoff / 3.0:
        raise ValueError(
            f"|beta|^2 = {b2} exceeds accuracy guard cutoff/3 = {cutoff / 3.0}"
        )
    if beta == 0:  # the vacuum, of norm 1 exactly
        return np.eye(1, cutoff + 1, dtype=complex)[0]
    h = np.arange(cutoff + 1)
    log_fact = np.cumsum(np.log(np.maximum(h, 1)))  # log h!, with 0! = 1
    mags = np.exp(-b2 / 2.0 + h * np.log(abs(beta)) - log_fact / 2.0)
    amps = np.asarray(mags * (beta / abs(beta)) ** h, complex)
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-9")
    return amps


@lru_cache(maxsize=16)
def _beamsplitter_blocks(cutoff: int) -> tuple[np.ndarray, ...]:
    """50/50 beamsplitter unitary, block per total photon number T <= cutoff.

    Block T acts on basis |T - j photons in mode a, j in mode b>, j = 0..T.
    """
    # imported on first use: no command reaches this, and at module top
    # scipy.linalg would load for every command
    from scipy.linalg import expm

    blocks = []
    for total in range(cutoff + 1):
        dim = total + 1
        # generator a b^dag - a^dag b restricted to the total-photon block
        gen = np.zeros((dim, dim))
        for j in range(total):
            # |total-j, j> -> a b^dag lowers a, raises b
            amp = math.sqrt((total - j) * (j + 1))
            gen[j + 1, j] += amp
            gen[j, j + 1] -= amp
        blocks.append(expm((math.pi / 4.0) * gen))
    return tuple(blocks)


def beamsplitter_click_probs(a: np.ndarray, b: np.ndarray
                             ) -> tuple[float, float]:
    """(dark-port, light-port) click probabilities of the balanced
    beamsplitter with threshold detectors on both output ports, for input
    Fock amplitude vectors a and b of one cutoff.

    Convention: equal coherent inputs leave the dark port in vacuum.
    """
    if a.size != b.size:
        raise ValueError("cutoff mismatch")
    cutoff = a.size - 1
    blocks = _beamsplitter_blocks(cutoff)
    joint = np.outer(a, b)
    p_no_dark = 0.0
    p_no_light = 0.0
    for total in range(cutoff + 1):
        # input amplitudes on the total-photon block, ordered by mode-b count
        j = np.arange(total + 1)
        vec_in = joint[total - j, j]
        vec_out = blocks[total] @ vec_in
        # output mode a carries the difference (dark), mode b the sum (light)
        p_no_dark += abs(vec_out[total]) ** 2   # 0 photons in mode a
        p_no_light += abs(vec_out[0]) ** 2      # 0 photons in mode b
    return 1.0 - p_no_dark, 1.0 - p_no_light


def qubit_from_coherent(beta_0: complex, beta_1: complex
                        ) -> tuple[np.ndarray, np.ndarray, float]:
    """Qubit pair with the same pairwise overlap magnitude as |beta_0>,
    |beta_1>, plus the excitation parameter p = e^{-|b|^2} sinh |b|^2 for
    b = (beta_0 - beta_1)/2."""
    b2 = abs(0.5 * (beta_0 - beta_1)) ** 2
    p = math.exp(-b2) * math.sinh(b2)
    return *_qubit_pair(p), p


def _usd_povm(u_plus: np.ndarray, u_minus: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equal-prior optimal unambiguous discrimination POVM for two pure
    states, as explicit operators (E_plus, E_minus, E_inconclusive)."""
    s = abs(np.vdot(u_plus, u_minus))
    dim = u_plus.size

    def detector(keep: np.ndarray, reject: np.ndarray) -> np.ndarray:
        perp = keep - np.vdot(reject, keep) * reject
        nrm = np.linalg.norm(perp)
        if nrm < 1e-15:
            return np.zeros((dim, dim), dtype=complex)
        perp = perp / nrm
        return np.outer(perp, perp.conj()) / (1.0 + s)

    e_plus = detector(u_plus, u_minus)
    e_minus = detector(u_minus, u_plus)
    # inconclusive element completes the POVM on the span of the two states
    stack = np.stack([u_plus, u_minus])
    _, svals, vh = np.linalg.svd(stack, full_matrices=False)
    basis = vh[svals > 1e-12]
    p_span = basis.T @ basis.conj()
    e_inc = p_span - e_plus - e_minus
    return e_plus, e_minus, e_inc


def usc_povm(p: float) -> dict[str, np.ndarray]:
    """Two-qubit comparison measurement: USD on span{|00>,|11>} direct-summed
    with symmetric/antisymmetric projection on span{|01>,|10>}.

    Outcomes: "same" (USD plus, or symmetric), "different" (USD minus, or
    antisymmetric), "inconclusive" (USD failure).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    w1 = (1.0 - p) ** 2 + p * p
    u_plus = np.zeros(4, dtype=complex)
    u_minus = np.zeros(4, dtype=complex)
    u_plus[[0, 3]] = np.array([1.0 - p, p]) / math.sqrt(w1)
    u_minus[[0, 3]] = np.array([1.0 - p, -p]) / math.sqrt(w1)
    e_plus, e_minus, e_inc = _usd_povm(u_plus, u_minus)
    sym = np.zeros(4, dtype=complex)
    antisym = np.zeros(4, dtype=complex)
    sym[[1, 2]] = 1.0 / math.sqrt(2.0)
    antisym[[1, 2]] = np.array([1.0, -1.0]) / math.sqrt(2.0)
    p_sym = np.outer(sym, sym.conj())
    p_anti = np.outer(antisym, antisym.conj())
    return {
        "same": e_plus + p_sym,
        "different": e_minus + p_anti,
        "inconclusive": e_inc,
    }


def usc_outcome_probs(a: int, b: int, p: float) -> dict[str, float]:
    """Outcome probabilities of the comparison measurement on |q_a>|q_b>
    for qubits with excitation parameter p."""
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("a and b must be bits")
    qs = _qubit_pair(p)
    joint = np.kron(qs[a], qs[b]).astype(complex)
    povm = usc_povm(p)
    return {name: float(np.real(np.vdot(joint, op @ joint)))
            for name, op in povm.items()}


def cswap_antisym_prob(state: np.ndarray, dim: int | None = None) -> float:
    """Probability of the antisymmetric outcome of the swap test on a
    bipartite vector with equal factor dimensions."""
    state = np.asarray(state)
    if dim is None:
        dim = math.isqrt(state.size)
    if dim * dim != state.size:
        raise ValueError(f"state of size {state.size} is not bipartite with "
                         f"equal factors")
    mat = state.reshape(dim, dim)
    anti = 0.5 * (mat - mat.T)
    return float(np.linalg.norm(anti) ** 2)


def _lift_qubit_pair_op(op4: np.ndarray, k: int) -> np.ndarray:
    """Lift a two-qubit operator to (C^k (x) C^2)^(x2), acting as identity on
    both index registers."""
    eye_k = np.eye(k)
    # registers ordered (index_A, qubit_A, index_B, qubit_B)
    op = op4.reshape(2, 2, 2, 2)  # (qA', qB', qA, qB)
    big = np.einsum("ij,abcd,kl->iakbjcld", eye_k, op, eye_k, optimize=True)
    d = 2 * k
    return big.reshape(d * d, d * d)


def _diag_projector(k: int) -> np.ndarray:
    """Projector onto the matched-index subspace span{|i>|s>|i>|t>}."""
    d = 2 * k
    proj = np.zeros((d * d, d * d))
    for i in range(k):
        for s in range(2):
            for t in range(2):
                idx = (2 * i + s) * d + (2 * i + t)
                proj[idx, idx] = 1.0
    return proj


def interp_measurement_oracle(codeword_x: np.ndarray, codeword_y: np.ndarray,
                              k: int, p_k: float) -> np.ndarray:
    """Per-signal no-detection probabilities of the interpolation measurement,
    built from explicit vectors and projectors.

    The matched-index component receives the two-qubit comparison
    measurement; the mismatched-index component receives the swap test.
    "No detection" excludes the "different" and "antisymmetric" outcomes.
    """
    codeword_x = np.asarray(codeword_x, dtype=np.uint8)
    codeword_y = np.asarray(codeword_y, dtype=np.uint8)
    if codeword_x.shape != codeword_y.shape:
        raise ValueError("codewords must have equal length")
    if k > 4 or codeword_x.size > 8:
        raise ValueError("oracle is capped at k <= 4, m <= 8")
    d = 2 * k
    p_diag = _diag_projector(k)
    # comparison measurement is fixed by the design overlap 1 - p_k; its
    # qubit excitation parameter is p_k / 2
    povm = usc_povm(p_k / 2.0)
    e_detect = _lift_qubit_pair_op(povm["different"], k)
    results = []
    for block_x, block_y in zip(_signal_blocks(codeword_x, k),
                                _signal_blocks(codeword_y, k)):
        joint = np.kron(interpolation_signal(block_x, k, p_k),
                        interpolation_signal(block_y, k, p_k)).astype(complex)
        diag_part = p_diag @ joint
        off_part = joint - diag_part
        p_dark = float(np.real(np.vdot(diag_part, e_detect @ diag_part)))
        p_anti = cswap_antisym_prob(off_part, d)
        results.append(1.0 - p_dark - p_anti)
    return np.array(results)


def _equal_input_span(states_equal: list[np.ndarray]) -> np.ndarray:
    """Orthonormal rows spanning the equal-input product states
    {|psi psi>}, by SVD of their stack."""
    stack = np.stack([np.kron(s, s) for s in states_equal]).astype(complex)
    _, svals, vh = np.linalg.svd(stack, full_matrices=False)
    return vh[svals > 1e-10 * svals[0]]


def _projector_error(span: np.ndarray, probe_x: np.ndarray,
                     probe_y: np.ndarray) -> float:
    """Weight of |psi_x psi_y> on the span of ``_equal_input_span``'s rows."""
    probe = np.kron(probe_x, probe_y).astype(complex)
    coeffs = span.conj() @ probe
    return float(np.real(np.vdot(coeffs, coeffs)))


def optimal_projector_error(states_equal: list[np.ndarray], probe_x: np.ndarray,
                            probe_y: np.ndarray) -> float:
    """Error of the optimal one-sided equality measurement on |psi_x psi_y>.

    Projects onto the span of the equal-input product states {|psi psi>}.
    """
    return _projector_error(_equal_input_span(states_equal), probe_x, probe_y)
