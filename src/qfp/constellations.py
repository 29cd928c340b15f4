"""Signal-level state construction for every protocol family.

Coherent-state families (ring, lattice, Euclidean-distance) are described by
their complex amplitude sequences.  The interpolation family is described by
explicit per-signal unit vectors in C^k (x) C^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import _lattice_shape, _ring_size, _signal_blocks, gray_position

__all__ = [
    "ProtocolInstance",
    "ring_constellation",
    "lattice_constellation",
    "encode",
    "encode_ed",
    "interpolation_qubits",
    "interpolation_signal",
    "interpolation_state_vector",
    "lattice_mu_range",
]

_STATE_DIM_CAP = 10**6


@dataclass(frozen=True)
class ProtocolInstance:
    """One coherent-state protocol of the Monte Carlo layer: mu is the total
    mean photon number of the ring and lattice families; s and alpha
    describe the Euclidean-distance encodings."""

    family: str  # ring | lattice | ed_real | ed_complex
    k: int = 1
    mu: float = 0.0
    s: int = 0
    alpha: complex = 0.0


def ring_constellation(k: int, beta: float, labels: np.ndarray) -> np.ndarray:
    """The point beta e^(2 pi i j / 2^k) of each label in [0, 2^k), j its
    ring position (``ring_gray``), position 0 on the positive real axis."""
    return beta * np.exp(2j * np.pi * gray_position(labels) / _ring_size(k))


def _lattice_grid(k: int, beta_rms: float) -> tuple[int, int, float]:
    """(rows, cols, spacing) of the centered grid whose mean squared modulus
    equals beta_rms^2."""
    rows, cols = _lattice_shape(k)
    # mean over grid points of dx^2 + dy^2 for unit spacing
    unit_ms = ((cols * cols - 1) + (rows * rows - 1)) / 12.0
    return rows, cols, beta_rms / math.sqrt(unit_ms)


def lattice_constellation(k: int, beta_rms: float,
                          labels: np.ndarray) -> np.ndarray:
    """The point of each label in [0, 2^k) on a centered grid of mean squared
    modulus beta_rms^2: the reflected-Gray positions of the label's high
    ceil(k/2) and low floor(k/2) bits give its row, along the imaginary
    axis, and its column, along the real axis."""
    rows, cols, spacing = _lattice_grid(k, beta_rms)
    x = (gray_position(labels & (cols - 1)) - (cols - 1) / 2.0) * spacing
    y = ((rows - 1) / 2.0 - gray_position(labels >> k // 2)) * spacing
    return x + 1j * y


def _signal_amplitude(m: float, k: int, mu: float) -> float:
    """Per-signal amplitude sqrt(mu / (m/k)); exact total mu when k | m."""
    return math.sqrt(mu / (m / k))


_MODULATIONS = {"ring": ring_constellation, "lattice": lattice_constellation}


def _label_points(family: str, k: int, m: int, mu: float,
                  labels: np.ndarray) -> np.ndarray:
    """The point of each label for a codeword of m bits.

    The per-signal amplitude is the ring's radius and the lattice's rms
    modulus, so the total mean photon number is mu on the ring and mu
    averaged over all codewords on the lattice.
    """
    if family not in _MODULATIONS:
        raise ValueError(f"unsupported family {family!r}; the encoder "
                         f"knows {sorted(_MODULATIONS)}")
    return _MODULATIONS[family](k, _signal_amplitude(m, k, mu), labels)


def _signal_labels(codeword, k: int) -> np.ndarray:
    """Each signal's label, its k bits read first bit most significant (the
    last signal zero-padded), as int64; an entry other than 0 or 1 raises."""
    codeword = np.asarray(codeword)
    stray = codeword[(codeword != 0) & (codeword != 1)]
    if stray.size:
        raise ValueError(f"codeword bits must be 0 or 1, got {stray[0]}")
    rows = _signal_blocks(codeword.astype(np.uint8, copy=False), k)
    labels = np.zeros(len(rows), dtype=np.int64)
    for bit in rows.T:
        labels <<= 1
        labels |= bit
    return labels


def encode(codeword: np.ndarray, family: str, k: int, mu: float) -> np.ndarray:
    """Amplitude sequence of the ring or lattice protocol for one codeword:
    each signal's point by its label (``_label_points``)."""
    return _label_points(family, k, np.size(codeword), mu,
                         _signal_labels(codeword, k))


def lattice_mu_range(k: int, m: int, mu: float) -> tuple[float, float]:
    """Per-codeword total mean photon number range [mu_min, mu_max]: the
    signal count times the grid's least and greatest |point|^2.  rows and
    cols are even, so with spacing s the four centre points have s^2/2 and
    the corners s^2 ((rows - 1)^2 + (cols - 1)^2) / 4."""
    rows, cols, spacing = _lattice_grid(k, _signal_amplitude(m, k, mu))
    s2_signals = -(-m // k) * spacing * spacing
    return (s2_signals / 2.0,
            s2_signals * ((rows - 1) ** 2 + (cols - 1) ** 2) / 4.0)


def encode_ed(u: np.ndarray, alpha: complex, variant: str = "real") -> np.ndarray:
    """Amplitude sequence of the Euclidean-distance protocol for one vector.

    The real variant emits one signal u_j * alpha per component; the complex
    variant packs consecutive component pairs into (u_j + i u_{j+1}) * alpha,
    halving the signal count.  Both carry total mean photon number |alpha|^2.
    """
    u = np.asarray(u)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("u must be a nonempty 1-D vector")
    norm = np.linalg.norm(u)
    if not abs(norm - 1.0) <= 1e-9:  # a nan norm fails too
        raise ValueError(f"u must be a unit vector, got norm {norm}")
    if np.iscomplexobj(u) and np.abs(u.imag).max() > 0:
        raise ValueError("both variants are defined for real entries")
    if variant == "real":
        return u.real * alpha
    if variant == "complex":
        rows = _signal_blocks(u.real, 2)
        return (rows[:, 0] + 1j * rows[:, 1]) * alpha
    raise ValueError(f"unknown variant {variant!r}")


def _qubit_pair(p: float) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(1 - p), +-sqrt(p)): two qubits with overlap 1 - 2p."""
    hi, lo = math.sqrt(1.0 - p), math.sqrt(p)
    return np.array([hi, lo]), np.array([hi, -lo])


def interpolation_qubits(p_k: float) -> tuple[np.ndarray, np.ndarray]:
    """Qubit pair with inner product <q0|q1> = 1 - p_k exactly."""
    if not 0.0 <= p_k <= 1.0:
        raise ValueError(f"p_k must lie in [0, 1], got {p_k}")
    return _qubit_pair(p_k / 2.0)


def interpolation_signal(block: np.ndarray, k: int, p_k: float) -> np.ndarray:
    """Per-signal vector (1/sqrt(k)) sum_i |i>|q_{b_i}> in C^k (x) C^2."""
    block = np.asarray(block, dtype=np.uint8)
    if block.size != k:
        raise ValueError(f"block must have {k} bits, got {block.size}")
    q0, q1 = interpolation_qubits(p_k)
    qubits = np.where(block[:, None] == 0, q0[None, :], q1[None, :])
    return qubits.reshape(-1) / math.sqrt(k)


def interpolation_state_vector(codeword: np.ndarray, k: int, p_k: float) -> np.ndarray:
    """Explicit unit vector of the full interpolation state for one codeword."""
    if not 0.0 < p_k <= 1.0:
        raise ValueError(f"p_k must lie in (0, 1], got {p_k}")
    blocks = _signal_blocks(np.asarray(codeword, dtype=np.uint8), k)
    if (2 * k) ** len(blocks) > _STATE_DIM_CAP:
        raise ValueError(
            f"state dimension (2k)^{len(blocks)} exceeds cap {_STATE_DIM_CAP}"
        )
    state = np.ones(1)
    for block in blocks:
        state = np.kron(state, interpolation_signal(block, k, p_k))
    return state
