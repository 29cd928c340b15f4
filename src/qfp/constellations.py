"""Signal-level state construction for every protocol family.

Coherent-state families (ring, lattice, Euclidean-distance) are described by
their complex amplitude sequences.  The interpolation family is described by
explicit per-signal unit vectors in C^k (x) C^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codes import GrayMap, lattice_gray, ring_gray

__all__ = [
    "Constellation",
    "ProtocolInstance",
    "ring_constellation",
    "lattice_constellation",
    "encode_ring",
    "encode_lattice",
    "encode_ed",
    "interpolation_qubits",
    "interpolation_signal",
    "interpolation_state_vector",
    "lattice_mu_range",
]

_STATE_DIM_CAP = 10**6


@dataclass(frozen=True)
class Constellation:
    """Labeled set of complex signal amplitudes with its Gray-label map."""

    points: np.ndarray = field(repr=False)
    labels: GrayMap

    @property
    def per_signal_mean_photons(self) -> np.ndarray:
        return np.abs(self.points) ** 2


@dataclass(frozen=True)
class ProtocolInstance:
    """One coherent-state protocol of the Monte Carlo layer: mu is the total
    mean photon number of the ring and lattice families; s and alpha
    describe the Euclidean-distance encodings."""

    family: str  # ring | lattice | ed_real | ed_complex
    k: int = 1
    m: int = 0
    mu: float = 0.0
    s: int = 0
    alpha: complex = 0.0


def _pad_codeword(codeword: np.ndarray, k: int) -> np.ndarray:
    """Zero-pad the final block so k divides the length."""
    codeword = np.asarray(codeword, dtype=np.uint8)
    if codeword.ndim != 1 or codeword.size == 0:
        raise ValueError("codeword must be a nonempty 1-D bit array")
    rem = codeword.size % k
    if rem:
        codeword = np.concatenate([codeword, np.zeros(k - rem, dtype=np.uint8)])
    return codeword


def _block_labels(codeword: np.ndarray, k: int) -> np.ndarray:
    """Integer label of each k-bit block, first bit most significant."""
    blocks = _pad_codeword(codeword, k).reshape(-1, k)
    weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
    return blocks.astype(np.int64) @ weights


def ring_constellation(k: int, beta: float) -> Constellation:
    """2^k points omega^j * beta; Gray position 0 on the positive real axis."""
    gray = ring_gray(k)
    j = np.arange(1 << k)
    points = beta * np.exp(2j * np.pi * j / (1 << k))
    return Constellation(points=points, labels=gray)


def lattice_constellation(k: int, beta_rms: float) -> Constellation:
    """Centered rectangular grid whose mean squared modulus equals beta_rms^2.

    Rows run along the imaginary axis, columns along the real axis; point
    index is the flattened grid position of the lattice Gray map.
    """
    gray = lattice_gray(k)
    rows, cols = gray.shape
    # mean over grid points of dx^2 + dy^2 for unit spacing
    unit_ms = ((cols * cols - 1) + (rows * rows - 1)) / 12.0
    spacing = beta_rms / math.sqrt(unit_ms)
    r, c = np.divmod(np.arange(rows * cols), cols)
    x = (c - (cols - 1) / 2.0) * spacing
    y = ((rows - 1) / 2.0 - r) * spacing
    return Constellation(points=x + 1j * y, labels=gray)


def _signal_amplitude(m: int, k: int, mu: float) -> float:
    """Per-signal amplitude sqrt(mu / (m/k)); exact total mu when k | m."""
    return math.sqrt(mu / (m / k))


def encode_ring(codeword: np.ndarray, k: int, mu: float) -> np.ndarray:
    """Amplitude sequence of the ring protocol for one codeword."""
    codeword = np.asarray(codeword, dtype=np.uint8)
    m = codeword.size
    beta = _signal_amplitude(m, k, mu)
    const = ring_constellation(k, beta)
    labels = _block_labels(codeword, k)
    return const.points[const.labels.position_of[labels]]


def encode_lattice(codeword: np.ndarray, k: int, mu: float) -> np.ndarray:
    """Amplitude sequence of the lattice protocol for one codeword.

    Spacing is normalized so the grid-averaged total mean photon number over
    all possible codewords equals mu.
    """
    codeword = np.asarray(codeword, dtype=np.uint8)
    m = codeword.size
    beta_rms = _signal_amplitude(m, k, mu)
    const = lattice_constellation(k, beta_rms)
    labels = _block_labels(codeword, k)
    return const.points[const.labels.position_of[labels]]


def lattice_mu_range(k: int, m: int, mu: float) -> tuple[float, float]:
    """Per-codeword total mean photon number range [mu_min, mu_max]."""
    beta_rms = _signal_amplitude(m, k, mu)
    const = lattice_constellation(k, beta_rms)
    n_signals = -(-m // k)
    intensities = const.per_signal_mean_photons
    return (n_signals * float(intensities.min()),
            n_signals * float(intensities.max()))


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
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"u must be a unit vector, got norm {norm}")
    if variant == "real":
        if np.iscomplexobj(u) and np.abs(u.imag).max() > 0:
            raise ValueError("real variant requires real entries")
        return u.real * alpha
    if variant == "complex":
        if np.iscomplexobj(u) and np.abs(u.imag).max() > 0:
            raise ValueError("complex packing is defined for real entries")
        v = u.real
        if v.size % 2:
            v = np.concatenate([v, [0.0]])
        return (v[0::2] + 1j * v[1::2]) * alpha
    raise ValueError(f"unknown variant {variant!r}")


def interpolation_qubits(p_k: float) -> tuple[np.ndarray, np.ndarray]:
    """Qubit pair with inner product <q0|q1> = 1 - p_k exactly."""
    if not 0.0 <= p_k <= 1.0:
        raise ValueError(f"p_k must lie in [0, 1], got {p_k}")
    hi = math.sqrt(1.0 - p_k / 2.0)
    lo = math.sqrt(p_k / 2.0)
    return np.array([hi, lo]), np.array([hi, -lo])


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
    codeword = _pad_codeword(codeword, k)
    n_signals = codeword.size // k
    if (2 * k) ** n_signals > _STATE_DIM_CAP:
        raise ValueError(
            f"state dimension (2k)^{n_signals} exceeds cap {_STATE_DIM_CAP}"
        )
    state = np.ones(1)
    for j in range(n_signals):
        sig = interpolation_signal(codeword[j * k:(j + 1) * k], k, p_k)
        state = np.kron(state, sig)
    return state
