"""Entropy functions, the binary Gilbert-Varshamov length solver, Gray codes,
the signal layout, and adversarial codeword-pair generators.

No actual error-correcting code is ever constructed: every protocol here
only needs the minimum distance of the code, so codewords are produced
directly as worst-case pairs at a prescribed Hamming distance.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MAX_GRAY_BITS",
    "binary_entropy",
    "gv_binary_length",
    "gv_binary_rate",
    "ring_gray",
    "gray_position",
    "worst_case_pair",
]

MAX_GRAY_BITS = 24  # widest label the ring and lattice Gray maps cover


def binary_entropy(x: float) -> float:
    """Binary entropy h(x) in bits, with h(0) = h(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy domain is [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def gv_binary_rate(delta: float) -> float:
    """Rate n/m of a binary code saturating the Gilbert-Varshamov bound."""
    if not 0.0 <= delta < 0.5:
        raise ValueError(f"binary GV bound requires 0 <= delta < 1/2, got {delta}")
    return 1.0 - binary_entropy(delta)


def gv_binary_length(n: int, delta: float) -> int:
    """Smallest codeword length m with n/m <= 1 - h(delta)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rate = gv_binary_rate(delta)
    if rate <= 0.0:
        raise ValueError(f"no finite length for delta={delta}")
    return math.ceil(n / rate - 1e-12)


def _ring_size(k: int) -> int:
    """2^k, the number of ring positions."""
    if not 1 <= k <= MAX_GRAY_BITS:
        raise ValueError(f"ring needs 1 <= k <= {MAX_GRAY_BITS}, got {k}")
    return 1 << k


def ring_gray(k: int) -> np.ndarray:
    """The label at each of the 2^k ring positions, a binary-reflected Gray
    code: cyclically adjacent positions (including the wrap-around pair)
    carry labels at Hamming distance one."""
    pos = np.arange(_ring_size(k), dtype=np.int64)
    return pos ^ (pos >> 1)


def _lattice_shape(k: int) -> tuple[int, int]:
    """(rows, cols) = (2^ceil(k/2), 2^floor(k/2)) of the lattice grid."""
    if not 2 <= k <= MAX_GRAY_BITS:
        raise ValueError(f"lattice needs 2 <= k <= {MAX_GRAY_BITS}, got {k}")
    return 1 << (k + 1) // 2, 1 << k // 2


def gray_position(labels) -> np.ndarray:
    """Each reflected-Gray label's position, inverting p ^ (p >> 1) by a
    prefix XOR whose five doublings reach 32 >= ``MAX_GRAY_BITS`` bits."""
    pos = np.asarray(labels, dtype=np.int64)
    for shift in (1, 2, 4, 8, 16):
        pos = pos ^ pos >> shift
    return pos


def _signal_count(m: int, k: int) -> int:
    """ceil(m/k) k-bit signals carry m bits: the count of the layout, the
    click model, the lattice's photon range, the interpolation bound and
    ``_qil_floor``'s c.  ``_signal_amplitude``, the ring and lattice bounds,
    ``DeltaOptimum.m_k`` and the curves' real GV length use m/k instead."""
    return -(-m // k)


def _signal_blocks(seq, k: int) -> np.ndarray:
    """The signal layout: a nonempty 1-D sequence as rows of k entries, one
    row per signal, in the sequence's dtype, with the last row zero-padded."""
    seq = np.asarray(seq)
    if seq.ndim != 1 or seq.size == 0:
        raise ValueError("sequence must be nonempty and 1-D")
    rows = np.zeros((_signal_count(seq.size, k), k), dtype=seq.dtype)
    rows.reshape(-1)[:seq.size] = seq
    return rows


def worst_case_pair(m: int, delta: float, k: int,
                    strategy: str = "even") -> tuple[np.ndarray, np.ndarray]:
    """Two length-m bit strings differing in exactly round(m * delta) positions.

    Both strategies flip the leading positions of one order over the signal
    layout.  ``consolidated`` reads it signal-major, so the differences fill
    the fewest leading signals; ``even`` reads it bit-major (bit t of every
    signal before bit t + 1 of any), a round-robin over the signals.
    """
    if strategy not in ("even", "consolidated"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive")
    dist = int(round(m * delta))
    if not 0 <= dist <= m:
        raise ValueError(f"round(m*delta)={dist} outside [0, {m}]")
    x = np.zeros(m, dtype=np.uint8)
    y = np.zeros(m, dtype=np.uint8)
    # the order as runs of positions: one signal-major run, or one run per
    # bit t, a strided view of y over every signal that has a bit t
    if strategy == "consolidated":
        runs = [y]
    else:
        runs = [y[t::k] for t in range(min(k, m))]
    for run in runs:
        flips = min(dist, run.size)
        run[:flips] = 1
        dist -= flips
    return x, y
