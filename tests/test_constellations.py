"""Tests for signal constellations and per-codeword encoders."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfp import codes, constellations, leakage
from qfp.constellations import (_signal_amplitude, encode, encode_ed,
                                interpolation_qubits, interpolation_signal,
                                interpolation_state_vector,
                                lattice_constellation, lattice_mu_range,
                                ring_constellation)

# (family, k) for each coherent entry of the family table, k <= 8
_COHERENT = [(name, k) for name, fam in leakage.FAMILIES.items() if fam.bound
             for k in range(fam.k_min, min(fam.k_max, 8) + 1)]


def _lattice_gray(k):
    """The rows x cols grid of labels in position order, a product of two
    reflected Gray codes: the high ceil(k/2) bits of a label index the row,
    the low floor(k/2) bits the column."""
    rows, cols = codes._lattice_shape(k)
    row, col = np.arange(rows), np.arange(cols)
    return (row ^ row >> 1)[:, None] * cols | col ^ col >> 1


# each family's labels in position order
_GRAY = {"ring": codes.ring_gray, "lattice": _lattice_gray}


@pytest.mark.parametrize("family,k", _COHERENT)
def test_encoder_reads_the_family_arrays(family, k):
    # labels and points by position, from the family's own functions
    labels = _GRAY[family](k).reshape(-1)
    mu = 3.7
    # the codeword listing every label once, first bit most significant
    bits = np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1) & 1
    every = bits.astype(np.uint8).reshape(-1)
    points = getattr(constellations, f"{family}_constellation")(
        k, _signal_amplitude(every.size, k, mu), labels)
    assert np.array_equal(encode(every, family, k, mu),
                          points[np.argsort(labels)])
    rng = np.random.default_rng(k)
    m = 64 * k
    codewords = [rng.integers(0, 2, m).astype(np.uint8) for _ in range(20)]
    if family == "ring":
        for codeword in [every, *codewords]:
            total = np.sum(np.abs(encode(codeword, family, k, mu)) ** 2)
            assert total == pytest.approx(mu, rel=1e-12)
    else:
        lo, hi = lattice_mu_range(k, m, mu)
        for codeword in codewords:
            total = np.sum(np.abs(encode(codeword, family, k, mu)) ** 2)
            assert lo * (1 - 1e-12) <= total <= hi * (1 + 1e-12)


def _points_by_position(family, k, beta):
    """Each family's points in position order, built as the constellations
    were before they took labels: the oracle for the label-keyed maps."""
    if family == "ring":
        return beta * np.exp(2j * np.pi * np.arange(1 << k) / (1 << k))
    rows, cols, spacing = constellations._lattice_grid(k, beta)
    x = (np.arange(cols) - (cols - 1) / 2.0) * spacing
    y = ((rows - 1) / 2.0 - np.arange(rows)[:, None]) * spacing
    return (x + 1j * y).reshape(-1)


@pytest.mark.parametrize("family,k", [("ring", k) for k in range(1, 13)]
                         + [("lattice", k) for k in range(2, 13)])
def test_label_maps_equal_the_position_table(family, k):
    # bit for bit, signed zeros included, over every label and over small
    # label sets such as the encoder's per-pair calls evaluate
    gray = _GRAY[family](k).reshape(-1)
    constellation = getattr(constellations, f"{family}_constellation")
    rng = np.random.default_rng(k)
    labels = np.arange(1 << k)
    for beta in (1e-5, 0.3, 1.7, 40.0):
        by_label = _points_by_position(family, k, beta)[np.argsort(gray)]
        for subset in (labels, labels[-1:], rng.integers(0, 1 << k, (2, 3))):
            assert np.array_equal(
                constellation(k, beta, subset).view(np.int64),
                by_label[subset].view(np.int64))


@pytest.mark.parametrize("family,codeword,value", [
    ("ring", [0, 2], 2), ("ring", [2, 0], 2), ("lattice", [0, 2, 0, 0], 2),
    ("ring", [-1, 0], -1), ("ring", [256, 0], 256), ("ring", [0, 0.5], 0.5)])
def test_encode_rejects_non_binary_entries(family, codeword, value):
    # an entry is a bit, not a weight: 2 must not read as label 2, and -1
    # or 256 must not wrap to a bit in a uint8 cast
    with pytest.raises(ValueError, match=f"0 or 1, got {value}$"):
        encode(np.array(codeword), family, 2, 1.0)


class TestRingConstellation:
    def test_uniform_modulus(self):
        points = ring_constellation(3, 1.7, codes.ring_gray(3))
        assert np.allclose(np.abs(points), 1.7)

    def test_first_position_on_real_axis(self):
        assert ring_constellation(2, 1.0, codes.ring_gray(2))[0] == \
            pytest.approx(1.0)

    def test_adjacent_labels_adjacent_points(self):
        k = 3
        points = ring_constellation(k, 1.0, codes.ring_gray(k))
        step = 2.0 * math.pi / (1 << k)
        for pos in range(1 << k):
            a = points[pos]
            b = points[(pos + 1) % (1 << k)]
            ang = abs(np.angle(b / a))
            assert ang == pytest.approx(step, rel=1e-9)


class TestEncodeRing:
    def test_total_mean_photon_number(self):
        codeword = np.zeros(60, dtype=np.uint8)
        for k in (1, 2, 3):
            amps = encode(codeword, "ring", k, 7.0)
            assert np.sum(np.abs(amps) ** 2) == pytest.approx(7.0, rel=1e-12)

    def test_single_bit_flip_moves_one_step(self):
        k = 2
        x = np.zeros(2, dtype=np.uint8)
        y = np.array([0, 1], dtype=np.uint8)
        ax = encode(x, "ring", k, 1.0)[0]
        ay = encode(y, "ring", k, 1.0)[0]
        ang = abs(np.angle(ay / ax))
        assert ang == pytest.approx(2.0 * math.pi / 4, rel=1e-9)

    def test_first_bit_most_significant(self):
        # block [1, 0] is label 2; its Gray position differs from [0, 1]'s
        a10 = encode(np.array([1, 0], dtype=np.uint8), "ring", 2, 1.0)[0]
        a01 = encode(np.array([0, 1], dtype=np.uint8), "ring", 2, 1.0)[0]
        assert abs(a10 - a01) > 1e-9

    def test_padding_short_final_block(self):
        amps = encode(np.zeros(5, dtype=np.uint8), "ring", 2, 1.0)
        assert amps.size == 3

    def test_rejects_other_families(self):
        with pytest.raises(ValueError, match="torus"):
            encode(np.zeros(4, dtype=np.uint8), "torus", 2, 1.0)


class TestLattice:
    def test_rms_normalization(self):
        ms = np.mean(np.abs(lattice_constellation(
            4, 1.3, _lattice_gray(4))) ** 2)
        assert ms == pytest.approx(1.3 ** 2, rel=1e-12)

    def test_centered(self):
        assert abs(np.mean(lattice_constellation(
            5, 1.0, _lattice_gray(5)))) < 1e-12

    @pytest.mark.parametrize("k", range(2, 13))
    def test_mu_range_is_the_grid_extremes(self, k):
        # the closed form against the signal count times the least and
        # greatest |point|^2 of the built grid
        for m in (k, 1000, 98765):
            n_signals = -(-m // k)
            for beta in np.logspace(-4, 2, 13):
                mu = beta * beta * m / k
                lo, hi = lattice_mu_range(k, m, mu)
                intensities = np.abs(lattice_constellation(
                    k, _signal_amplitude(m, k, mu),
                    _lattice_gray(k))) ** 2
                assert lo == pytest.approx(n_signals * intensities.min(),
                                           rel=2e-15, abs=0.0)
                assert hi == pytest.approx(n_signals * intensities.max(),
                                           rel=2e-15, abs=0.0)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            lattice_mu_range(1, 100, 1.0)
        with pytest.raises(ValueError):
            lattice_constellation(25, 1.0, np.zeros(1, dtype=np.int64))

    def test_mu_range_brackets_average(self):
        k, m, mu = 4, 120, 9.0
        lo, hi = lattice_mu_range(k, m, mu)
        assert lo < mu < hi

    def test_encode_within_range(self):
        k, m, mu = 4, 120, 9.0
        lo, hi = lattice_mu_range(k, m, mu)
        rng = np.random.default_rng(0)
        for _ in range(20):
            codeword = rng.integers(0, 2, m).astype(np.uint8)
            total = np.sum(np.abs(encode(codeword, "lattice", k, mu)) ** 2)
            assert lo - 1e-9 <= total <= hi + 1e-9


class TestEncodeEd:
    def test_real_total_energy(self):
        u = np.full(16, 0.25)
        amps = encode_ed(u, 2.0, "real")
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(4.0, rel=1e-12)

    def test_complex_packing_halves_signals(self):
        u = np.full(16, 0.25)
        assert encode_ed(u, 1.0, "complex").size == 8
        # an odd length pads the last signal's imaginary part with zero
        u = np.arange(1.0, 8.0) / np.sqrt(140.0)
        alpha = 0.6 + 0.8j
        amps = encode_ed(u, alpha, "complex")
        assert amps.size == 4
        assert amps[-1] == u[-1] * alpha

    def test_variants_share_distance_identity(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=32)
        v = rng.normal(size=32)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        alpha = 1.4
        d_real = np.sum(np.abs(encode_ed(u, alpha) - encode_ed(v, alpha)) ** 2)
        d_cplx = np.sum(np.abs(encode_ed(u, alpha, "complex")
                               - encode_ed(v, alpha, "complex")) ** 2)
        assert d_real == pytest.approx(d_cplx, abs=1e-12)
        assert d_real == pytest.approx(alpha ** 2 * np.sum((u - v) ** 2),
                                       rel=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            encode_ed(np.ones(4), 1.0)

    def test_rejects_nan(self):
        # a nan norm passes every comparison that reads "too far from 1"
        with pytest.raises(ValueError, match="unit vector"):
            encode_ed(np.array([math.nan, 0.0]), 1.0)


class TestInterpolation:
    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50)
    def test_qubit_overlap(self, p_k):
        q0, q1 = interpolation_qubits(p_k)
        assert float(q0 @ q1) == pytest.approx(1.0 - p_k, abs=1e-12)

    def test_signal_unit_norm(self):
        for k in (1, 2, 4):
            block = np.arange(k) % 2
            sig = interpolation_signal(block.astype(np.uint8), k, 0.3)
            assert np.linalg.norm(sig) == pytest.approx(1.0, abs=1e-12)

    def test_signal_overlap_linear_in_differences(self):
        k, p_k = 4, 0.4
        x = np.zeros(k, dtype=np.uint8)
        for d in range(k + 1):
            y = x.copy()
            y[:d] = 1
            sx = interpolation_signal(x, k, p_k)
            sy = interpolation_signal(y, k, p_k)
            assert float(sx @ sy) == pytest.approx(1.0 - d * p_k / k,
                                                   abs=1e-12)

    def test_state_vector_product_structure(self):
        k, p_k = 2, 0.5
        codeword = np.array([0, 1, 1, 0], dtype=np.uint8)
        state = interpolation_state_vector(codeword, k, p_k)
        assert state.size == (2 * k) ** 2
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_state_vector_dimension_cap(self):
        with pytest.raises(ValueError):
            interpolation_state_vector(np.zeros(64, dtype=np.uint8), 2, 0.5)
