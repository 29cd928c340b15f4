"""Tests for entropy helpers, the GV length solver and rates, Gray maps, and
worst-case pair generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfp import checks
from qfp.codes import (MAX_GRAY_BITS, _lattice_shape, _signal_blocks,
                       binary_entropy, gray_position, gv_binary_length,
                       gv_binary_rate, ring_gray, worst_case_pair)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x),
                                                  rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)


class TestGVLength:
    def test_zero_distance_is_identity(self):
        assert gv_binary_length(1000, 0.0) == 1000

    def test_rate_inequality_tight(self):
        for delta in (0.1, 0.25, 0.4):
            m = gv_binary_length(1000, delta)
            assert 1000 / m <= gv_binary_rate(delta) + 1e-9
            assert 1000 / (m - 1) > gv_binary_rate(delta) - 1e-9

    @given(st.integers(min_value=1, max_value=10**6),
           st.floats(min_value=0.0, max_value=0.45))
    @settings(max_examples=200)
    def test_monotone_in_delta(self, n, delta):
        assert gv_binary_length(n, delta) >= n

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            gv_binary_rate(0.6)


class TestRingGray:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_cyclic_adjacency(self, k):
        assert checks.ring_gray_break([k]) is None

    @pytest.mark.parametrize("k", range(1, 11))
    def test_bijection(self, k):
        labels = ring_gray(k)
        assert sorted(labels) == list(range(1 << k))
        assert np.array_equal(np.argsort(labels)[labels], np.arange(1 << k))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            ring_gray(0)
        with pytest.raises(ValueError):
            ring_gray(25)


class TestLatticeGray:
    @pytest.mark.parametrize("k", range(2, 11))
    def test_grid_adjacency(self, k):
        # on the map lattice_constellation runs: the Gray positions of a
        # label's high bits and low bits are its row and column, every cell
        # takes one label, and grid-adjacent labels differ in one bit
        rows, cols = _lattice_shape(k)
        labels = np.arange(1 << k)
        grid = np.full((rows, cols), -1)
        grid[gray_position(labels >> k // 2),
             gray_position(labels & (cols - 1))] = labels
        assert sorted(grid.ravel()) == list(labels)
        for diff in (grid[1:] ^ grid[:-1], grid[:, 1:] ^ grid[:, :-1]):
            assert [bin(d).count("1") for d in diff.ravel()] == [1] * diff.size

    @pytest.mark.parametrize("k", range(2, 11))
    def test_shape(self, k):
        # k bits over two sides, the row side taking the odd bit
        rows, cols = _lattice_shape(k)
        assert rows * cols == 1 << k
        assert rows == cols << (k % 2)


class TestGrayPosition:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_inverts_every_label(self, k):
        pos = np.arange(1 << k)
        assert np.array_equal(gray_position(pos ^ (pos >> 1)), pos)

    def test_inverts_random_positions_up_to_the_widest_label(self):
        rng = np.random.default_rng(24)
        for k in range(1, MAX_GRAY_BITS + 1):
            pos = np.append(rng.integers(0, 1 << k, 1000), [0, (1 << k) - 1])
            assert np.array_equal(gray_position(pos ^ (pos >> 1)), pos)


class TestWorstCasePair:
    @pytest.mark.parametrize("strategy", ["even", "consolidated"])
    @pytest.mark.parametrize("m,delta,k", [(100, 0.25, 1), (100, 0.25, 3),
                                           (101, 0.3, 4), (64, 0.0, 2)])
    def test_exact_distance(self, m, delta, k, strategy):
        x, y = worst_case_pair(m, delta, k, strategy)
        assert int(np.sum(x != y)) == int(round(m * delta))

    def test_consolidated_packs_leading_blocks(self):
        x, y = worst_case_pair(100, 0.2, 4, "consolidated")
        flips = np.flatnonzero(x != y)
        assert np.array_equal(flips, np.arange(20))

    def test_even_spreads_within_one(self):
        m, k = 96, 4
        x, y = worst_case_pair(m, 0.25, k, "even")
        per_block = (x != y).reshape(-1, k).sum(axis=1)
        assert per_block.max() - per_block.min() <= 1

    def test_even_respects_short_final_block(self):
        m, k = 10, 4
        x, y = worst_case_pair(m, 0.9, k, "even")
        assert int(np.sum(x != y)) == 9

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            worst_case_pair(10, 0.2, 2, "scattered")
        with pytest.raises(ValueError):  # even when nothing is flipped
            worst_case_pair(10, 0.0, 2, "scattered")

    @pytest.mark.parametrize("ms", [range(1, 41), [97], [1000], [1001]],
                             ids=["m<=40", "m=97", "m=1000", "m=1001"])
    def test_even_matches_round_robin(self, ms):
        # `even` must be bit-identical to the round-robin it replaced, and
        # `consolidated` must flip exactly the first `dist` positions
        for m in ms:
            for k in range(1, 9):
                for dist in range(m + 1):
                    x, y = worst_case_pair(m, dist / m, k, "even")
                    assert not x.any()
                    assert np.array_equal(y, _round_robin_even(m, dist, k)), \
                        (m, k, dist)
                    x, y = worst_case_pair(m, dist / m, k, "consolidated")
                    assert not x.any()
                    assert np.array_equal(np.flatnonzero(y),
                                          np.arange(dist)), (m, k, dist)

    @pytest.mark.parametrize("strategy", ["even", "consolidated"])
    def test_matches_position_grid(self, strategy):
        # the strided runs flip exactly what the 1-based position grid they
        # replaced flipped, in the same dtype, for every m <= 60, k <= 8
        # and distance
        for m in range(1, 61):
            for k in range(1, 9):
                for dist in range(m + 1):
                    want = _position_grid_pair(m, dist, k, strategy)
                    got = worst_case_pair(m, dist / m, k, strategy)
                    for a, b in zip(got, want):
                        assert a.dtype == b.dtype and np.array_equal(a, b), \
                            (m, k, dist)


def _position_grid_pair(m, dist, k, strategy):
    """The pair as built before the strided runs: the signal layout of the
    1-based positions (0 pads the last signal), read signal-major or
    bit-major, padding dropped, its first dist positions flipped in y."""
    grid = _signal_blocks(np.arange(1, m + 1), k)
    order = (grid if strategy == "consolidated" else grid.T).reshape(-1)
    order = order[order > 0] - 1
    x = np.zeros(m, dtype=np.uint8)
    y = np.zeros(m, dtype=np.uint8)
    y[order[:dist]] = 1
    return x, y


def _round_robin_even(m, dist, k):
    """The `even` strategy's original loop, kept verbatim as the reference."""
    y = np.zeros(m, dtype=np.uint8)
    if dist == 0:
        return y
    n_blocks = -(-m // k)
    flip = np.zeros(m, dtype=bool)
    # round-robin over blocks, respecting the (possibly short) final block
    block_fill = [0] * n_blocks
    block_len = [min(k, m - j * k) for j in range(n_blocks)]
    remaining = dist
    while remaining > 0:
        progressed = False
        for j in range(n_blocks):
            if remaining == 0:
                break
            if block_fill[j] < block_len[j]:
                block_fill[j] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise ValueError("distance exceeds codeword length")
    for j, fill in enumerate(block_fill):
        flip[j * k: j * k + fill] = True
    y[flip] ^= 1
    return y
