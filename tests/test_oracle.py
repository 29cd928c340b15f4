"""Tests for the truncated Fock-space verification layer against the
closed-form module."""

import functools
import math

import numpy as np
import pytest

from qfp import checks
from qfp.analysis import NoiseModel, click_probs, interp_nd_prob
from qfp.constellations import encode
from qfp.oracle import (beamsplitter_click_probs, coherent_fock,
                        cswap_antisym_prob, interp_measurement_oracle,
                        optimal_projector_error, qubit_from_coherent,
                        usc_outcome_probs)


class TestCoherentStates:
    def test_overlap_closed_form(self):
        pts = np.random.default_rng(11).uniform(-1.5, 1.5, size=(30, 4))
        pairs = [(complex(*p[:2]), complex(*p[2:])) for p in pts]
        assert checks.overlap_deviation(pairs) <= 1e-10

    def test_normalized(self):
        state = coherent_fock(1.2 + 0.3j)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_is_exact(self):
        state = coherent_fock(0.0, 4)
        assert state.dtype == complex
        assert state.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_cutoff_guard(self):
        with pytest.raises(ValueError):
            coherent_fock(5.0, cutoff=10)


def _product_state(amplitudes):
    return functools.reduce(np.kron, [coherent_fock(beta, 60)
                                      for beta in amplitudes])


class TestProductStates:
    """A product of coherent states is the Kronecker product of its modes'
    Fock vectors, and its overlap is the Gram entry
    prod_j exp(-|a_j|^2/2 - |b_j|^2/2 + conj(a_j) b_j), phase included."""

    @pytest.mark.parametrize("family,k", [("ring", 1), ("ring", 2),
                                          ("ring", 3), ("lattice", 2),
                                          ("lattice", 3)])
    @pytest.mark.parametrize("modes", [2, 3])
    def test_overlap_is_gram_entry(self, family, k, modes):
        rng = np.random.default_rng(100 * k + modes)
        for _ in range(4):
            x, y = rng.integers(0, 2, size=(2, modes * k), dtype=np.uint8)
            a = encode(x, family, k, 1.2 * modes)
            b = encode(y, family, k, 1.2 * modes)
            assert max(np.abs(a).max(), np.abs(b).max()) <= 1.5
            got = np.vdot(_product_state(a), _product_state(b))
            want = np.prod(np.exp(-0.5 * np.abs(a) ** 2 - 0.5 * np.abs(b) ** 2
                                  + a.conj() * b))
            assert abs(got - want) <= 1e-12

    def test_cutoff_mismatch(self):
        a, b = coherent_fock(0.5, 30), coherent_fock(0.5, 40)
        with pytest.raises(ValueError):
            np.vdot(a, b)
        with pytest.raises(ValueError, match="cutoff mismatch"):
            beamsplitter_click_probs(a, b)


class TestBeamsplitter:
    def test_equal_inputs_dark_port_silent(self):
        b = 0.9
        p_dark, p_light = beamsplitter_click_probs(coherent_fock(b),
                                                   coherent_fock(b))
        assert p_dark == pytest.approx(0.0, abs=1e-12)
        assert p_light == pytest.approx(1.0 - math.exp(-2.0 * b * b),
                                        abs=1e-10)

    def test_opposite_inputs_swap_ports(self):
        b = 0.9
        p_dark, p_light = beamsplitter_click_probs(coherent_fock(b),
                                                   coherent_fock(-b))
        assert p_light == pytest.approx(0.0, abs=1e-12)
        assert p_dark == pytest.approx(1.0 - math.exp(-2.0 * b * b),
                                       abs=1e-10)

    def test_general_pair_squared_distance_law(self):
        # loss before the beamsplitter scales each amplitude by sqrt(eta);
        # the library law gives the dark port from (a, b), the light from
        # (a, -b)
        rng = np.random.default_rng(5)
        for eta in [1.0] * 10 + [0.3] * 10:
            noise = NoiseModel(eta=eta)
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            p_dark, p_light = beamsplitter_click_probs(
                coherent_fock(a * math.sqrt(eta), 50),
                coherent_fock(b * math.sqrt(eta), 50))
            assert p_dark == pytest.approx(click_probs(a, b, noise), abs=1e-9)
            assert p_light == pytest.approx(click_probs(a, -b, noise),
                                            abs=1e-9)


class TestQubitReduction:
    def test_overlap_preserved(self):
        b0, b1 = 0.7, -0.7
        q0, q1, _ = qubit_from_coherent(b0, b1)
        coherent = math.exp(-0.5 * abs(b0 - b1) ** 2)
        assert float(q0 @ q1) == pytest.approx(coherent, abs=1e-12)


class TestUSC:
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.35, 0.5])
    def test_outcome_statistics(self, p):
        assert checks.usc_deviation([p], ((0, 0), (0, 1))) <= 1e-12

    def test_probabilities_sum_to_one(self):
        for a, b in ((0, 0), (0, 1), (1, 1)):
            probs = usc_outcome_probs(a, b, 0.3)
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


class TestSwapTest:
    def test_product_state_antisym_prob(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            q0 = rng.normal(size=3) + 1j * rng.normal(size=3)
            q1 = rng.normal(size=3) + 1j * rng.normal(size=3)
            q0 /= np.linalg.norm(q0)
            q1 /= np.linalg.norm(q1)
            got = cswap_antisym_prob(np.kron(q0, q1))
            want = 0.5 * (1.0 - abs(np.vdot(q0, q1)) ** 2)
            assert got == pytest.approx(want, abs=1e-12)

    def test_symmetric_state_never_fires(self):
        q = np.array([1.0, 1.0j]) / math.sqrt(2)
        assert cswap_antisym_prob(np.kron(q, q)) == pytest.approx(0.0,
                                                                  abs=1e-12)


class TestInterpOracle:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("p_k", [0.1, 0.5, 1.0])
    def test_matches_closed_form(self, k, p_k):
        assert checks.interp_deviation([k], [p_k]) <= 1e-10

    def test_multi_signal_codewords(self):
        k, p_k = 2, 0.4
        x = np.array([0, 0, 1, 1], dtype=np.uint8)
        y = np.array([0, 1, 1, 0], dtype=np.uint8)
        probs = interp_measurement_oracle(x, y, k, p_k)
        assert probs.shape == (2,)
        assert probs[0] == pytest.approx(interp_nd_prob(1, k, p_k), abs=1e-10)
        assert probs[1] == pytest.approx(interp_nd_prob(1, k, p_k), abs=1e-10)

    def test_padded_last_block(self):
        # m = 5 at k = 2: the third signal carries one bit and one pad bit
        k, p_k = 2, 0.4
        x = np.array([0, 0, 1, 1, 0], dtype=np.uint8)
        y = np.array([1, 1, 1, 1, 1], dtype=np.uint8)
        probs = interp_measurement_oracle(x, y, k, p_k)
        assert probs.shape == (3,)
        for got, d in zip(probs, (2, 0, 1)):
            assert got == pytest.approx(interp_nd_prob(d, k, p_k), abs=1e-10)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            interp_measurement_oracle(np.zeros(10, dtype=np.uint8),
                                      np.zeros(10, dtype=np.uint8), 5, 0.5)


class TestOptimalProjector:
    def test_equal_probe_never_errs(self):
        rng = np.random.default_rng(2)
        states = [s / np.linalg.norm(s)
                  for s in rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))]
        for s in states:
            assert optimal_projector_error(states, s, s) == pytest.approx(
                1.0, abs=1e-10)

    def test_worst_pair_meets_lower_bound(self):
        rng = np.random.default_rng(13)
        assert checks.projector_violations(rng, 20, (2, 5)) == 0
