"""Tests for the stochastic simulation layer: determinism, one-sidedness,
and agreement with the closed-form error model."""

import math

import numpy as np
import pytest

from qfp import montecarlo
from qfp.analysis import IDEAL_NOISE, PAPER_EXP_NOISE, NoiseModel, \
    ring_worst_case_error, solve_amplitude, worst_case_error_with_threshold
from qfp.codes import worst_case_pair
from qfp.constellations import ProtocolInstance, encode_ed
from qfp.montecarlo import (TrialPlan, block_rows, derive_block_rng,
                            signal_click_probs, simulate_ed,
                            simulate_equality, wilson_interval)


def _model(k, m, delta, mu, noise):
    """The click model's threshold and worst-case error at a design point."""
    return worst_case_error_with_threshold(k, m, mu * noise.eta, delta, noise)


def _ring_plan(k=1, m=500, delta=0.25, mu=None, trials=2000, seed=0,
               noise=IDEAL_NOISE, strategy="even", equal=False):
    """A ring plan on the worst-case pair (or an equal pair) and the click
    model's d_th at its design point, the arguments of simulate_equality."""
    if mu is None:
        mu = solve_amplitude(k, m, delta, 0.01, noise)
    x, y = worst_case_pair(m, delta, k, strategy)
    if equal:
        y = x.copy()
    plan = TrialPlan(trials=trials, master_seed=seed,
                     protocol=ProtocolInstance(family="ring", k=k, m=m, mu=mu),
                     noise=noise, input_x=x, input_y=y)
    return plan, _model(k, m, delta, mu, noise).d_th


class TestRngDerivation:
    def test_reproducible(self):
        a = derive_block_rng(123, 9).random(100)
        b = derive_block_rng(123, 9).random(100)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = derive_block_rng(123, 9).random(100)
        b = derive_block_rng(123, 10).random(100)
        assert not np.array_equal(a, b)

    def test_stream_independence_smoke(self):
        # 3 sigma of a sample correlation over 1e4 draws is 0.03
        for idx in range(10):
            a = derive_block_rng(0, idx).random(10**4)
            b = derive_block_rng(0, idx + 1).random(10**4)
            assert abs(np.corrcoef(a, b)[0, 1]) < 0.03


class TestDeterminism:
    def test_identical_plans_identical_results(self):
        r1 = simulate_equality(*_ring_plan(seed=7))
        r2 = simulate_equality(*_ring_plan(seed=7))
        assert r1 == r2

    def test_chunked_equals_serial(self):
        # worker-style chunking at a block boundary, each worker drawing its
        # blocks from their own streams, must reproduce the serial error
        # count exactly; three blocks, the last one short
        probs = signal_click_probs(_ring_plan(trials=1, seed=5)[0])
        uniq, counts = np.unique(np.round(probs, 15), return_counts=True)
        rows = block_rows(uniq.size)
        plan, d_th = _ring_plan(trials=2 * rows + 123, seed=5)
        serial = simulate_equality(plan, d_th)
        errors = 0
        for chunk in (range(0, 1), range(1, 3)):
            for b in chunk:
                n = min(rows, plan.trials - b * rows)
                rng = derive_block_rng(plan.master_seed, b)
                clicks = rng.binomial(counts, uniq, size=(n, uniq.size))
                errors += int(np.sum(clicks.sum(axis=1) < serial.d_th))
        assert errors / plan.trials == serial.empirical_error

    def test_one_stream_per_block(self, monkeypatch):
        # a return to per-trial streams would construct 1e4 generators
        made = []

        def counting(seed, block):
            made.append(block)
            return derive_block_rng(seed, block)

        monkeypatch.setattr(montecarlo, "derive_block_rng", counting)
        trials = 10**4
        plan, d_th = _ring_plan(k=3, m=300, trials=trials)
        groups = np.unique(np.round(signal_click_probs(plan), 15)).size
        simulate_equality(plan, d_th)
        assert made == list(range(math.ceil(trials / block_rows(groups))))
        made.clear()
        simulate_ed(_ed_plan(dim=64, trials=trials))
        assert made == list(range(math.ceil(trials / block_rows(2 * 64))))
        assert len(made) == 10


class TestOneSidedness:
    def test_equal_inputs_never_err(self):
        res = simulate_equality(*_ring_plan(equal=True, trials=5000))
        assert res.empirical_error == 0.0

    def test_equal_inputs_with_dark_counts_err(self):
        noise = NoiseModel(eta=1.0, p_dark=0.01)
        res = simulate_equality(*_ring_plan(equal=True, trials=5000,
                                            noise=noise, mu=5.0))
        assert res.empirical_error > 0.0

    def test_reduced_visibility_false_positives_at_model_threshold(self):
        # equal inputs click at 1 - e^(-|beta_k|^2 (1 - V)) per signal; the
        # model threshold keeps the false-positive rate within the model's
        # worst-case error (a threshold of one click errs ~29 % of the time)
        k, m, delta, trials = 2, 2000, 0.25, 20000
        noise = NoiseModel(visibility=0.98)
        mu = solve_amplitude(k, m, delta, 0.01, noise)
        plan, d_th = _ring_plan(k=k, m=m, delta=delta, mu=mu, trials=trials,
                                seed=3, noise=noise, equal=True)
        p = _model(k, m, delta, mu, noise).worst_case_error
        res = simulate_equality(plan, d_th)
        assert res.empirical_error <= p + 3.0 * math.sqrt(p * (1 - p) / trials)


class TestClosedFormAgreement:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("strategy", ["even", "consolidated"])
    def test_worst_case_within_three_sigma(self, k, strategy):
        delta, trials = 0.25, 20000
        m = 500 * k
        mu = solve_amplitude(k, m, delta, 0.01)
        plan, d_th = _ring_plan(k=k, m=m, delta=delta, mu=mu, trials=trials,
                                seed=k * 10 + (strategy == "even"),
                                strategy=strategy)
        res = simulate_equality(plan, d_th)
        # the decision errs only on zero clicks (ideal noise, d_th = 1), so
        # the exact prediction is the product of per-signal no-click probs
        assert d_th == 1
        p = float(np.prod(1.0 - signal_click_probs(plan)))
        if strategy == "even":
            assert p == pytest.approx(ring_worst_case_error(k, mu, delta),
                                      rel=1e-9)
        sigma = math.sqrt(p * (1.0 - p) / trials)
        assert abs(res.empirical_error - p) < 3.0 * sigma

    def test_wilson_interval_covers(self):
        res = simulate_equality(*_ring_plan(trials=20000, seed=42))
        lo, hi = res.confidence_interval
        assert lo <= 0.01 <= hi


class TestWilson:
    def test_degenerate_counts(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert hi == pytest.approx(1.0, abs=1e-12) and lo > 0.95

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


def _unit_pair(dim=64, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=dim)
    v = rng.normal(size=dim)
    return u / np.linalg.norm(u), v / np.linalg.norm(v)


def _ed_plan(dim=64, trials=2000, seed=0):
    u, v = _unit_pair(dim)
    return TrialPlan(trials=trials, master_seed=seed,
                     protocol=ProtocolInstance(family="ed_real", s=dim,
                                               alpha=math.sqrt(0.5)),
                     noise=IDEAL_NOISE, input_x=u, input_y=v)


class TestEdSimulation:
    def test_identical_inputs_estimate_zero(self):
        u, _ = _unit_pair()
        plan = TrialPlan(trials=2000, master_seed=1,
                         protocol=ProtocolInstance(family="ed_real", s=64,
                                                   alpha=math.sqrt(0.5)),
                         noise=IDEAL_NOISE, input_x=u, input_y=u.copy())
        res = simulate_ed(plan)
        assert abs(res.mean_estimate) < 4.0 * max(res.std_error, 1e-9) + 1e-9

    def test_estimator_within_three_sigma(self):
        u, v = _unit_pair(seed=3)
        plan = TrialPlan(trials=20000, master_seed=4,
                         protocol=ProtocolInstance(family="ed_real", s=64,
                                                   alpha=math.sqrt(0.5)),
                         noise=IDEAL_NOISE, input_x=u, input_y=v)
        res = simulate_ed(plan)
        true = float(np.sum((u - v) ** 2))
        assert abs(res.mean_estimate - true) < 3.0 * res.std_error + 0.01

    def test_variant_click_means_identical(self):
        # the packed encoding redistributes modes but conserves the total
        # expected click intensity exactly
        u, v = _unit_pair(seed=5)
        alpha = math.sqrt(0.5)
        for sign in (-1.0, 1.0):
            real = np.abs(encode_ed(u, alpha) + sign * encode_ed(v, alpha)) ** 2
            cplx = np.abs(encode_ed(u, alpha, "complex")
                          + sign * encode_ed(v, alpha, "complex")) ** 2
            assert real.sum() == pytest.approx(cplx.sum(), abs=1e-12)

    def test_rejects_non_ed_family(self):
        u, v = _unit_pair()
        plan = TrialPlan(trials=10, master_seed=0,
                         protocol=ProtocolInstance(family="ring", k=1, m=64,
                                                   mu=1.0),
                         noise=IDEAL_NOISE, input_x=u, input_y=v)
        with pytest.raises(ValueError):
            simulate_ed(plan)


class TestBlockBudget:
    @pytest.mark.parametrize("s", [1, 128, 10**6])
    def test_ed_block_within_budget(self, s):
        # both ports draw together: 2s uniforms per trial; a trial wider than
        # the budget runs alone in its block
        rows = block_rows(2 * s)
        assert rows * 2 * s <= montecarlo._BLOCK_ELEMENTS or rows == 1

    @pytest.mark.parametrize("s", [1, 128])
    def test_ed_draws_one_block_array(self, monkeypatch, s):
        # simulate_ed requests (block_rows(2s), 2, s) uniforms per block
        shapes = []

        class Spy:
            def random(self, shape):
                shapes.append(shape)
                return np.ones(shape)

        monkeypatch.setattr(montecarlo, "derive_block_rng",
                            lambda seed, block: Spy())
        simulate_ed(_ed_plan(dim=s, trials=5000))
        rows = block_rows(2 * s)
        assert shapes[0] == (min(rows, 5000), 2, s)
        assert sum(shape[0] for shape in shapes) == 5000


def _scalar_no_click_prob(beta_a, beta_b, visibility):
    """The scalar no-click law as written before it broadcast."""
    mu_dark = 0.5 * (abs(beta_a) ** 2 + abs(beta_b) ** 2
                     - 2.0 * visibility * (np.conj(beta_a) * beta_b).real)
    return math.exp(-mu_dark)


class TestClickProbs:
    """The broadcast no-click law against the per-signal scalar loop."""

    @pytest.mark.parametrize("family,k", [("ring", 1), ("ring", 3),
                                          ("lattice", 2), ("lattice", 4)])
    @pytest.mark.parametrize("noise", [
        IDEAL_NOISE, PAPER_EXP_NOISE,
        NoiseModel(eta=0.8, p_dark=1e-3, visibility=0.95)],
        ids=["ideal", "paper-exp", "visibility"])
    def test_matches_scalar_loop(self, family, k, noise):
        m = 240
        x, y = worst_case_pair(m, 0.3, k, "even")
        mu = solve_amplitude(k, m, 0.3, 0.01, noise)
        plan = TrialPlan(trials=1, master_seed=0,
                         protocol=ProtocolInstance(family=family, k=k, m=m,
                                                   mu=mu),
                         noise=noise, input_x=x, input_y=y)
        # the per-signal loop the broadcast call replaced
        amps_x = montecarlo._encode(plan.protocol, x)
        amps_y = montecarlo._encode(plan.protocol, y)
        root_eta = math.sqrt(noise.eta)
        no_click = np.array([
            _scalar_no_click_prob(a * root_eta, b * root_eta, noise.visibility)
            for a, b in zip(amps_x, amps_y)
        ])
        loop = 1.0 - no_click * (1.0 - noise.p_dark)
        probs = signal_click_probs(plan)
        assert np.max(np.abs(probs - loop)) <= 2.2e-16
