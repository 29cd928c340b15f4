"""Tests for the stochastic simulation layer: determinism, one-sidedness,
and agreement with the closed-form error model."""

import itertools
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import stats

from qfp import analysis, montecarlo
from qfp.analysis import IDEAL_NOISE, PAPER_EXP_NOISE, NoiseModel, \
    click_probs, ring_worst_case_error, solve_amplitude, \
    worst_case_error_with_threshold
from qfp.codes import worst_case_pair
from qfp.constellations import ProtocolInstance, encode, encode_ed
from qfp.montecarlo import (TrialPlan, block_rows, signal_click_probs,
                            simulate_ed, simulate_equality, wilson_interval)


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
                     protocol=ProtocolInstance(family="ring", k=k, mu=mu),
                     noise=noise, input_x=x, input_y=y)
    return plan, _model(k, m, delta, mu, noise).d_th


class TestDeterminism:
    def test_identical_plans_identical_results(self):
        r1 = simulate_equality(*_ring_plan(seed=7))
        r2 = simulate_equality(*_ring_plan(seed=7))
        assert r1 == r2

    def test_results_independent_of_block_size(self, monkeypatch):
        # blocks only bound memory: both samplers draw from one stream, so
        # cutting a run into more blocks (the last one short) moves nothing
        plan, d_th = _ring_plan(k=2, m=600, mu=5.0, trials=50000, seed=9)
        ed_plan = _ed_plan(dim=64, trials=5000, seed=9)
        results = []
        for elements in (1 << 17, 1 << 11, 999):
            monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", elements)
            results.append((simulate_equality(plan, d_th),
                            simulate_ed(ed_plan)))
        assert results[1] == results[0]
        assert results[2] == results[0]

    def test_one_generator_per_run(self, monkeypatch):
        # each sampler call builds one bit generator and one Generator,
        # however many blocks it runs (the ED run below has 10 once its
        # budget is cut to 1,000 uniforms)
        made = []
        philox, generator = np.random.Philox, np.random.Generator

        def counting(cls):
            def construct(*args, **kwargs):
                made.append(cls.__name__)
                return cls(*args, **kwargs)
            return construct

        monkeypatch.setattr(np.random, "Philox", counting(philox))
        monkeypatch.setattr(np.random, "Generator", counting(generator))
        trials = 10**4
        simulate_equality(*_ring_plan(k=3, m=300, trials=trials))
        assert made == ["Philox", "Generator"]
        made.clear()
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 1000)
        simulate_ed(_ed_plan(dim=64, trials=trials))
        assert math.ceil(trials / block_rows(1)) == 10
        assert made == ["Philox", "Generator"]


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
        # encode_ed rejects a variant it does not know after the ed_ prefix
        for family, message in (("ring", "not an ED family"),
                                ("ed_quaternion", "unknown variant")):
            plan = TrialPlan(trials=10, master_seed=0,
                             protocol=ProtocolInstance(family=family, k=1,
                                                       mu=1.0),
                             noise=IDEAL_NOISE, input_x=u, input_y=v)
            with pytest.raises(ValueError, match=message):
                simulate_ed(plan)

    @pytest.mark.parametrize("visibility", [0.0, 0.5, 0.99])
    def test_reduced_visibility_follows_click_law(self, visibility):
        # a lost fraction 1 - V of the interference moves (1 - V) Re(a* b)
        # from the light port's mean to the dark port's; at V = 0 each
        # port's mean is (|u|^2 + |v|^2) / 2, so D has mean 0 and the
        # estimate is 2
        u, v = _unit_pair(seed=6)
        alpha = math.sqrt(0.5)
        plan = TrialPlan(trials=20000, master_seed=6,
                         protocol=ProtocolInstance(family="ed_real", s=64,
                                                   alpha=alpha),
                         noise=NoiseModel(visibility=visibility),
                         input_x=u, input_y=v)
        res = simulate_ed(plan)
        a, b = encode_ed(u, alpha), encode_ed(v, alpha)
        lost = (1.0 - visibility) * (np.conj(a) * b).real
        p_dark = 1.0 - np.exp(-(0.5 * np.abs(a - b) ** 2 + lost))
        p_light = 1.0 - np.exp(-(0.5 * np.abs(a + b) ** 2 - lost))
        expected = 2.0 - (p_light - p_dark).sum() / alpha ** 2
        assert abs(res.predicted_mean - expected) <= 1e-12
        if visibility == 0.0:
            assert abs(res.predicted_mean - 2.0) <= 1e-12
        assert abs(res.mean_estimate - res.predicted_mean) < 3.0 * res.std_error

    def test_rejects_single_trial(self):
        # one trial has no sample standard error (ddof=1 divides by zero)
        with pytest.raises(ValueError, match=">= 2 trials"):
            simulate_ed(_ed_plan(dim=8, trials=1))


def _ed_noisy_plan(variant, dim, alpha2, p_dark, trials=2, seed=0):
    u, v = _unit_pair(dim, seed)
    return TrialPlan(trials=trials, master_seed=seed,
                     protocol=ProtocolInstance(family=f"ed_{variant}", s=dim,
                                               alpha=math.sqrt(alpha2)),
                     noise=NoiseModel(eta=1.0, p_dark=p_dark),
                     input_x=u, input_y=v)


def _ed_click_probs(plan):
    """Per-mode click probabilities of the dark port (row 0) and the light
    port (row 1), from the encoding and the click law written out."""
    alpha, variant = plan.protocol.alpha, plan.protocol.family[3:]
    a = encode_ed(plan.input_x, alpha, variant)
    b = encode_ed(plan.input_y, alpha, variant)
    lam = 0.5 * np.abs(np.array([a - b, a + b])) ** 2 * plan.noise.eta
    return 1.0 - np.exp(-lam) * (1.0 - plan.noise.p_dark)


def _enumerated_pmf(p):
    """P(N = t) for t = 0..modes by summing over all 2^modes click
    patterns."""
    pmf = np.zeros(p.size + 1)
    for pattern in itertools.product((0, 1), repeat=p.size):
        clicks = np.array(pattern, dtype=bool)
        pmf[clicks.sum()] += np.prod(np.where(clicks, p, 1.0 - p))
    return pmf


# real and complex packing (an odd dimension leaves the last mode half
# empty), with and without dark counts; at most 10 modes per port
_SMALL_ED_PLANS = [("real", 10, 2.0, 0.0), ("complex", 9, 2.0, 0.0),
                   ("real", 7, 5.0, 0.05), ("complex", 19, 1.0, 0.02)]


class TestEdLaw:
    """The exact law of D = N_light - N_dark that simulate_ed samples."""

    @pytest.mark.parametrize("variant,dim,alpha2,p_dark", _SMALL_ED_PLANS)
    def test_matches_enumeration_of_click_patterns(self, variant, dim,
                                                   alpha2, p_dark):
        p_click = _ed_click_probs(_ed_noisy_plan(variant, dim, alpha2, p_dark))
        assert p_click.shape[1] <= 10
        dark, light = (_enumerated_pmf(p) for p in p_click)
        for p, exact in zip(p_click, (dark, light)):
            pmf = analysis._click_total_pmf(p)
            assert np.max(np.abs(pmf - exact[:pmf.size])) <= 1e-14
            assert exact[pmf.size:].sum() <= analysis._TAIL_MASS
        # D's law by brute force: every pair of port totals
        modes = p_click.shape[1]
        joint = np.outer(dark, light)  # [n_dark, n_light]
        diff = np.subtract.outer(np.arange(modes + 1), np.arange(modes + 1))
        exact = np.bincount((-diff + modes).ravel(), weights=joint.ravel())
        d, pmf = analysis._difference_law(p_click)
        assert np.max(np.abs(pmf - exact[d + modes])) <= 1e-14

    @pytest.mark.parametrize("n,q", [(128, 0.08), (1000, 0.01),
                                     (10**6, 1e-5), (40, 0.05)])
    def test_dropped_tail_within_bound(self, n, q):
        # equal probabilities make N binomial; mpmath sums its tail term by
        # term until a term is below 1e-60 (the ratio of terms is below 1/2
        # there, so the rest is smaller still)
        pmf = analysis._click_total_pmf(np.full(n, q))
        assert pmf.size < n + 1  # the cut dropped something
        with mpmath.workdps(50):
            q = mpmath.mpf(q)
            t = pmf.size
            term = mpmath.binomial(n, t) * q ** t * (1 - q) ** (n - t)
            dropped = mpmath.mpf(0)
            while t <= n and term >= 1e-60:
                dropped += term
                term *= (n - t) * q / ((t + 1) * (1 - q))
                t += 1
        assert 0.0 < dropped <= analysis._TAIL_MASS

    def test_no_light_no_clicks(self):
        assert analysis._click_total_pmf(np.zeros(64)).tolist() == [1.0]

    def test_odd_mode_out_cut_with_its_level(self):
        # the law keeps one entry, fewer than a level's two rows, and the
        # odd mode out of 65 is cut like the merged columns
        assert analysis._click_total_pmf(np.full(65, 1e-32)).tolist() == [1.0]

    def test_sampled_difference_matches_its_law(self, monkeypatch):
        # chi-square of the sampled D over the bins the law expects >= 5
        # times each (the rest folded into the two end bins); a p-value
        # below 1e-3 fails
        plan = _ed_noisy_plan("complex", 128, 4.0, 1e-3, trials=10**5,
                              seed=21)
        drawn = []
        real_estimate = montecarlo.ed_estimate

        def spy(difference, alpha):
            if np.ndim(difference) == 1:  # not the predicted-mean scalar
                drawn.append(difference)
            return real_estimate(difference, alpha)

        monkeypatch.setattr(montecarlo, "ed_estimate", spy)
        simulate_ed(plan)
        d, pmf = analysis._difference_law(_ed_click_probs(plan))
        sample = np.concatenate(drawn)
        assert sample.size == plan.trials
        observed = np.bincount(sample - d[0], minlength=d.size)
        expected = pmf * plan.trials
        kept = np.flatnonzero(expected >= 5.0)
        lo, hi = kept[0], kept[-1] + 1
        assert kept.size == hi - lo  # one run of bins
        obs, exp = observed[lo:hi].astype(float), expected[lo:hi].copy()
        obs[0] += observed[:lo].sum()
        exp[0] += expected[:lo].sum()
        obs[-1] += observed[hi:].sum()
        exp[-1] += expected[hi:].sum()
        chi2 = float(np.sum((obs - exp) ** 2 / exp))
        assert stats.chi2.sf(chi2, obs.size - 1) > 1e-3

    @pytest.mark.parametrize("variant,dim,alpha2,p_dark",
                             _SMALL_ED_PLANS + [("real", 128, 10.0, 0.0),
                                                ("complex", 1001, 0.5, 1e-4)])
    def test_predicted_moments_closed_form(self, variant, dim, alpha2,
                                           p_dark):
        # mean 2 - (sum p_light - sum p_dark) / |alpha|^2 and variance
        # sum p (1 - p) over both ports, over |alpha|^4
        plan = _ed_noisy_plan(variant, dim, alpha2, p_dark, trials=1000)
        p_click = _ed_click_probs(plan)
        res = simulate_ed(plan)
        mean = 2.0 - (p_click[1].sum() - p_click[0].sum()) / alpha2
        se = (math.sqrt(np.sum(p_click * (1.0 - p_click)))
              / (alpha2 * math.sqrt(plan.trials)))
        assert abs(res.predicted_mean - mean) <= 1e-12
        assert res.predicted_std_error == pytest.approx(se, rel=1e-12)

    def test_bright_run_within_three_sigma_of_prediction(self):
        # at |alpha|^2 = 10 clicks saturate, so the estimator's mean sits
        # ~19 standard errors from the true distance but on the prediction
        plan = _ed_noisy_plan("real", 128, 10.0, 0.0, trials=10**5, seed=8)
        res = simulate_ed(plan)
        assert (abs(res.mean_estimate - res.predicted_mean)
                < 3.0 * res.predicted_std_error)
        true = float(np.sum((plan.input_x - plan.input_y) ** 2))
        assert abs(res.mean_estimate - true) > 3.0 * res.std_error

    def test_million_modes_under_an_address_space_cap(self):
        # the law is built in O(s) memory: a run at s = 10^6 finishes under
        # a 2 GiB address space, where an s x s array would not fit
        code = textwrap.dedent("""
            import math, resource
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            import numpy as np
            from qfp.analysis import IDEAL_NOISE
            from qfp.constellations import ProtocolInstance
            from qfp.montecarlo import TrialPlan, simulate_ed
            rng = np.random.default_rng(0)
            u, v = (x / np.linalg.norm(x) for x in rng.normal(size=(2, 10**6)))
            res = simulate_ed(TrialPlan(
                trials=2, master_seed=0,
                protocol=ProtocolInstance(family="ed_complex", s=10**6,
                                          alpha=1.0),
                noise=IDEAL_NOISE, input_x=u, input_y=v))
            print(res.runs, math.isfinite(res.predicted_mean))
            """)
        src = Path(montecarlo.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", code], cwd=src,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        assert out.stdout.split() == ["2", "True"]


def _uniform_requests(monkeypatch, plan):
    """The sizes simulate_ed asks its generator for, in order."""
    sizes = []

    class Spy:
        def random(self, size):
            sizes.append(size)
            return np.full(size, 0.5)

    monkeypatch.setattr(np.random, "Generator", lambda bg: Spy())
    simulate_ed(plan)
    return sizes


class TestBlockBudget:
    @pytest.mark.parametrize("s", [1, 128, 10**6])
    def test_ed_block_within_budget(self, monkeypatch, s):
        # one uniform per trial whatever s is: a block holds as many trials
        # as the budget has elements, and only the last block is short
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 3)
        assert _uniform_requests(monkeypatch,
                                 _ed_plan(dim=s, trials=7)) == [3, 3, 1]

    @pytest.mark.parametrize("s", [1, 128])
    def test_ed_draws_one_block_array(self, monkeypatch, s):
        # a run within the budget draws its `trials` uniforms as one array
        assert _uniform_requests(monkeypatch,
                                 _ed_plan(dim=s, trials=5000)) == [5000]


def _scalar_no_click_prob(beta_a, beta_b, visibility):
    """The scalar no-click law in its expanded form |a|^2 + |b|^2 -
    2 V Re(a* b), as written before the one click law replaced it."""
    mu_dark = 0.5 * (abs(beta_a) ** 2 + abs(beta_b) ** 2
                     - 2.0 * visibility * (np.conj(beta_a) * beta_b).real)
    return math.exp(-mu_dark)


class TestClickProbs:
    """The one click law against the per-signal scalar loop it replaced:
    at these design points the points are far apart, so the expanded form
    does not cancel and the two agree to an ulp."""

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
                         protocol=ProtocolInstance(family=family, k=k, mu=mu),
                         noise=noise, input_x=x, input_y=y)
        # the per-signal loop signal_click_probs replaced
        amps_x = encode(x, family, k, mu)
        amps_y = encode(y, family, k, mu)
        root_eta = math.sqrt(noise.eta)
        no_click = np.array([
            _scalar_no_click_prob(a * root_eta, b * root_eta, noise.visibility)
            for a, b in zip(amps_x, amps_y)
        ])
        loop = 1.0 - no_click * (1.0 - noise.p_dark)
        probs = signal_click_probs(plan)
        assert np.max(np.abs(probs - loop)) <= 2.2e-16


def _per_signal_profile(plan):
    """The click law as simulate_equality grouped it before: every signal's
    click probability from the encoded pair, rounded to 15 decimals and
    grouped by value."""
    p = plan.protocol
    probs = click_probs(encode(plan.input_x, p.family, p.k, p.mu),
                        encode(plan.input_y, p.family, p.k, p.mu), plan.noise)
    return np.unique(np.round(probs, 15), return_counts=True)


def _per_signal_simulation(plan, d_th):
    """simulate_equality's draws from the per-signal grouping."""
    uniq, counts = _per_signal_profile(plan)
    inputs_equal = bool(np.array_equal(plan.input_x, plan.input_y))
    rng = np.random.Generator(np.random.Philox(key=plan.master_seed))
    errors = 0
    for _, rows in montecarlo._blocks(plan.trials, block_rows(uniq.size)):
        clicks = rng.binomial(counts, uniq, size=(rows, uniq.size)).sum(axis=1)
        errors += int(np.count_nonzero((clicks >= d_th) == inputs_equal))
    return montecarlo.EqualityResult(
        empirical_error=errors / plan.trials,
        confidence_interval=montecarlo.wilson_interval(errors, plan.trials))


class TestClickProfile:
    """The click law built once per label pair against the per-signal
    grouping it replaced: the same (probabilities, counts), so the same
    draws and the same result."""

    @pytest.mark.parametrize("family,k", [("ring", k) for k in range(1, 9)]
                             + [("lattice", k) for k in range(2, 9)]
                             + [("ring", 12), ("lattice", 12)])
    def test_matches_per_signal_grouping(self, family, k):
        rng = np.random.default_rng(k + 100 * (family == "lattice"))
        noises = [IDEAL_NOISE, PAPER_EXP_NOISE, NoiseModel(visibility=0.97)]
        cases = 0
        for noise, m, kind in itertools.product(
                noises, (k, 7 * k + 3, 1000 if k <= 8 else 300),
                ("even", "consolidated", "random", "equal")):
            if kind in ("even", "consolidated"):
                x, y = worst_case_pair(m, rng.uniform(0.05, 0.45), k, kind)
            else:
                x = rng.integers(0, 2, m).astype(np.uint8)
                y = (x.copy() if kind == "equal"
                     else rng.integers(0, 2, m).astype(np.uint8))
            plan = TrialPlan(
                trials=300, master_seed=int(rng.integers(2**31)),
                protocol=ProtocolInstance(family=family, k=k,
                                          mu=rng.uniform(0.5, 40.0)),
                noise=noise, input_x=x, input_y=y)
            label = (noise, m, kind)
            (uniq, counts), (want_uniq, want_counts) = (
                montecarlo._click_profile(plan), _per_signal_profile(plan))
            assert uniq.dtype == want_uniq.dtype, label
            assert counts.dtype == want_counts.dtype, label
            assert np.array_equal(uniq, want_uniq), label
            assert np.array_equal(counts, want_counts), label
            d_th = 1 + cases % 3
            assert simulate_equality(plan, d_th) == _per_signal_simulation(
                plan, d_th), label
            cases += 1
        assert cases == 36
