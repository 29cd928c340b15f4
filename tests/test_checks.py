"""Each brute-force check must fail when one side of its comparison is
perturbed; otherwise a check could pass whatever it measures.  Where the
closed form is an inline expression (overlap, USC), the oracle side is
perturbed instead.  Counts pass below 1."""

import numpy as np
import pytest

from qfp import analysis, checks, codes, oracle


def _swap_two_labels(labels):
    labels = labels.copy()
    labels[[1, 2]] = labels[[2, 1]]
    return labels


def _usc_case(statistic, inputs):
    return pytest.param(
        lambda: checks.usc_deviation([0.2], [inputs]), 1e-10,
        oracle, "usc_outcome_probs",
        lambda probs: {**probs, statistic: probs[statistic] + 1e-6},
        id=f"usc-{statistic}-{inputs[0]}{inputs[1]}")


def _projector():
    return checks.projector_violations(np.random.default_rng(0), 10, (2, 3))


@pytest.mark.parametrize("measure,bound,module,name,perturb", [
    pytest.param(lambda: checks.overlap_deviation([(0.3 + 0.1j, -0.5j),
                                                   (1.0, 1.2)]), 1e-9,
                 oracle, "coherent_fock", lambda v: v * (1 + 1e-6),
                 id="overlap"),
    pytest.param(lambda: checks.interp_deviation((2,), (0.5,)), 1e-10,
                 analysis, "interp_nd_prob", lambda p: p + 1e-6, id="interp"),
    *[_usc_case(stat, inputs) for stat in ("inconclusive", "same", "different")
      for inputs in ((0, 0), (0, 1))],
    # above the projector's error; then c^2/(1+c^2), below c^2
    pytest.param(_projector, 1, analysis, "optimal_measurement_error_lb",
                 lambda lb: lb + 1e-6, id="projector-above-error"),
    pytest.param(_projector, 1, analysis, "optimal_measurement_error_lb",
                 lambda lb: lb / 2, id="projector-below-c2"),
    pytest.param(lambda: int(checks.ring_gray_break(range(2, 5)) is not None),
                 1, codes, "ring_gray", _swap_two_labels, id="ring-gray"),
    pytest.param(lambda: int(checks.ring_gray_break(range(2, 5)) is not None),
                 1, codes, "gray_position", _swap_two_labels,
                 id="gray-position"),
    pytest.param(lambda: checks.qary_violations((2,), 1e-4, 10), 1,
                 analysis, "binary_entropy", lambda h: h + 1e-3, id="qary"),
])
def test_check_fails_when_perturbed(monkeypatch, measure, bound, module, name,
                                    perturb):
    assert measure() < bound
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: perturb(original(*args)))
    assert measure() >= bound


def test_gray_suite_names_the_break(monkeypatch):
    monkeypatch.setattr(checks, "ring_gray_break", lambda ks: (3, 5))
    assert checks.SUITES["gray"]() == (
        False, "ring Gray code broken at k=3, pos=5")
