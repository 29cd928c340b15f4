"""Command-line surface: leakage curve generation, parameter solving,
Monte Carlo simulation, and the brute-force verification suites of
``qfp.checks``.

CSV output uses 9 significant digits and a fixed column schema, so files are
byte-stable for a fixed configuration.  JSON reports carry full precision.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys

import click
import numpy as np

from . import analysis, checks, codes, leakage, montecarlo, oracle
from .analysis import IDEAL_NOISE, PAPER_EXP_NOISE, InfeasibleError, NoiseModel
from .constellations import ProtocolInstance, lattice_mu_range

CSV_COLUMNS = ["n", "k", "family", "delta_opt", "mu", "m_k", "error_model",
               "qil_bits", "bound_method", "classical_ref_bits", "infeasible"]

NOISE_PRESETS = {
    "ideal": IDEAL_NOISE,
    "paper-exp": PAPER_EXP_NOISE,
}

# (k, error_model) series per figure preset; both at epsilon = 0.01 on a
# logarithmic n-grid over [1e3, 1e8]
CURVE_PRESETS = {
    "fig2": {
        "noise": "ideal",
        "epsilon": 0.01,
        "series": [(k, "beamsplitter") for k in (1, 2, 3)]
                  + [(k, "optimal_lb") for k in (4, 5, 6)],
    },
    "fig3": {
        "noise": "paper-exp",
        "epsilon": 0.01,
        "series": [(1, "beamsplitter"), (2, "beamsplitter")],
    },
}

_N_GRID_POINTS = 11

_POSITIVE = click.IntRange(min=1)
# smallest k each Gray-mapped family's constellation is defined for
_GRAY_K_MIN = {"ring": 1, "lattice": 2}
_SEED = click.IntRange(0, 2 ** 128 - 1)    # Philox keys are 128-bit
_NOISE = click.Choice(sorted(NOISE_PRESETS))

# config-only keys: noise-model fields overriding the preset's values
_NOISE_FIELDS = {
    "eta": click.FloatRange(0.0, 1.0, min_open=True),
    "p_dark": click.FloatRange(0.0, 1.0, max_open=True),
    "visibility": click.FloatRange(0.0, 1.0),
}


def _sig9(x: float) -> str:
    return format(float(x), ".9g")


def n_grid(points: int = _N_GRID_POINTS) -> np.ndarray:
    """Logarithmic input-size grid over [1e3, 1e8]."""
    return np.logspace(3.0, 8.0, points)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _merge(config: dict, config_only: dict, **flags) -> dict:
    """Flags override file values; None flags fall back to the file.  A file
    key must be a flag or config-only key (mapped to its click type) of the
    command, and its value must pass that type: all else is a usage error."""
    ctx = click.get_current_context()
    params = {param.name: param for param in ctx.command.params}
    for key, val in config.items():
        if key in config_only:
            try:
                config_only[key].convert(val, None, ctx)
            except click.BadParameter as exc:
                exc.param_hint = f"config key '{key}'"
                raise
        elif key not in flags:
            raise click.UsageError(f"unknown config key {key!r}; this command "
                                   f"reads {sorted([*flags, *config_only])}")
        elif flags[key] is None:
            params[key].type.convert(val, params[key], ctx)
    return {**config, **{key: val for key, val in flags.items()
                         if val is not None}}


def _noise_from(params: dict) -> NoiseModel:
    base = NOISE_PRESETS[params.get("noise", "ideal")]
    return NoiseModel(
        eta=params.get("eta", base.eta),
        p_dark=params.get("p_dark", base.p_dark),
        visibility=params.get("visibility", base.visibility),
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


@click.group()
def main() -> None:
    """Coherent-state fingerprinting toolkit."""


@main.command()
@click.option("--preset", type=click.Choice(sorted(CURVE_PRESETS)), default=None,
              help="Figure parameter regime.")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--n-points", type=click.IntRange(min=0), default=None,
              help=f"Grid size over [1e3, 1e8] (default {_N_GRID_POINTS}).")
@click.option("--out", type=click.Path(), default=None, help="CSV output path.")
def curves(preset, config_path, n_points, out) -> None:
    """Ring-family leakage-vs-input-size curves as CSV, one row per (n, k)."""
    params = _merge(_load_config(config_path), {
        **_NOISE_FIELDS, "noise": _NOISE,
        "epsilon": click.FloatRange(0.0, 1.0, min_open=True, max_open=True),
    }, preset=preset, n_points=n_points)
    preset = params.get("preset")
    if preset is None:
        raise click.UsageError("a --preset (or config 'preset') is required")
    spec = CURVE_PRESETS[preset]
    noise = _noise_from({"noise": spec["noise"], **params})
    epsilon = params.get("epsilon", spec["epsilon"])
    grid = n_grid(params.get("n_points", _N_GRID_POINTS))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for n in grid:
        ref = leakage.classical_reference(n)
        for k, error_model in spec["series"]:
            use_noise = IDEAL_NOISE if error_model == "optimal_lb" else noise
            try:
                opt = leakage.optimize_delta_for_qil(
                    "ring", k, float(n), epsilon, noise=use_noise,
                    measurement=error_model)
            except InfeasibleError as exc:
                writer.writerow([_sig9(n), k, "ring", "", "", "", error_model,
                                 "", "", _sig9(ref.bits), str(exc)])
                continue
            writer.writerow([
                _sig9(n), k, "ring", _sig9(opt.delta), _sig9(opt.mu),
                _sig9(opt.m_k), error_model, _sig9(opt.bound.bits),
                opt.bound.method, _sig9(ref.bits), "",
            ])
    _emit(buf.getvalue(), out)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--family", default=None)
@click.option("--k", type=_POSITIVE, default=None)
@click.option("--n", type=_POSITIVE, default=None, help="Input size in bits.")
@click.option("--delta", type=click.FloatRange(0.0, 0.5, max_open=True),
              default=None, help="Relative distance; the GV bound needs < 1/2.")
@click.option("--epsilon", type=click.FloatRange(0.0, 1.0, min_open=True),
              default=None)
@click.option("--noise", type=_NOISE, default=None, help="Noise preset name.")
@click.option("--out", type=click.Path(), default=None, help="JSON output path.")
def solve(config_path, family, k, n, delta, epsilon, noise, out) -> None:
    """Solve protocol parameters for a target error probability."""
    p = _merge(_load_config(config_path), _NOISE_FIELDS, family=family, k=k,
               n=n, delta=delta, epsilon=epsilon, noise=noise)
    fam = p.get("family", "ring")
    k = p.get("k", 1)
    n = p.get("n", 1000)
    delta = p.get("delta", 0.25)
    epsilon = p.get("epsilon", 0.01)
    nm = _noise_from(p)
    if fam == "interpolation" and epsilon >= 1.0:
        raise click.BadParameter("the interpolation family needs epsilon < 1",
                                 param_hint="'--epsilon'")
    if fam in _GRAY_K_MIN and not _GRAY_K_MIN[fam] <= k <= codes.MAX_GRAY_BITS:
        raise click.BadParameter(
            f"the {fam} family needs {_GRAY_K_MIN[fam]} <= k <= "
            f"{codes.MAX_GRAY_BITS}", param_hint="'--k'")

    report: dict = {"family": fam, "k": k, "n": n, "delta": delta,
                    "epsilon": epsilon,
                    "noise": {"eta": nm.eta, "p_dark": nm.p_dark,
                              "visibility": nm.visibility}}
    try:
        if fam == "interpolation":
            m = codes.gv_binary_length(n, delta)
            p_k = k / m
            r = analysis.solve_repetition(k, m, delta, p_k, epsilon)
            report.update(m=m, p_k=p_k, repetitions=r,
                          worst_case_error=analysis.interp_worst_case_error(
                              k, m, delta, p_k, r),
                          qil_bits=leakage.qil_interpolation(k, m, p_k, r).bits)
        elif fam in ("ring", "lattice"):
            m = codes.gv_binary_length(n, delta)
            mu = analysis.solve_amplitude(k, m, delta, epsilon, nm)
            m_k = m / k
            mu_det = mu * nm.eta
            beta_k = math.sqrt(mu / m_k)
            th = analysis.worst_case_error_with_threshold(k, m, mu_det, delta, nm)
            mu_range = lattice_mu_range(k, m, mu) if fam == "lattice" else (mu, mu)
            report.update(
                m=m, m_k=m_k, mu_launched=mu, mu_detected=mu_det,
                beta_k=beta_k, d_th=th.d_th,
                worst_case_error=th.worst_case_error,
                qil_majorization_bits=leakage.qil_ring(
                    k, m, beta_k).bits if fam == "ring" else None,
                qil_typical_subspace_bits=leakage.fannes_audenaert_bound(
                    n, m_k, *mu_range).bits,
            )
        else:
            raise click.UsageError(f"unsupported family {fam!r}")
    except InfeasibleError as exc:
        report["infeasible"] = str(exc)
        _emit(json.dumps(report, indent=2) + "\n", out)
        sys.exit(1)
    _emit(json.dumps(report, indent=2) + "\n", out)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--k", type=click.IntRange(1, codes.MAX_GRAY_BITS), default=None)
@click.option("--m", type=_POSITIVE, default=None)
@click.option("--delta", type=click.FloatRange(0.0, 1.0, min_open=True),
              default=None, help="Relative distance of the worst-case pair.")
@click.option("--mu", type=click.FloatRange(min=0.0), default=None)
@click.option("--trials", type=_POSITIVE, default=None)
@click.option("--seed", type=_SEED, default=None)
@click.option("--noise", type=_NOISE, default=None)
@click.option("--strategy", type=click.Choice(["even", "consolidated"]),
              default=None)
@click.option("--out", type=click.Path(), default=None)
def simulate(config_path, k, m, delta, mu, trials, seed, noise, strategy,
             out) -> None:
    """Monte Carlo worst-case-pair run versus the closed-form prediction."""
    p = _merge(_load_config(config_path), _NOISE_FIELDS, k=k, m=m,
               delta=delta, mu=mu, trials=trials, seed=seed, noise=noise,
               strategy=strategy)
    k = p.get("k", 1)
    m = p.get("m", 1000)
    delta = p.get("delta", 0.25)
    mu = p["mu"] if "mu" in p else analysis.solve_amplitude(
        k, m, delta, 0.01, _noise_from(p))
    trials = p.get("trials", 10000)
    seed = p.get("seed", 0)
    nm = _noise_from(p)
    x, y = codes.worst_case_pair(m, delta, k, p.get("strategy", "even"))
    plan = montecarlo.TrialPlan(
        trials=trials, master_seed=seed,
        protocol=ProtocolInstance(family="ring", k=k, m=m, mu=mu),
        noise=nm, input_x=x, input_y=y)
    th = analysis.worst_case_error_with_threshold(k, m, mu * nm.eta, delta, nm)
    res = montecarlo.simulate_equality(plan, th.d_th)
    predicted = th.worst_case_error
    spread = math.sqrt(max(predicted * (1.0 - predicted), 1e-300) / trials)
    z = (res.empirical_error - predicted) / spread
    report = {
        "k": k, "m": m, "delta": delta, "mu": mu, "trials": trials,
        "seed": seed, "d_th": res.d_th,
        "empirical_error": res.empirical_error,
        "confidence_interval": list(res.confidence_interval),
        "predicted_error": predicted, "z_score": z,
    }
    _emit(json.dumps(report, indent=2) + "\n", out)
    if abs(z) > 4.0:
        sys.exit(1)


@main.command()
@click.option("--suite", type=click.Choice(sorted(checks.SUITES)), default=None,
              help="Run a single suite instead of all of them.")
@click.option("--out", type=click.Path(), default=None)
def verify(suite, out) -> None:
    """Brute-force verification suites; nonzero exit on any failure."""
    names = [suite] if suite else sorted(checks.SUITES)
    results = {}
    failed = False
    for name in names:
        ok, detail = checks.SUITES[name]()
        results[name] = {"passed": ok, "detail": detail}
        failed |= not ok
    _emit(json.dumps(results, indent=2) + "\n", out)
    if failed:
        sys.exit(1)


@main.command()
@click.option("--p", "p_exc", type=click.FloatRange(0.0, 1.0), required=True,
              help="Qubit excitation parameter; <q0|q1> = 1 - 2p.")
@click.option("--out", type=click.Path(), default=None)
def usc(p_exc, out) -> None:
    """Unambiguous state comparison outcome probabilities."""
    report = {
        "excitation": p_exc,
        "overlap": 1.0 - 2.0 * p_exc,
        "same_inputs": oracle.usc_outcome_probs(0, 0, p_exc),
        "different_inputs": oracle.usc_outcome_probs(0, 1, p_exc),
    }
    _emit(json.dumps(report, indent=2) + "\n", out)


@main.command("ed-estimate")
@click.option("--dimension", type=_POSITIVE, default=64)
@click.option("--alpha2", type=click.FloatRange(min=0.0, min_open=True),
              default=0.5,
              help="Total mean photon number per run; keep <= 1 so threshold "
                   "clicks track photon counts.")
@click.option("--trials", type=click.IntRange(min=2), default=10000,
              help="Runs; the standard error needs at least two.")
@click.option("--seed", type=_SEED, default=0)
@click.option("--variant", type=click.Choice(["real", "complex"]),
              default="real")
@click.option("--out", type=click.Path(), default=None)
def ed_estimate_cmd(dimension, alpha2, trials, seed, variant, out) -> None:
    """Simulated squared-distance estimation on a random unit-vector pair."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=dimension)
    v = rng.normal(size=dimension)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    fam = "ed_real" if variant == "real" else "ed_complex"
    plan = montecarlo.TrialPlan(
        trials=trials, master_seed=seed,
        protocol=ProtocolInstance(family=fam, s=dimension,
                                  alpha=complex(math.sqrt(alpha2))),
        noise=IDEAL_NOISE, input_x=u, input_y=v)
    res = montecarlo.simulate_ed(plan)
    report = {
        "dimension": dimension, "alpha2": alpha2, "trials": trials,
        "seed": seed, "variant": variant,
        "true_squared_distance": float(np.sum((u - v) ** 2)),
        "mean_estimate": res.mean_estimate,
        "std_error": res.std_error,
    }
    _emit(json.dumps(report, indent=2) + "\n", out)


if __name__ == "__main__":
    main()
