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
from dataclasses import asdict, replace

import click
import numpy as np

from . import analysis, checks, codes, leakage, montecarlo, oracle
from .analysis import IDEAL_NOISE, PAPER_EXP_NOISE, InfeasibleError, NoiseModel
from .constellations import ProtocolInstance

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


class _FiniteFloat(click.FloatRange):
    """A click.FloatRange that also rejects nan, which passes every range
    comparison, and +-inf, which passes an unbounded side."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{rv} is not a finite number.", param, ctx)
        return rv


_POSITIVE = click.IntRange(min=1)
_SEED = click.IntRange(0, 2 ** 128 - 1)    # Philox keys are 128-bit
_OUT = click.Path(dir_okay=False)


def _sig9(x: float) -> str:
    return format(float(x), ".9g")


def n_grid(points: int = _N_GRID_POINTS) -> np.ndarray:
    """Logarithmic input-size grid over [1e3, 1e8]."""
    return np.logspace(3.0, 8.0, points)


def _read_config(ctx: click.Context, param: click.Parameter,
                 path: str | None) -> None:
    """Make the --config file's JSON object the command's defaults, keyed by
    option name.  Numbers keep their JSON text, so click converts and checks
    each value as it would the same text given to its flag; flags still
    win."""
    if path is None:
        return
    try:
        with open(path) as fh:
            config = json.load(fh, parse_int=str, parse_float=str)
    except ValueError as exc:  # malformed JSON or text encoding
        raise click.BadParameter(str(exc), ctx, param) from None
    if not isinstance(config, dict):
        raise click.BadParameter("holds no JSON object", ctx, param)
    keys = sorted(p.name for p in ctx.command.params
                  if p.name not in ("config", "out"))
    for key, val in config.items():
        if key not in keys:
            raise click.UsageError(f"unknown config key {key!r}; this command "
                                   f"reads {keys}", ctx)
        if not isinstance(val, str):
            raise click.BadParameter(
                "expected one string or number, not null, true, false, a "
                "list or an object", ctx, param_hint=f"config key '{key}'")
    ctx.default_map = config


_SHARED_OPTIONS = [
    click.option("--config", type=click.Path(exists=True, dir_okay=False),
                 is_eager=True, expose_value=False, callback=_read_config,
                 help="JSON object of defaults for this command's options, "
                      "keyed by option name."),
    click.option("--noise", type=click.Choice(sorted(NOISE_PRESETS)),
                 default=None, show_default="ideal, or the figure's in curves",
                 help="Noise preset; --eta, --p-dark and --visibility "
                      "override its fields."),
    click.option("--eta", type=_FiniteFloat(0.0, 1.0, min_open=True),
                 default=None, help="Transmittivity."),
    click.option("--p-dark", type=_FiniteFloat(0.0, 1.0, max_open=True),
                 default=None, help="Dark-count probability per signal."),
    click.option("--visibility", type=_FiniteFloat(0.0, 1.0),
                 default=None, help="Interferometric visibility."),
]


def _shared_options(command):
    """--config and the noise-model options of curves, solve and simulate."""
    for option in reversed(_SHARED_OPTIONS):
        command = option(command)
    return command


def _noise_from(preset: str, eta, p_dark, visibility) -> NoiseModel:
    """The named noise preset with each field that is not None replaced."""
    fields = {"eta": eta, "p_dark": p_dark, "visibility": visibility}
    return replace(NOISE_PRESETS[preset],
                   **{key: val for key, val in fields.items() if val is not None})


def _reject_noise(message: str, noise, eta, p_dark, visibility) -> None:
    """Usage error naming the first noise option given (--noise ideal aside),
    for an error model that would report the noise but not apply it."""
    for opt, val in (("--noise", None if noise == "ideal" else noise),
                     ("--eta", eta), ("--p-dark", p_dark),
                     ("--visibility", visibility)):
        if val is not None:
            raise click.BadParameter(message, param_hint=f"'{opt}'")


def _reject_equal_pair(m: int, delta: float) -> None:
    """Usage error where no bit of an m-bit pair at relative distance delta
    would differ."""
    if round(m * delta) == 0:
        raise click.BadParameter(f"round(m * delta) = 0 at m = {m}: the pair "
                                 f"would be equal", param_hint="'--delta'")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.FileError(out, exc.strerror) from None


@click.group(context_settings={"show_default": True})
def main() -> None:
    """Coherent-state fingerprinting toolkit."""


@main.command()
@click.option("--preset", type=click.Choice(sorted(CURVE_PRESETS)),
              required=True, help="Figure parameter regime.")
@click.option("--epsilon",
              type=_FiniteFloat(0.0, 1.0, min_open=True, max_open=True),
              default=None, show_default="the figure's",
              help="Target worst-case error.")
@click.option("--n-points", type=click.IntRange(min=0), default=_N_GRID_POINTS,
              help="Grid size over [1e3, 1e8].")
@click.option("--out", type=_OUT, default=None, help="CSV output path.")
@_shared_options
def curves(preset, epsilon, n_points, out, noise, eta, p_dark,
           visibility) -> None:
    """Ring-family leakage-vs-input-size curves as CSV, one row per (n, k)."""
    spec = CURVE_PRESETS[preset]
    nm = _noise_from(noise or spec["noise"], eta, p_dark, visibility)
    if not nm.is_ideal and "optimal_lb" in dict(spec["series"]).values():
        _reject_noise(f"the {preset} preset's optimal_lb series is modelled "
                      f"without noise", noise, eta, p_dark, visibility)
    if epsilon is None:
        epsilon = spec["epsilon"]
    grid = n_grid(n_points)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for n in grid:
        ref = leakage.classical_reference(n)
        for k, error_model in spec["series"]:
            try:
                opt = leakage.optimize_delta_for_qil(
                    "ring", k, float(n), epsilon, noise=nm,
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
@click.option("--family", type=click.Choice(sorted(leakage.FAMILIES)),
              default="ring")
@click.option("--k", type=_POSITIVE, default=1)
@click.option("--n", type=_POSITIVE, default=1000, help="Input size in bits.")
@click.option("--delta", type=_FiniteFloat(0.0, 0.5, max_open=True),
              default=0.25, help="Relative distance; the GV bound needs < 1/2.")
@click.option("--epsilon", type=_FiniteFloat(0.0, 1.0, min_open=True),
              default=0.01)
@click.option("--out", type=_OUT, default=None, help="JSON output path.")
@_shared_options
def solve(family, k, n, delta, epsilon, out, noise, eta, p_dark,
          visibility) -> None:
    """Solve protocol parameters for a target error probability."""
    nm = _noise_from(noise or "ideal", eta, p_dark, visibility)
    m = codes.gv_binary_length(n, delta)
    _reject_equal_pair(m, delta)
    fam = leakage.FAMILIES[family]
    if fam.bound is None:
        if epsilon >= 1.0:
            raise click.BadParameter(f"the {family} family needs epsilon < 1",
                                     param_hint="'--epsilon'")
        _reject_noise(f"the {family} family is modelled without noise",
                      noise, eta, p_dark, visibility)
    k_max = min(fam.k_max or m, m)
    if not fam.k_min <= k <= k_max:
        cap = " (k <= m, the codeword length)" if k_max == m else ""
        raise click.BadParameter(f"the {family} family needs {fam.k_min} <= k "
                                 f"<= {k_max}{cap}", param_hint="'--k'")

    report: dict = {"family": family, "k": k, "n": n, "delta": delta,
                    "epsilon": epsilon, "noise": asdict(nm)}
    try:
        report |= leakage.solve_report(family, n, k, m, delta, epsilon, nm)
    except InfeasibleError as exc:
        report["infeasible"] = str(exc)
        _emit(json.dumps(report, indent=2) + "\n", out)
        sys.exit(1)
    _emit(json.dumps(report, indent=2) + "\n", out)


@main.command()
@click.option("--k", type=click.IntRange(1, codes.MAX_GRAY_BITS), default=1)
@click.option("--m", type=_POSITIVE, default=1000)
@click.option("--delta", type=_FiniteFloat(0.0, 1.0, min_open=True),
              default=0.25, help="Relative distance of the worst-case pair.")
@click.option("--mu", type=_FiniteFloat(min=0.0), default=None,
              show_default="solved for error 0.01",
              help="Launched mean photon number.")
@click.option("--trials", type=_POSITIVE, default=10000)
@click.option("--seed", type=_SEED, default=0)
@click.option("--out", type=_OUT, default=None)
@_shared_options
def simulate(k, m, delta, mu, trials, seed, out, noise, eta, p_dark,
             visibility) -> None:
    """Monte Carlo worst-case-pair run versus the closed-form prediction."""
    nm = _noise_from(noise or "ideal", eta, p_dark, visibility)
    if k > m:
        raise click.BadParameter(f"needs k <= m, the codeword length ({m})",
                                 param_hint="'--k'")
    _reject_equal_pair(m, delta)
    x, y = codes.worst_case_pair(m, delta, k)
    if mu is None:
        try:
            mu = analysis.solve_amplitude(k, m, delta, 0.01, nm)
        except InfeasibleError as exc:
            raise click.ClickException(str(exc)) from None
    plan = montecarlo.TrialPlan(
        trials=trials, master_seed=seed,
        protocol=ProtocolInstance(family="ring", k=k, mu=mu),
        noise=nm, input_x=x, input_y=y)
    th = analysis.worst_case_error_with_threshold(k, m, mu * nm.eta, delta, nm)
    res = montecarlo.simulate_equality(plan, th.d_th)
    predicted = th.worst_case_error
    spread = math.sqrt(max(predicted * (1.0 - predicted), 1e-300) / trials)
    z = (res.empirical_error - predicted) / spread
    report = {
        "k": k, "m": m, "delta": delta, "mu": mu, "trials": trials,
        "seed": seed, "d_th": th.d_th,
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
@click.option("--out", type=_OUT, default=None)
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
@click.option("--p", "p_exc", type=_FiniteFloat(0.0, 1.0), required=True,
              help="Qubit excitation parameter; <q0|q1> = 1 - 2p.")
@click.option("--out", type=_OUT, default=None)
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
@click.option("--alpha2", type=_FiniteFloat(min=0.0, min_open=True),
              default=0.5,
              help="Total mean photon number per run; keep <= 1 so threshold "
                   "clicks track photon counts.")
@click.option("--trials", type=click.IntRange(min=2), default=10000,
              help="Runs; the standard error needs at least two.")
@click.option("--seed", type=_SEED, default=0)
@click.option("--variant", type=click.Choice(["real", "complex"]),
              default="real")
@click.option("--out", type=_OUT, default=None)
def ed_estimate_cmd(dimension, alpha2, trials, seed, variant, out) -> None:
    """Simulated squared-distance estimation on a random unit-vector pair."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=dimension)
    v = rng.normal(size=dimension)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    plan = montecarlo.TrialPlan(
        trials=trials, master_seed=seed,
        protocol=ProtocolInstance(family=f"ed_{variant}", s=dimension,
                                  alpha=complex(math.sqrt(alpha2))),
        noise=IDEAL_NOISE, input_x=u, input_y=v)
    res = montecarlo.simulate_ed(plan)
    report = {
        "dimension": dimension, "alpha2": alpha2, "trials": trials,
        "seed": seed, "variant": variant,
        "true_squared_distance": float(np.sum((u - v) ** 2)),
        "mean_estimate": res.mean_estimate,
        "std_error": res.std_error,
        "predicted_mean": res.predicted_mean,
        "predicted_std_error": res.predicted_std_error,
    }
    _emit(json.dumps(report, indent=2) + "\n", out)


if __name__ == "__main__":
    main()
