"""The benchmark's workloads: seeded inputs, the operations of one pass, and
the checks on every output.

Inputs are a pure function of the workload seed.  The program receives only
the generated inputs: curve grids are handed to ``qfp curves`` in place of
its fixed logarithmic grid, simulation parameters go in as command options
or trial plans.  README.md says why each workload exists.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from click.testing import CliRunner

import qfp.cli as cli
from qfp import analysis, constellations, leakage, montecarlo

WORKLOADS = ["noisy-curves", "ideal-curves", "montecarlo"]

EPSILON = 0.01           # target worst-case error of every curve (paper)
PAPER_EXP = dict(eta=0.3, p_dark=7.3e-11)  # Fig. 3 detector model (paper)
AMPLITUDE_RTOL = 1e-6    # attained error vs target epsilon
REFERENCE_RTOL = 1e-9    # curve cells vs the reference capture
Z_GATE = 4.0             # |z| gate of ``qfp simulate``
ED_SE_GATE = 5.0         # simulate_ed mean vs click-proxy expectation
ED_SE_RTOL = 0.1         # reported vs expected standard error
NOISE_FLOOR = 1e-12      # verify details below this are round-off

# Pass sizes.  Only a change that alters nothing else may tune them.
NOISY_STRATA = 3                 # n values per noisy-curves pass (x2 series)
# One fig3 n costs 3 s at 1e3 and 16 s at 1e8, unevenly in between, so a
# draw over whole slices would make pass time follow the seed.
NOISY_JITTER = 0.1
IDEAL_STRATA = 11                # n values per ideal-curves pass
LATTICE_KS = (2, 3)
EQ_NOISY_KS = (1, 2)
EQ_NOISY_M = (100_000, 125_000)  # signals of the paper-exp simulations
EQ_NOISY_TRIALS = 10_000
EQ_IDEAL_KS = (1, 2, 3)
EQ_IDEAL_M_PER_K = (500, 2_000)
EQ_IDEAL_TRIALS = 4_000
DELTA_RANGE = (0.15, 0.35)
ED_DIM = 128
ED_ALPHA2 = (0.25, 1.0)
ED_TRIALS = 6_000

REFERENCE_PATH = Path(__file__).with_name("reference.json")

FIG3_SERIES = [(1, "beamsplitter"), (2, "beamsplitter")]
FIG2_SERIES = ([(k, "beamsplitter") for k in (1, 2, 3)]
               + [(k, "optimal_lb") for k in (4, 5, 6)])


@dataclass
class Op:
    """One call into the program.  ``size`` is the number of operations it
    stands for (curve rows, verify suites); ``check`` returns one message
    per failed operation."""

    name: str
    size: int
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def tally(ops: list[Op], outputs: list) -> tuple[int, list[str]]:
    """Operations attempted, and one message per failed operation.  An
    output that is an exception fails every operation of its call."""
    attempted, failures = 0, []
    for op, out in zip(ops, outputs):
        attempted += op.size
        if isinstance(out, Exception):
            failures += [f"{op.name}: raised {out!r}"] * op.size
            continue
        try:
            failures += op.check(out)[:op.size]
        except Exception as exc:  # malformed output fails every operation
            failures += [f"{op.name}: check raised {exc!r}"] * op.size
    return attempted, failures


def stratified_log_n(rng: np.random.Generator, strata: int,
                     jitter: float) -> list[float]:
    """One n from each of ``strata`` equal slices of [1e3, 1e8] in log
    scale, log-uniform over the middle ``jitter`` share of its slice, so
    every seed spans the range at similar cost."""
    u = rng.random(strata)
    return [float(10.0 ** (3.0 + 5.0 * (i + 0.5 + jitter * (u[i] - 0.5))
                           / strata))
            for i in range(strata)]


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs of one workload, a pure function of the seed (JSON-able)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "noisy-curves":
        return {"n": stratified_log_n(rng, NOISY_STRATA, NOISY_JITTER)}
    if workload == "ideal-curves":
        return {"n": stratified_log_n(rng, IDEAL_STRATA, 1.0)}
    sims = []
    for k in EQ_NOISY_KS:
        sims.append({"k": k, "m": int(rng.integers(*EQ_NOISY_M)),
                     "noise": "paper-exp", "trials": EQ_NOISY_TRIALS})
    for k in EQ_IDEAL_KS:
        sims.append({"k": k, "m": k * int(rng.integers(*EQ_IDEAL_M_PER_K)),
                     "noise": "ideal", "trials": EQ_IDEAL_TRIALS})
    for sim in sims:
        sim["delta"] = float(rng.uniform(*DELTA_RANGE))
        sim["seed"] = int(rng.integers(2**31))
    eds = []
    for variant in ("real", "complex"):
        u, v = (x / np.linalg.norm(x) for x in rng.normal(size=(2, ED_DIM)))
        eds.append({"variant": variant, "u": u.tolist(), "v": v.tolist(),
                    "alpha2": float(rng.uniform(*ED_ALPHA2)),
                    "trials": ED_TRIALS, "seed": int(rng.integers(2**31))})
    return {"simulate": sims, "ed": eds}


def trials(inputs: dict) -> int:
    """Monte Carlo trials one pass runs."""
    runs = inputs.get("simulate", []) + inputs.get("ed", [])
    return sum(run["trials"] for run in runs)


def load_reference(workload: str, seed: int) -> dict:
    """Reference outputs captured for this seed, or {} when none were."""
    if not REFERENCE_PATH.exists():
        return {}
    ref = json.loads(REFERENCE_PATH.read_text())
    out = {}
    rows = ref.get("curves", {}).get(workload, {}).get(str(seed))
    if rows is not None:
        out["curves"] = rows
    if workload == "ideal-curves" and "verify" in ref:
        out["verify"] = ref["verify"]
    return out


# -- curves -----------------------------------------------------------------

@contextmanager
def _grid(ns: list[float]):
    """Hand ``qfp curves`` the seeded n values instead of its fixed grid."""
    original = cli.n_grid
    cli.n_grid = lambda points=None: np.array(ns)
    try:
        yield
    finally:
        cli.n_grid = original


def _invoke(args: list[str]):
    return CliRunner().invoke(cli.main, args)


def run_curves(preset: str, ns: list[float]) -> str:
    with _grid(ns):
        result = _invoke(["curves", "--preset", preset])
    if result.exit_code != 0:
        raise RuntimeError(f"qfp curves exited {result.exit_code}: "
                           f"{result.exception!r}")
    return result.output


def _sig9(x: float) -> str:
    return format(float(x), ".9g")


def _cells_match(got: str, want: str) -> bool:
    """Numeric cells agree within REFERENCE_RTOL of the underlying value.
    The CSV prints 9 significant digits, so such values may still differ by
    one unit in the last printed digit."""
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if not (math.isfinite(a) and math.isfinite(b)) or b == 0.0:
        return False
    unit = 10.0 ** (math.floor(math.log10(abs(b))) - 8)
    return abs(a - b) <= max(REFERENCE_RTOL * abs(b), unit * (1 + 1e-6))


def curve_row_error(row: dict, noise: analysis.NoiseModel) -> str | None:
    """Invariant checks on one ring curve row; None when it passes."""
    k = int(row["k"])
    if row["infeasible"]:
        return f"infeasible: {row['infeasible']}"
    bits = float(row["qil_bits"])
    if not (math.isfinite(bits) and bits >= 0.0):
        return f"bound {bits} not finite and >= 0"
    mu, delta, m_k = float(row["mu"]), float(row["delta_opt"]), float(row["m_k"])
    if row["error_model"] == "optimal_lb":
        err = analysis.ring_worst_case_error(k, mu, delta) ** 2
    elif noise.is_ideal:
        err = analysis.ring_worst_case_error(k, mu, delta)
    else:
        err = analysis.worst_case_error_with_threshold(
            k, int(round(m_k * k)), mu * noise.eta, delta,
            noise).worst_case_error
    if abs(err / EPSILON - 1.0) > AMPLITUDE_RTOL:
        return f"attained error {err!r} vs target {EPSILON}"
    return None


def _csv_rows(text: str) -> dict:
    return {(r["n"], int(r["k"]), r["error_model"]): r
            for r in csv.DictReader(io.StringIO(text))}


def _reference_mismatch(row: dict, want: dict | None) -> str | None:
    if want is None:
        return "row absent from the reference"
    bad = [f"{col}={row.get(col)} (want {val})" for col, val in want.items()
           if not _cells_match(row.get(col, ""), val)]
    return "differs from reference in " + ", ".join(bad) if bad else None


def check_curves(text: str, ns: list[float], series: list, noise,
                 reference: list[str] | None) -> list[str]:
    """One message per expected row that is missing or fails a check."""
    rows = _csv_rows(text)
    ref_rows = _csv_rows("\n".join(reference)) if reference else {}
    failures = []
    for n in ns:
        for k, model in series:
            key = (_sig9(n), k, model)
            row = rows.get(key)
            if row is None:
                failures.append(f"{key}: row missing")
                continue
            msg = curve_row_error(row, noise)
            if msg is None and reference:
                msg = _reference_mismatch(row, ref_rows.get(key))
            if msg is not None:
                failures.append(f"{key}: {msg}")
    return failures


def check_lattice(opt, k: int) -> list[str]:
    err = analysis.ring_worst_case_error(k, opt.mu, opt.delta)
    bits = opt.bound.bits
    if not (math.isfinite(bits) and bits >= 0.0):
        return [f"lattice k={k}: bound {bits} not finite and >= 0"]
    if abs(err / EPSILON - 1.0) > AMPLITUDE_RTOL:
        return [f"lattice k={k}: attained error {err!r} vs target {EPSILON}"]
    return []


# -- verify -----------------------------------------------------------------

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def run_verify() -> str:
    result = _invoke(["verify"])
    if result.exit_code not in (0, 1):
        raise RuntimeError(f"qfp verify exited {result.exit_code}: "
                           f"{result.exception!r}")
    return result.output


def _details_match(got: str, want: str) -> bool:
    """Equal text; numbers equal or both below the round-off floor."""
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        return False
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        if a != b and not (abs(float(a)) < NOISE_FLOOR
                           and abs(float(b)) < NOISE_FLOOR):
            return False
    return True


def check_verify(text: str, reference: dict | None) -> list[str]:
    report = json.loads(text)
    failures = [f"suite {name} failed: {res['detail']}"
                for name, res in sorted(report.items()) if not res["passed"]]
    if reference is not None:
        for name in sorted(set(report) | set(reference)):
            got, want = report.get(name), reference.get(name)
            if (got is None or want is None or got["passed"] != want["passed"]
                    or not _details_match(got["detail"], want["detail"])):
                failures.append(f"suite {name}: {got} differs from "
                                f"reference {want}")
    return failures


# -- Monte Carlo ------------------------------------------------------------

def run_simulate(sim: dict) -> dict:
    args = ["simulate", "--k", str(sim["k"]), "--m", str(sim["m"]),
            "--delta", repr(sim["delta"]), "--trials", str(sim["trials"]),
            "--seed", str(sim["seed"]), "--noise", sim["noise"]]
    result = _invoke(args)
    if result.exit_code not in (0, 1):
        raise RuntimeError(f"qfp simulate exited {result.exit_code}: "
                           f"{result.exception!r}")
    return json.loads(result.output)


def check_simulate(report: dict, sim: dict) -> list[str]:
    """The CLI's gate, recomputed: |z| <= 4 against the closed form."""
    trials, pred = report["trials"], report["predicted_error"]
    if trials != sim["trials"]:
        return [f"simulate {sim}: ran {trials} trials"]
    spread = math.sqrt(max(pred * (1.0 - pred), 1e-300) / trials)
    z = (report["empirical_error"] - pred) / spread
    if not abs(z) <= Z_GATE:
        return [f"simulate k={sim['k']} m={sim['m']} {sim['noise']}: "
                f"z = {z:.2f}"]
    return []


def _ed_plan(ed: dict):
    fam = "ed_real" if ed["variant"] == "real" else "ed_complex"
    u, v = np.array(ed["u"]), np.array(ed["v"])
    return montecarlo.TrialPlan(
        trials=ed["trials"], master_seed=ed["seed"],
        protocol=constellations.ProtocolInstance(
            family=fam, s=u.size, alpha=complex(math.sqrt(ed["alpha2"]))),
        noise=analysis.IDEAL_NOISE, input_x=u, input_y=v)


def ed_expectation(ed: dict) -> tuple[float, float]:
    """Mean and per-run standard deviation of the click-proxy estimator,
    2 - [sum(1 - e^-l_light) - sum(1 - e^-l_dark)] / |alpha|^2, computed
    here from the encoding's definition."""
    alpha2 = ed["alpha2"]
    u, v = np.array(ed["u"]), np.array(ed["v"])
    if ed["variant"] == "complex":
        u, v = (np.append(x, 0.0) if x.size % 2 else x for x in (u, v))
        u, v = (x[0::2] + 1j * x[1::2] for x in (u, v))
    lam_dark = 0.5 * alpha2 * np.abs(u - v) ** 2
    lam_light = 0.5 * alpha2 * np.abs(u + v) ** 2
    p_dark, p_light = -np.expm1(-lam_dark), -np.expm1(-lam_light)
    mean = 2.0 - (p_light.sum() - p_dark.sum()) / alpha2
    var = (np.sum(p_dark * (1 - p_dark)) + np.sum(p_light * (1 - p_light)))
    return float(mean), float(math.sqrt(var) / alpha2)


def check_ed(res, ed: dict) -> list[str]:
    mean, sd = ed_expectation(ed)
    se = sd / math.sqrt(ed["trials"])
    label = f"simulate_ed {ed['variant']}"
    if res.runs != ed["trials"]:
        return [f"{label}: ran {res.runs} trials"]
    if not abs(res.std_error / se - 1.0) <= ED_SE_RTOL:
        return [f"{label}: standard error {res.std_error} vs expected {se}"]
    z = (res.mean_estimate - mean) / se
    if not abs(z) <= ED_SE_GATE:
        return [f"{label}: mean {res.mean_estimate} is {z:.2f} SE from {mean}"]
    return []


# -- operation lists --------------------------------------------------------

def operations(workload: str, inputs: dict, reference: dict) -> list[Op]:
    """The operations of one pass, in order."""
    if workload == "noisy-curves":
        ns, noise = inputs["n"], analysis.NoiseModel(**PAPER_EXP)
        return [Op("curves fig3", len(ns) * len(FIG3_SERIES),
                   lambda: run_curves("fig3", ns),
                   lambda out: check_curves(out, ns, FIG3_SERIES, noise,
                                            reference.get("curves")))]
    if workload == "ideal-curves":
        ns = inputs["n"]
        ops = [Op("curves fig2", len(ns) * len(FIG2_SERIES),
                  lambda: run_curves("fig2", ns),
                  lambda out: check_curves(out, ns, FIG2_SERIES,
                                           analysis.IDEAL_NOISE,
                                           reference.get("curves")))]
        for n in ns:
            for k in LATTICE_KS:
                ops.append(Op(
                    f"lattice k={k} n={n:.6g}", 1,
                    lambda n=n, k=k: leakage.optimize_delta_for_qil(
                        "lattice", k, n, EPSILON),
                    lambda opt, k=k: check_lattice(opt, k)))
        ops.append(Op("verify", 6, run_verify,
                      lambda out: check_verify(out, reference.get("verify"))))
        return ops
    ops = [Op(f"simulate k={sim['k']} {sim['noise']}", 1,
              lambda sim=sim: run_simulate(sim),
              lambda out, sim=sim: check_simulate(out, sim))
           for sim in inputs["simulate"]]
    ops += [Op(f"simulate_ed {ed['variant']}", 1,
               lambda plan=_ed_plan(ed): montecarlo.simulate_ed(plan),
               lambda res, ed=ed: check_ed(res, ed))
            for ed in inputs["ed"]]
    return ops
