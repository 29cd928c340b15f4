"""Layered benchmark of the qfp toolkit.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {noisy-curves,ideal-curves,montecarlo}
                         --seed N --seconds S --trace {0,1}

Every pass runs in a fresh interpreter (bench/worker.py), as a user runs
``qfp curves`` or ``qfp simulate`` once per process, so no cache outlives a
pass.  Passes start one after another until S seconds have gone.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates plain and traced passes and reports the per-layer metrics.  Human
readable lines come first; the last line of standard output is the JSON
result.  A full record, with provenance, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ["noisy-curves", "ideal-curves", "montecarlo"]
MIN_SETUP_SAMPLES = 5      # fresh interpreters timed per run for setup_s
RUN_DEADLINE_S = 170.0     # a run must end within 180 s
IMPORT_MODULES = ["qfp.analysis", "qfp.leakage", "qfp.oracle",
                  "qfp.montecarlo", "qfp.cli", "scipy.stats",
                  "scipy.optimize", "scipy.linalg"]

# per-layer metrics read straight from the span table
LAYER_CALLS_AND_SELF = [
    "analysis.log_binom_sf", "analysis.log_binom_cdf",
    "analysis.optimal_threshold", "analysis.solve_amplitude",
    "leakage.optimize_delta_for_qil", "leakage.fannes_audenaert_bound",
    "constellations.lattice_mu_range", "leakage.lambda_ring",
    "codes.gv_binary_rate", "montecarlo.derive_trial_rng",
    "analysis.ed_estimate"]
LAYER_CALLS = ["analysis.worst_case_error_with_threshold",
               "analysis.no_click_prob"]
LAYER_SELF = [
    "leakage.qil_ring", "leakage.shannon_entropy", "codes.worst_case_pair",
    "constellations.encode_ring", "montecarlo.simulate_equality",
    "montecarlo.simulate_ed", "montecarlo.signal_click_probs"]


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def run_worker(workload: str, seed: int, mode: str, deadline: float,
               spans: Path | None = None) -> tuple[float, dict]:
    """Start one worker; return (spawn time, its JSON result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode]
    if spans is not None:
        cmd.append(str(spans))
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def import_times(deadline: float) -> dict[str, float]:
    """Cumulative import seconds in a fresh interpreter; 0 for a module the
    import graph no longer contains."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "import_probe.py")], cwd=ROOT,
        capture_output=True, text=True,
        timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise BenchError(f"import probe failed:\n{proc.stderr[-4000:]}")
    found = json.loads(proc.stdout.strip().splitlines()[-1])
    return {mod: found.get(mod, 0.0) for mod in IMPORT_MODULES}


def layer_metrics(table: dict, trials: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass."""
    def get(name, field):
        return table.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in LAYER_CALLS_AND_SELF:
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = (get(name, "calls"), "count")
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    tails = ("analysis.log_binom_sf", "analysis.log_binom_cdf")
    tail_calls = sum(get(n, "calls") for n in tails)
    out["analysis.tail_us"] = (
        1e6 * ratio(sum(get(n, "self_s") for n in tails), tail_calls), "us")
    out["analysis.tail_calls_per_threshold"] = (
        ratio(tail_calls, get("analysis.optimal_threshold", "calls")), "ratio")
    evals = get("leakage._coherent_family_qil", "calls")
    infeasible = table.get("leakage._coherent_family_qil", {}).get(
        "errors", {}).get("InfeasibleError", 0)
    out["leakage.evals_per_optimize"] = (
        ratio(evals, get("leakage.optimize_delta_for_qil", "calls")), "ratio")
    out["leakage.infeasible_share"] = (ratio(infeasible, evals), "ratio")
    mc_total = sum(get(n, "total_s") for n in ("montecarlo.simulate_equality",
                                                "montecarlo.simulate_ed"))
    out["montecarlo.trials"] = (trials, "count")
    out["montecarlo.us_per_trial"] = (1e6 * ratio(mc_total, trials), "us")
    for layer in ("oracle", "cli"):
        rows = [row for name, row in table.items()
                if name.startswith(layer + ".")]
        if layer == "oracle":
            out["oracle.calls"] = (sum(r["calls"] for r in rows), "count")
        out[f"{layer}.self_s"] = (sum(r["self_s"] for r in rows), "s")
    return out


def provenance(workload: str, seed: int, passes: dict,
               versions: dict) -> dict:
    """Machine, library versions, source identity and run shape."""
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), **versions,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "workload": workload, "seed": seed, "passes": passes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qfp" / "__init__.py").is_file():
        print(f"bench: no qfp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.npz"

    plain, traced, setup = [], [], []
    began = last = time.perf_counter()
    try:
        # start a pass only if one as long as the last still fits
        while (not plain or (args.trace and not traced)
               or 2 * time.perf_counter() - last <= began + args.seconds):
            mode = ("traced" if args.trace and len(traced) < len(plain)
                    else "pass")
            spawned, res = run_worker(args.workload, args.seed, mode,
                                      deadline, spans_path)
            last = spawned
            setup.append(res["ready"] - spawned)
            (traced if mode == "traced" else plain).append(res)
        if not args.trace:
            while len(setup) < MIN_SETUP_SAMPLES:
                spawned, res = run_worker(args.workload, args.seed, "setup",
                                          deadline)
                setup.append(res["ready"] - spawned)
        imports = import_times(deadline) if args.trace else {}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    results = plain + traced
    attempted = sum(r["attempted"] for r in results)
    failures = [msg for r in results for msg in r["failures"]]
    wall = summary([r["wall_s"] for r in plain])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "attempted": attempted, "failed": len(failures),
              "error_rate": len(failures) / attempted if attempted else 1.0,
              "failures": failures[:50],
              "wall_s": wall,
              "cpu_s": summary([r["cpu_s"] for r in plain]),
              "peak_rss_mb": summary([r["peak_rss_mb"] for r in plain]),
              "setup_s": summary(setup)}
    if args.trace:
        layers = [layer_metrics(r["spans"], r["trials"]) for r in traced]
        metrics = {name: (statistics.median(p[name][0] for p in layers)
                          if unit != "count" else value, unit)
                   for name, (value, unit) in layers[0].items()}
        for mod, secs in imports.items():
            metrics[f"setup.import.{mod}_s"] = (secs, "s")
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace_overhead"] = (traced_wall / wall["median"] - 1.0,
                                     "ratio")
        record["calls_repeat"] = all(
            {n: v for n, (v, u) in p.items() if u == "count"}
            == {n: v for n, (v, u) in layers[0].items() if u == "count"}
            for p in layers)
        record["spans"] = traced[0]["spans"]
    else:
        metrics = {name: (record[name]["median"], unit) for name, unit in
                   (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
                    ("peak_rss_mb", "MiB"))}
    record["metrics"] = {n: {"value": v, "unit": u}
                         for n, (v, u) in metrics.items()}
    record["provenance"] = provenance(
        args.workload, args.seed,
        {"plain": len(plain), "traced": len(traced), "setup": len(setup)},
        plain[0]["versions"])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        spread = ""
        if name in record and isinstance(record[name], dict):
            s = record[name]
            spread = f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})"
        print(f"{name:48s} {value:.6g} {unit}{spread}")
    print(f"{'error_rate':48s} {record['error_rate']:.6g} ratio  "
          f"({len(failures)} of {attempted} operations)")
    for msg in failures[:10]:
        print(f"FAILED {msg}")
    if not record.get("calls_repeat", True):
        print("WARNING call counts differ between traced passes")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
