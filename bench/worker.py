"""One pass of one workload in a fresh interpreter.

Usage: python3 bench/worker.py WORKLOAD SEED MODE [SPANS_FILE]

MODE is ``setup`` (import and generate inputs, run nothing), ``pass`` or
``traced`` (the pass under span tracing; spans go to SPANS_FILE).  The last
line of standard output is a JSON object with ``ready``, the
``time.perf_counter()`` reading just before the first operation (the
parent's clock is the same system-wide monotonic clock), and for a pass its
wall and CPU seconds, peak RSS, operation counts and failure messages.
"""

import json
import platform
import resource
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import qfp.cli  # noqa: E402,F401  -- what the ``qfp`` command imports
import workloads  # noqa: E402


def versions() -> dict:
    """Versions of the interpreter and the libraries qfp runs on."""
    import numpy
    out = {"python": platform.python_version()}
    for dist in ("numpy", "scipy", "click"):
        out[dist] = metadata.version(dist)
    out["openblas"] = numpy.__config__.CONFIG["Build Dependencies"][
        "blas"].get("openblas configuration")
    return out


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    inputs = workloads.make_inputs(workload, seed)
    ops = workloads.operations(workload, inputs,
                               workloads.load_reference(workload, seed))
    ready = time.perf_counter()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    outputs = []
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for op in ops:
            try:
                outputs.append(op.run())
            except Exception as exc:  # a failed operation, counted below
                outputs.append(exc)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if tracer is not None:
            tracer.restore()

    attempted, failures = workloads.tally(ops, outputs)
    result = {"ready": ready, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": peak_kb / 1024.0, "attempted": attempted,
              "trials": workloads.trials(inputs), "versions": versions(),
              "failures": failures}
    if tracer is not None:
        result["spans"] = tracer.table()
        tracer.save(argv[3], workload=workload, seed=seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
