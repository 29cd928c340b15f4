"""Capture the reference outputs the benchmark compares against.

Usage, from the root of the repository:

    python3 bench/capture_reference.py FIRST_SEED LAST_SEED

For every seed in the range it records the ring curve CSV of the
noisy-curves (fig3) and ideal-curves (fig2) workloads, and once the
``qfp verify`` report, into bench/reference.json.  Lattice values and Monte
Carlo streams are left out on purpose: later work changes them, and the
benchmark checks their invariants instead.  Recapture only at a commit
whose curve output is meant to be the new reference.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

PRESETS = {"noisy-curves": "fig3", "ideal-curves": "fig2"}


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    curves = {}
    for workload, preset in PRESETS.items():
        curves[workload] = {}
        for seed in range(first, last + 1):
            ns = workloads.make_inputs(workload, seed)["n"]
            text = workloads.run_curves(preset, ns)
            curves[workload][str(seed)] = text.strip().splitlines()
            print(f"{workload} seed {seed}: {len(ns)} n values", flush=True)
    reference = {"seeds": [first, last], "curves": curves,
                 "verify": json.loads(workloads.run_verify())}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
