"""Self-checks of the benchmark, run from the root of a checkout:

    python3 perfbench/selfcheck.py [--seed 7] [--seconds 2]

1. BENCHMARK.json lists exactly the workloads and metrics that run.py reports.
2. Exact repeat: two runs of each workload on the same seed, untraced and
   traced, give bit-identical counts and max_err.
3. Known counts: the traced counts equal those derived from the code's call
   structure.  A change that restructures these calls is expected to show a
   difference here; the benchmark then stays valid, this cross-check does not.

Prints every metric of every run with its unit, and exits 1 on a mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Names whose values are counts or deterministic results, not timings.
EXACT_SUFFIXES = (".calls", ".terms", "mode_steps", "gn_iters", "forward_solves",
                  "accept_ratio", "bytes_written", "max_err", "ok_frac")

# One l1_weights call per mode per node in each forward solve and in each
# Jacobian sensitivity pass; one caputo_order_sensitivity call per mode per
# node in each pass.  invert: N = 16, M = 256, 5 Gauss-Newton iterations,
# 11 forward solves (6 residuals + 5 inside jacobian) and 5 passes.
KNOWN_COUNTS = {
    "forward_fine": {
        "fracops.l1_weights.calls": 2 * 8192,
        "fracops.l1_weights.terms": 2 * 8192 * 8193 // 2,
        "forward.solve_forward.calls": 1,
    },
    "forward_csv": {
        "fracops.l1_weights.calls": 8 * 1024,
        "forward.solve_forward.calls": 1,
    },
    "invert": {
        "fracops.l1_weights.calls": 16 * 256 * (11 + 5),
        "fracops.caputo_order_sensitivity.calls": 16 * 256 * 5,
        "forward.solve_forward.calls": 11,
        "inverse.recover_order.gn_iters": 5,
        "inverse.recover_order.forward_solves": 11,
    },
}


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_manifest():
    sys.path.insert(0, str(BENCH_DIR))
    import run
    import tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"]: w["why"] for w in spec["workloads"]} != {
            n: w.why for n, w in WORKLOADS.items()}:
        problems.append("workloads differ from workloads.py")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != run.END_TO_END:
        problems.append("end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != tracer.PER_LAYER:
        problems.append("per_layer differs from tracer.PER_LAYER")
    return list(WORKLOADS), problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=2.0)
    args = p.parse_args(argv)

    workloads, problems = _check_manifest()
    for workload in workloads:
        for trace in (0, 1):
            first, second = (_run(workload, args.seed, args.seconds, trace) for _ in range(2))
            for result in (first, second):
                if not result["correct"]:
                    problems.append(f"{workload} trace {trace}: incorrect output")
            print(f"{workload} trace={trace} seed={args.seed}")
            for name, m in first["metrics"].items():
                again = second["metrics"][name]["value"]
                exact = name.endswith(EXACT_SUFFIXES)
                mark = ""
                if exact and again != m["value"]:
                    mark = f"  REPEAT DIFFERS: {again!r}"
                    problems.append(f"{workload} {name}: {m['value']!r} then {again!r}")
                known = KNOWN_COUNTS[workload].get(name) if trace else None
                if known is not None and m["value"] != known:
                    mark += f"  KNOWN COUNT {known}"
                    problems.append(f"{workload} {name}: {m['value']!r}, known {known}")
                print(f"  {name} = {m['value']!r} {m['unit']}{mark}")
    for line in problems:
        print("MISMATCH " + line)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
