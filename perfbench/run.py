"""Benchmark of the vordiff CLI: one client, closed loop, one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one ``vordiff.cli.main([...])`` call in this process, on a config
the benchmark writes; the next op starts when the previous one ends.  After
every op the output is checked against the workload's reference.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric with its
unit, the run's environment and per-workload details.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
The op time it reports is the 85th percentile of the run's op times; the
median and the tail (see ``_tail``) are printed with their sample count in
the detail line.  On a shared host whose speed swings between contention
levels within seconds, the median of a short run follows how long each
level lasted, while the upper percentiles sit on the contended level and
repeat from run to run.
``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics of the traced ones (see tracer.py), plus the tracing overhead as
traced over untraced median op time.  Spans are written to
``.bench_work/spans/<workload>-seed<N>.npz``.

The run fails, printing no result, when the checkout has no ``src/vordiff``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
SETUP_PROBES = 4  # fresh processes that repeat the set-up for setup_s
# One BLAS thread fixes the reduction order, so counts and max_err repeat exactly.
BLAS_THREADS = "OPENBLAS_NUM_THREADS"

OP_QUANTILE = 0.85  # percentile of op times reported as op_s_p85
END_TO_END = [
    ("op_s_p85", "s"),
    ("ok_frac", "ratio"),
    ("max_err", "1"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: repeat only the set-up in a fresh process and print its time.
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_vordiff():
    src = ROOT / "src"
    if not (src / "vordiff" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no vordiff sources under {src}")
    sys.path.insert(0, str(src))
    import vordiff.cli
    from vordiff.config import RunConfig

    if Path(vordiff.__file__).resolve().parent != src / "vordiff":
        raise SystemExit(f"perfbench: imported vordiff from {vordiff.__file__}, not {src}")
    return vordiff.cli, RunConfig


def _openblas_threads(np):
    """Thread count OpenBLAS reports, read from numpy's bundled library."""
    import ctypes

    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def _cache_sizes():
    sizes = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True,
                                 timeout=10, check=True).stdout.strip()
            sizes[level.lower()] = int(out)
        except (OSError, subprocess.SubprocessError, ValueError):
            sizes[level.lower()] = None
    return sizes


def _environment(np):
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        BLAS_THREADS: os.environ.get(BLAS_THREADS),
        "openblas_threads": _openblas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **_cache_sizes(),
    }


def _setup(workload_cls, seed, work_dir, make_tracer=None):
    """Import vordiff and set the workload up, traced when given a tracer class.

    Returns (workload, cli module, set-up seconds, tracer or None).
    """
    t0 = time.perf_counter()
    cli, run_config = _import_vordiff()
    tracer = make_tracer() if make_tracer is not None else None
    if tracer is not None:
        tracer.install()
    workload = workload_cls(seed, str(work_dir))
    workload.setup(cli, run_config)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    return workload, cli, elapsed, tracer


def _probe_setup(args):
    """Extra set-up times, each measured in a fresh interpreter."""
    samples = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--setup-only", str(WORK_DIR / f"{args.workload}-{os.getpid()}-probe{i}")]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _tail(times):
    """Highest order statistic with ten samples above it, its percentile, n.

    Runs with fewer than 21 ops cannot place ten samples above any
    percentile at or beyond the median; they report the median.
    """
    s = sorted(times)
    n = len(s)
    if n < 21:
        return statistics.median(s), 50.0
    return s[n - 11], 100.0 * (n - 11) / (n - 1)


def _run_ops(workload, cli, seconds, tracer=None):
    """Closed loop of ops for `seconds`; with a tracer, odd ops are traced."""
    records = []  # (seconds, error or None, traced)
    min_ops = 1 if tracer is None else 2
    t_start = time.perf_counter()
    while True:
        i = len(records)
        if i >= min_ops and time.perf_counter() - t_start >= seconds:
            break
        traced = tracer is not None and i % 2 == 1
        argv = workload.op_args()
        if traced:
            tracer.begin(i)
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crashing op is a failed op, not a failed run
            traceback.print_exc()
            rc = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        err = None
        if rc == 0:
            try:
                err = workload.check()
            except Exception as exc:  # missing or malformed output fails the op
                print(f"# op {i} failed its check: {type(exc).__name__}: {exc}")
        else:
            print(f"# op {i} failed: exit {rc}")
        records.append((dt, err, traced))
    return records, time.perf_counter() - t_start


def _print_metrics(metrics):
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")


def main(argv=None):
    args = _parse_args(argv)
    os.environ[BLAS_THREADS] = "1"
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np

    import tracer as tracer_mod
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]

    if args.setup_only:
        try:
            _, _, setup_s, _ = _setup(workload_cls, args.seed, args.setup_only)
        finally:
            shutil.rmtree(args.setup_only, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        workload, cli, setup_s, tracer = _setup(
            workload_cls, args.seed, run_dir,
            tracer_mod.Tracer if args.trace else None)
        setup_samples = [setup_s] if args.trace else [setup_s] + _probe_setup(args)
        records, run_s = _run_ops(workload, cli, args.seconds, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(records)
    errors = [e for _, e, _ in records]
    failed = sum(e is None for e in errors)
    # A failed op counts as slower than any op of the run.
    times = [dt if e is not None else run_s for dt, e, _ in records]
    untraced = [t for t, (_, _, tr) in zip(times, records) if not tr]
    traced = [t for t, (_, _, tr) in zip(times, records) if tr]
    tail, tail_pct = _tail(untraced)
    good = [e for e in errors if e is not None]
    detail = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "ops": attempted,
        "op_s": [round(t, 4) for t in times],
        "op_s_p50": statistics.median(untraced),
        "op_s_tail": tail,
        "op_s_tail_percentile": tail_pct,
        "op_s_tail_samples": len(untraced),
        "setup_s_samples": setup_samples,
        "per_op_error": sorted(set(good)),
        **workload.extra,
    }

    if args.trace:
        ops = [i for i, (_, _, tr) in enumerate(records) if tr]
        layer = tracer.summary(ops)
        layer["bench.trace_overhead"] = statistics.median(traced) / statistics.median(untraced)
        metrics = {name: {"value": float(layer.get(name, 0.0)), "unit": unit}
                   for name, unit, _better in tracer_mod.PER_LAYER}
        detail["traced_ops"] = len(ops)
        detail["bindings"] = dict(tracer.binding_counts())
        spans = WORK_DIR / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.save(spans / f"{args.workload}-seed{args.seed}.npz")
    else:
        values = {
            "op_s_p85": float(np.quantile(times, OP_QUANTILE)),
            "ok_frac": (attempted - failed) / attempted,
            "max_err": max(good) if good else sys.float_info.max,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    print("# environment " + json.dumps(_environment(np)))
    print("# detail " + json.dumps(detail))
    _print_metrics(metrics)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
