#!/usr/bin/env python3
"""meshwave pipeline benchmark.

Run from the root of a meshwave checkout:

    python3 perfbench/run.py --workload describe --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One run sets a workload up from its seed, runs its ops for --seconds and
checks every op's outputs.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The lines
before it give the environment and the workload's own figures.  The exit
code is non-zero when an op's output check failed.  ``--workload all``
runs every workload in its own process and prints one table.

Set-up runs several times in one fresh process, and setup_s is the
median; ops then run in this process, so peak_rss_mb is the ops' peak.
See perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("describe", "correspond", "learn")
BLAS_THREADS = 1  # within nproc = 2: a run keeps to one CPU of a shared host
# set-up repeats in one fresh process: at least SETUP_MIN_REPS times and
# SETUP_MIN_S seconds, at most SETUP_MAX_REPS times
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 3.0, 20
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "MESHWAVE_THREADS",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up in a fresh process this many times at most
    p.add_argument("--setup-reps", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_sha():
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import platform

    import numpy
    import scipy
    from meshwave import _kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
        "use_numba": bool(_kernels.USE_NUMBA),
    }


def setup_child(args) -> int:
    """Set up repeatedly, timing each, then write the reference once."""
    import workloads
    from hostspeed import HostSpeed

    work = WORK / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](work, args.seed)
    host = HostSpeed()
    times = []
    start = time.perf_counter()
    while len(times) < min(args.setup_reps, SETUP_MIN_REPS) or (
        len(times) < args.setup_reps and time.perf_counter() - start < SETUP_MIN_S
    ):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
        host.sample()
    wl.reference()
    print(json.dumps({"setup_s": times, "host_scale": host.scale()}))
    return 0


def set_up(args, reps: int):
    """Set the workload up in a fresh process, at most `reps` times.
    Returns each set-up's wall time and the host-speed factor over them."""
    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-reps", str(reps)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["host_scale"]


def measure(args) -> int:
    import resource

    import numpy as np
    import tracing
    import workloads
    from hostspeed import HostSpeed

    env = environment(args.seed)
    print("env " + json.dumps(env))
    setup_times, setup_scale = set_up(args, 1 if args.trace else SETUP_MAX_REPS)
    host = HostSpeed()
    work = WORK / f"{args.workload}-{args.seed}"
    wl = workloads.WORKLOADS[args.workload](work, args.seed)
    wl.open()

    attempted = failed = 0
    walls = {None: [], "time": [], "memory": [], "failed": []}  # by trace kind
    details, per_op, span_file = [], {"time": [], "memory": []}, []

    def one_op(trace=None):
        nonlocal attempted, failed
        attempted += 1
        hooks = tracing.traced(memory=trace == "memory") if trace else None
        t0 = time.perf_counter()
        try:
            if hooks:
                with hooks as tracer:
                    detail = wl.op()
            else:
                detail = wl.op()
        except Exception as exc:  # an op that raises counts as failed
            failed += 1
            walls["failed"].append(time.perf_counter() - t0)
            print(f"op {attempted} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        walls[trace].append(time.perf_counter() - t0)
        if trace is None:
            host.sample()
        details.append(detail)
        if hooks:
            per_op[trace].append(tracing.layer_metrics(tracer.spans))
            span_file.extend(tracing.span_records(tracer.spans, attempted))

    one_op()  # warm-up: lazy imports and first-touch costs, untimed
    walls[None].clear()
    host.samples.clear()
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        # the traced run alternates untraced and traced ops
        one_op("time" if args.trace and i % 2 else None)
        i += 1
        if time.perf_counter() >= deadline and (not args.trace or i >= 2):
            break
    if args.trace:
        one_op("memory")  # tracemalloc slows Python-heavy layers: kept apart

    detail_medians = {k: statistics.median(d[k] for d in details)
                      for k in (details[0] if details else {})}
    op_walls = walls[None] or walls["failed"]
    if not host.samples:
        host.sample()
    print("detail " + json.dumps({
        "workload": args.workload,
        "ops_timed": len(walls[None]),
        "ops_traced": len(walls["time"]),
        "fail_frac": failed / attempted,
        "op_wall_s": statistics.median(op_walls),
        "setup_wall_s": statistics.median(setup_times),
        "host_scale": host.scale(),
        **detail_medians,
    }))

    if args.trace:
        metrics = {}
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            source = per_op["memory" if name in tracing.MEMORY_METRICS else "time"]
            values = [m[name] for m in source] or [0.0]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        metrics["evaluation.exact_rate"] = {
            "value": detail_medians.get("exact_rate", 0.0), "unit": "ratio"}
        metrics["evaluation.age_x1e3"] = {
            "value": detail_medians.get("age_x1e3", 0.0), "unit": "1e-3"}
        traced = statistics.median(walls["time"] or walls["failed"])
        metrics["trace.overhead_frac"] = {
            "value": traced / statistics.median(op_walls) - 1.0, "unit": "ratio"}
        spans_path = WORK / f"{args.workload}-{args.seed}.spans.jsonl"
        with open(spans_path, "w") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for record in span_file:
                fh.write(json.dumps(record) + "\n")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup_times) * setup_scale,
                        "unit": "s"},
            "op_norm_s": {"value": statistics.median(op_walls) * host.scale(),
                          "unit": "s"},
            "peak_rss_mb": {"value": peak_kb * 1024 / 1e6, "unit": "MB"},
        }
    shutil.rmtree(work)
    correct = failed == 0 and attempted > 0 and bool(np.isfinite(
        [m["value"] for m in metrics.values()]).all())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    status = 0
    print(f"{'workload':<12}{'metric':<14}{'value':>14}  unit")
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name:<12}no result (exit {proc.returncode})\n{proc.stderr.strip()}")
            status = 1
            continue
        for metric, m in result["metrics"].items():
            print(f"{name:<12}{metric:<14}{m['value']:>14.6g}  {m['unit']}")
        detail = next((json.loads(ln[7:]) for ln in lines if ln.startswith("detail ")), {})
        extras = {k: v for k, v in detail.items() if k != "workload"}
        print(f"{name:<12}" + "  ".join(f"{k}={v:.6g}" for k, v in extras.items()))
        if proc.returncode != 0 or not result["correct"]:
            print(f"{name:<12}FAILED: {result['failed']} of {result['attempted']} ops")
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "meshwave" / "__init__.py").is_file():
        print(f"perfbench: no meshwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # fixed before numpy is first imported, here and in every child process
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    if args.setup_reps:
        return setup_child(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
