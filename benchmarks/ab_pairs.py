#!/usr/bin/env python3
"""Alternating A/B pairs of the pipeline benchmark between two checkouts.

    python3 benchmarks/ab_pairs.py PARENT_DIR CHANGE_DIR --workload learn,describe \\
        --pairs 10 --seconds 25 --seed 901

For each workload W of the comma-separated list, every pair runs
``perfbench/run.py --workload W --seed K --seconds S --trace 0`` in each
checkout, with that checkout's own benchmark and sources, and flips which
side runs first from one pair to the next.  All pairs share the one seed
K, so the parent's interquartile range measures run-to-run noise, not how
heavy each seed's draws are.  Each run's result line (the last line
perfbench prints) is echoed as ``W pair I SIDE SEED LINE``.  At the end,
one row per workload and end-to-end metric gives each side's median and
quartiles, the median and quartiles of the per-pair ratios change/parent
(nan when every parent value is 0), the medians of the runs that went
first and of those that went second (which shows any bias from run
order), the number of pairs the change won (ties count for neither),
whether a gain may be claimed (the change wins at least nine tenths of
the pairs and the medians differ by more than the parent's interquartile
range), and the no-regression verdict against the metric's bound in the
parent's BENCHMARK.json, a fraction of the parent's median:
``unresolved`` when the parent's interquartile range exceeds the bound
and not every change run beats every parent run, else ``regressed`` when
the change's median is worse by more than the bound, else ``within
bound``.  Standard library only; perfbench keeps its files in each
checkout's .perfbench_work/, and this script writes nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def summarize(parent_lines, change_lines, better=None, bounds=None):
    """Report lines for pairs (parent_lines[i], change_lines[i]) of
    perfbench result lines; `better` maps a metric to "lower" or "higher"
    (default "lower"), `bounds` a metric to its regression bound (a
    fraction of the parent's median; no verdict without one)."""
    better, bounds = better or {}, bounds or {}
    pairs = [tuple({name: m["value"] for name, m in json.loads(line)["metrics"].items()}
                   for line in pair) for pair in zip(parent_lines, change_lines)]
    report = [f"{len(pairs)} pairs"]
    for name in pairs[0][0] if pairs else ():
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        sides = [[p[side][name] for p in pairs] for side in (0, 1)]
        wins = sum(sign * (b - a) < 0 for a, b in zip(*sides))
        (p1, pm, p3), (c1, cm, c3) = (_quartiles(values) for values in sides)
        ratios = [c / p for p, c in zip(*sides) if p]
        r1, rm, r3 = _quartiles(ratios) if ratios else (float("nan"),) * 3
        gap, iqr = sign * (pm - cm), p3 - p1
        holds = wins >= 0.9 * len(pairs) and gap > iqr
        # pair i even ran the parent first
        first, second = (statistics.median(p[(i + k) % 2][name] for i, p in enumerate(pairs))
                         for k in (0, 1))
        line = (f"{name}: parent median {pm:.6g} (quartiles {p1:.6g}, {p3:.6g}); "
                f"change median {cm:.6g} (quartiles {c1:.6g}, {c3:.6g}); "
                f"per-pair ratio change/parent median {rm:.4g} (quartiles {r1:.4g}, {r3:.4g}); "
                f"run first median {first:.6g}, run second median {second:.6g}; "
                f"change won {wins} of {len(pairs)}; median gain {gap:.6g} against parent "
                f"IQR {iqr:.6g}: gain {'holds' if holds else 'does not hold'}")
        if name in bounds:
            scale = abs(pm) or 1.0
            beats_all = max(sign * c for c in sides[1]) < min(sign * p for p in sides[0])
            verdict = ("unresolved" if iqr / scale > bounds[name] and not beats_all
                       else "regressed" if -gap / scale > bounds[name] else "within bound")
            line += f"; no regression: {verdict}"
        report.append(line)
    return report


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_once(checkout, workload, args, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr.strip()}")
    return lines[-1]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True, help="one workload or a comma-separated list")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = []
    for workload in [w.strip() for w in args.workload.split(",") if w.strip()]:
        lines = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                lines[side].append(run_once(checkouts[side], workload, args, args.seed))
                print(f"{workload} pair {i} {side} {args.seed} {lines[side][-1]}", flush=True)
        report += [f"{workload} {line}"
                   for line in summarize(lines["parent"], lines["change"], better, bounds)]
    print("\n".join(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
