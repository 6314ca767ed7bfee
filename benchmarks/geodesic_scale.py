#!/usr/bin/env python3
"""Alternating timings of geodesics.geodesic_pairs between two checkouts.

    python3 benchmarks/geodesic_scale.py PARENT_DIR CHANGE_DIR --runs 5 [--quick]

The input is the error map of a 10,242-vertex icosphere (subdivision 5):
WEDS descriptors (k = 100, 128 dimensions) matched by nearest neighbour
from a noisy copy (1e-3 N(0, 1), rng seed 3) back to themselves.  Each
wrong match is one (predicted vertex, true vertex) pair, the pairs that
``evaluation.normalized_errors`` asks for; about 99.6% of the vertices are
wrong, with 3,150 distinct sources.  ``--quick`` uses subdivision 3 (642
vertices) instead.  The map is built once with the parent's library.  Each
run then calls both sides' ``geodesic_pairs`` on it, flipping which side
goes first from one run to the next, and checks that they return equal
arrays (exit 1 if not).  It prints one line per run and the medians.
BLAS runs on one thread.  Standard library and numpy only; each side's
meshwave is imported from its checkout's ``src/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse
import importlib
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
MODULES = ("descriptors", "evaluation", "filters", "geodesics", "mesh", "spectral", "synthetic")


def load(checkout: Path) -> dict:
    """The meshwave modules of one checkout, imported afresh from its src/."""
    for name in [n for n in sys.modules if n.split(".")[0] == "meshwave"]:
        del sys.modules[name]
    sys.path.insert(0, str(checkout / "src"))
    try:
        return {m: importlib.import_module(f"meshwave.{m}") for m in MODULES}
    finally:
        sys.path.pop(0)


def error_pairs(mw: dict, subdivisions: int):
    """(mesh, sources, targets) of the noisy WEDS self-match's wrong rows."""
    mesh = mw["synthetic"].icosphere(subdivisions)
    basis = mw["spectral"].eig_generalized(
        mw["mesh"].cotangent_laplacian(mesh), mw["mesh"].lumped_areas(mesh), 100)
    bank = mw["filters"].build_filter_bank(basis.lambda_max, eigenvalues=basis.eigenvalues)
    weds = mw["descriptors"].weds(basis, bank, mesh.vertices, n_dims=128).values
    noisy = weds + 1e-3 * np.random.default_rng(3).standard_normal(weds.shape)
    pred = mw["evaluation"].nn_match(noisy, weds).indices
    wrong = np.flatnonzero(pred != np.arange(mesh.n_vertices))
    return mesh, pred[wrong], wrong


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--quick", action="store_true", help="642 vertices, not 10,242")
    args = p.parse_args(argv)
    libs = {side: load(getattr(args, side).resolve()) for side in SIDES}
    mesh, sources, targets = error_pairs(libs["parent"], 3 if args.quick else 5)
    print(f"{mesh.n_vertices} vertices, {sources.size} pairs, "
          f"{np.unique(sources).size} distinct sources", flush=True)
    times = {side: [] for side in SIDES}
    for i in range(args.runs):
        got = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            start = time.perf_counter()
            got[side] = libs[side]["geodesics"].geodesic_pairs(mesh, sources, targets)
            times[side].append(time.perf_counter() - start)
        if not np.array_equal(got["parent"], got["change"]):
            print(f"run {i}: the two sides' distances differ")
            return 1
        print(f"run {i}: parent {times['parent'][-1]:.4f} s, change "
              f"{times['change'][-1]:.4f} s, equal arrays", flush=True)
    parent, change = (statistics.median(times[side]) for side in SIDES)
    print(f"median: parent {parent:.4f} s, change {change:.4f} s, "
          f"change/parent {change / parent:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
