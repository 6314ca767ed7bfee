"""Times the numba kernels against their numpy fallbacks.

Run from the repository root:

    python3 benchmarks/bench_kernels.py [--subdivisions 5] [--repeats 5]

Each kernel is warmed up once (numba compiles on first call), then the
minimum of several timed repeats is reported for both paths along with
the speedup.  The two paths agree bitwise.
"""

import argparse
import time

import numpy as np

from meshwave import _kernels
from meshwave.synthetic import icosphere


def _best_of(func, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - t0)
    return best


def _row(name, slow, fast):
    print(f"{name:<24} numpy {slow * 1e3:9.2f} ms   "
          f"numba {fast * 1e3:9.2f} ms   speedup {slow / fast:6.1f}x")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--subdivisions", type=int, default=5,
                        help="icosphere refinement level (5 -> 10242 vertices)")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    if not _kernels.HAS_NUMBA:
        print("numba is not importable; nothing to compare")
        return 1

    mesh = icosphere(args.subdivisions)
    print(f"mesh: icosphere({args.subdivisions}), "
          f"{mesh.n_vertices} vertices, {len(mesh.triangles)} triangles")

    v, t = mesh.vertices, mesh.triangles
    pairs = []

    _kernels.triangle_geometry_numba(v, t)  # warm the compile cache
    pairs.append((
        "triangle_geometry",
        _best_of(lambda: _kernels.triangle_geometry_numpy(v, t), args.repeats),
        _best_of(lambda: _kernels.triangle_geometry_numba(v, t), args.repeats),
    ))

    _, tri_areas = _kernels.triangle_geometry(v, t)
    n = mesh.n_vertices
    _kernels.vertex_areas_numba(t, tri_areas, n)
    pairs.append((
        "vertex_areas",
        _best_of(lambda: _kernels.vertex_areas_numpy(t, tri_areas, n),
                 args.repeats),
        _best_of(lambda: _kernels.vertex_areas_numba(t, tri_areas, n),
                 args.repeats),
    ))

    print(f"best of {args.repeats} repeats:")
    for row in pairs:
        _row(*row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
