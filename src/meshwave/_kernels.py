"""Loop-bound numeric kernels, numba-compiled when available.

Only kernels that are genuinely loop-shaped live here (the per-triangle
assembly scatters); everything matmul-bound in the package stays on BLAS,
and graph Dijkstra is scipy's (see geodesics).  Set MESHWAVE_NUMBA=0 to
force the plain numpy fallbacks; benchmarks/bench_kernels.py times both
paths.

The numpy and numba variants mirror each other's arithmetic expression
by expression so the two paths agree to the last bit (summation order is
identical).
"""

from __future__ import annotations

import os

import numpy as np

try:
    import numba
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(func):
            return func

        return wrap


USE_NUMBA = HAS_NUMBA and os.environ.get("MESHWAVE_NUMBA", "1") != "0"

_NJIT_OPTS = dict(cache=True, nogil=True, error_model="numpy")


# ---------------------------------------------------------------------------
# per-triangle cotangents and areas


def triangle_geometry_numpy(vertices, triangles):
    """Per-corner cotangents and per-triangle areas.

    Returns (cots, areas): cots[t, c] is the cotangent of the interior
    angle at corner c of triangle t, areas[t] the triangle area.
    """
    v0 = vertices[triangles[:, 0]]
    v1 = vertices[triangles[:, 1]]
    v2 = vertices[triangles[:, 2]]
    e0 = v2 - v1  # edge opposite corner 0
    e1 = v0 - v2
    e2 = v1 - v0
    cr = np.cross(e2, -e1)  # (v1-v0) x (v2-v0)
    double_area = np.sqrt((cr * cr).sum(axis=1))
    cots = np.empty((len(triangles), 3), dtype=np.float64)
    cots[:, 0] = -(e2 * e1).sum(axis=1) / double_area
    cots[:, 1] = -(e0 * e2).sum(axis=1) / double_area
    cots[:, 2] = -(e1 * e0).sum(axis=1) / double_area
    return cots, double_area / 2.0


@njit(**_NJIT_OPTS)
def _triangle_geometry_nb(vertices, triangles):
    nt = triangles.shape[0]
    cots = np.empty((nt, 3), dtype=np.float64)
    areas = np.empty(nt, dtype=np.float64)
    for t in range(nt):
        i0 = triangles[t, 0]
        i1 = triangles[t, 1]
        i2 = triangles[t, 2]
        # edge vectors, e_c opposite corner c
        e0x = vertices[i2, 0] - vertices[i1, 0]
        e0y = vertices[i2, 1] - vertices[i1, 1]
        e0z = vertices[i2, 2] - vertices[i1, 2]
        e1x = vertices[i0, 0] - vertices[i2, 0]
        e1y = vertices[i0, 1] - vertices[i2, 1]
        e1z = vertices[i0, 2] - vertices[i2, 2]
        e2x = vertices[i1, 0] - vertices[i0, 0]
        e2y = vertices[i1, 1] - vertices[i0, 1]
        e2z = vertices[i1, 2] - vertices[i0, 2]
        # cross(e2, -e1) == cross(v1-v0, v2-v0)
        f1x = -e1x
        f1y = -e1y
        f1z = -e1z
        crx = e2y * f1z - e2z * f1y
        cry = e2z * f1x - e2x * f1z
        crz = e2x * f1y - e2y * f1x
        double_area = np.sqrt((crx * crx + cry * cry) + crz * crz)
        cots[t, 0] = -((e2x * e1x + e2y * e1y) + e2z * e1z) / double_area
        cots[t, 1] = -((e0x * e2x + e0y * e2y) + e0z * e2z) / double_area
        cots[t, 2] = -((e1x * e0x + e1y * e0y) + e1z * e0z) / double_area
        areas[t] = double_area / 2.0
    return cots, areas


def triangle_geometry_numba(vertices, triangles):
    return _triangle_geometry_nb(
        np.ascontiguousarray(vertices), np.ascontiguousarray(triangles)
    )


def triangle_geometry(vertices, triangles):
    if USE_NUMBA:
        return triangle_geometry_numba(vertices, triangles)
    return triangle_geometry_numpy(vertices, triangles)


# ---------------------------------------------------------------------------
# lumped vertex areas (scatter-add of area/3 shares)


def vertex_areas_numpy(triangles, tri_areas, n_vertices):
    out = np.zeros(n_vertices, dtype=np.float64)
    share = tri_areas / 3.0
    for c in range(3):
        np.add.at(out, triangles[:, c], share)
    return out


@njit(**_NJIT_OPTS)
def _vertex_areas_nb(triangles, tri_areas, n_vertices):
    out = np.zeros(n_vertices, dtype=np.float64)
    nt = triangles.shape[0]
    for c in range(3):
        for t in range(nt):
            out[triangles[t, c]] += tri_areas[t] / 3.0
    return out


def vertex_areas_numba(triangles, tri_areas, n_vertices):
    return _vertex_areas_nb(
        np.ascontiguousarray(triangles), np.ascontiguousarray(tri_areas), n_vertices
    )


def vertex_areas(triangles, tri_areas, n_vertices):
    if USE_NUMBA:
        return vertex_areas_numba(triangles, tri_areas, n_vertices)
    return vertex_areas_numpy(triangles, tri_areas, n_vertices)
