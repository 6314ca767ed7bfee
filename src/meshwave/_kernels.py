"""Per-triangle assembly kernels for the mesh operators.

Only kernels that are genuinely loop-shaped live here (the per-triangle
assembly scatters); everything matmul-bound in the package stays on BLAS,
and graph Dijkstra is scipy's (see geodesics).
"""

from __future__ import annotations

import numpy as np

USE_NUMBA = False  # read only by perfbench/run.py's environment record


# ---------------------------------------------------------------------------
# per-triangle cotangents and areas


def triangle_geometry(vertices, triangles):
    """Per-corner cotangents and per-triangle areas.

    Returns (cots, areas): cots[t, c] is the cotangent of the interior
    angle at corner c of triangle t, areas[t] the triangle area. Overflow
    and zero areas give non-finite entries without a warning; the callers
    in mesh reject them.
    """
    v0 = vertices[triangles[:, 0]]
    v1 = vertices[triangles[:, 1]]
    v2 = vertices[triangles[:, 2]]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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


# ---------------------------------------------------------------------------
# lumped vertex areas (scatter-add of area/3 shares)


def vertex_areas(triangles, tri_areas, n_vertices):
    out = np.zeros(n_vertices, dtype=np.float64)
    share = tri_areas / 3.0
    for c in range(3):
        np.add.at(out, triangles[:, c], share)
    return out
