"""Procedural test geometry: icospheres, strips, and a bent-bar family.

The bent bar is a tapered strip with an asymmetric height ripple (both
parametric mirror symmetries are broken, so nearest-neighbor matching
has a unique answer), bent around a cylinder of curvature kappa, on an
nu-by-nv parameter grid.  Poses of one grid share vertex order, so the
identity map is their exact ground truth.  ``midpoint_refine`` splits a
mesh 1:4 and keeps every vertex index, which gives cross-resolution
ground truth.
"""

from __future__ import annotations

import numpy as np

from .mesh import TriMesh


def equilateral_triangle(side=1.0):
    """Single equilateral triangle in the z=0 plane."""
    vertices = np.array(
        [[0.0, 0.0, 0.0], [side, 0.0, 0.0], [side / 2.0, side * np.sqrt(3.0) / 2.0, 0.0]]
    )
    return TriMesh(vertices, np.array([[0, 1, 2]]))


def icosphere(subdivisions, radius=1.0):
    """Icosahedron subdivided `subdivisions` times, projected to the sphere.

    Vertex count is 10 * 4**subdivisions + 2.  The construction is exactly
    antipodally symmetric: for every vertex v, -v is also a vertex.
    """
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts[0])
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    for _ in range(subdivisions):
        vlist = list(verts)
        midpoint = {}

        def mid(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                m = (vlist[a] + vlist[b]) / 2.0
                m = m / np.linalg.norm(m)
                midpoint[key] = len(vlist)
                vlist.append(m)
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
        verts = np.array(vlist)
        faces = np.array(new_faces, dtype=np.int64)
    return TriMesh(verts * radius, faces)


def antipodal_permutation(mesh, tol=1e-9):
    """Index permutation p with vertices[p[i]] == -vertices[i]."""
    v = mesh.vertices
    perm = np.full(mesh.n_vertices, -1, dtype=np.int64)
    order = np.lexsort((v[:, 2], v[:, 1], v[:, 0]))
    sorted_v = v[order]
    for i in range(mesh.n_vertices):
        target = -v[i]
        j = np.searchsorted(sorted_v[:, 0], target[0] - tol)
        while j < mesh.n_vertices:
            cand = order[j]
            if sorted_v[j, 0] > target[0] + tol:
                break
            if np.abs(v[cand] - target).max() <= tol:
                perm[i] = cand
                break
            j += 1
        if perm[i] < 0:
            raise ValueError("mesh is not antipodally symmetric")
    return perm


def grid_mesh(u_coords, v_coords, surface):
    """Tensor-grid triangulation of surface(u, v) -> (x, y, z)."""
    nu, nv = len(u_coords), len(v_coords)
    uu, vv = np.meshgrid(u_coords, v_coords, indexing="ij")
    pts = surface(uu.ravel(), vv.ravel())
    vertices = np.stack(pts, axis=1)
    faces = []
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j
            b = (i + 1) * nv + j
            c = i * nv + (j + 1)
            d = (i + 1) * nv + (j + 1)
            faces += [[a, b, d], [a, d, c]]
    return TriMesh(vertices, np.array(faces, dtype=np.int64))


def strip_mesh(x_coords, height=0.1):
    """Two-row planar strip; bottom-row geodesics are exact prefix sums."""
    x = np.asarray(x_coords, dtype=np.float64)

    def surf(u, v):
        return u, v * height, np.zeros_like(u)

    return grid_mesh(x, np.array([0.0, 1.0]), surf)


_BAR_LENGTH = 2.0
_BAR_WIDTH = 0.5


def _bar_point(u, v, curvature):
    """Bent-bar embedding for parameters u, v in [0, 1]."""
    width = _BAR_WIDTH * (1.0 + 0.55 * u)
    x = _BAR_LENGTH * u
    y = (v - 0.5) * width
    z = 0.14 * np.sin(2.6 * u + 0.5) * (0.4 + 0.6 * v)
    if curvature == 0.0:
        return x, y, z
    radius = 1.0 / curvature
    big_x = (radius + z) * np.sin(x / radius)
    big_z = (radius + z) * np.cos(x / radius) - radius
    return big_x, y, big_z


def bent_bar(curvature=0.0, nu=22, nv=10):
    """One pose of the bent-bar family on an nu-by-nv parameter grid."""
    u = np.linspace(0.0, 1.0, nu)
    v = np.linspace(0.0, 1.0, nv)
    return grid_mesh(u, v, lambda uu, vv: _bar_point(uu, vv, curvature))


def midpoint_refine(mesh):
    """1:4 split of every triangle at edge midpoints (no smoothing).

    Original vertices keep their indices; total area is preserved exactly
    on flat splits (each child triangle is coplanar with its parent).
    """
    v = list(mesh.vertices)
    midpoint = {}

    def mid(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in midpoint:
            midpoint[key] = len(v)
            v.append((mesh.vertices[a] + mesh.vertices[b]) / 2.0)
        return midpoint[key]

    faces = []
    for a, b, c in mesh.triangles:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        faces += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
    return TriMesh(np.array(v), np.array(faces, dtype=np.int64))
