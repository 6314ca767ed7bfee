"""Triangle mesh container, validation, and discrete operators.

The Laplacian here is the cotangent-weighted graph operator with
barycentric (area/3) mass lumping.  Both are assembled from one
per-triangle pass over corner cotangents and triangle areas, on a mesh
`validate_mesh` accepted: every command reads meshes through `load_mesh`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import meshio
from .errors import MeshError

_DEGENERATE_REL_AREA = 1e-12


@dataclass
class TriMesh:
    """Vertices (n, 3) float64 and triangles (m, 3) int64, 0-based."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be (n, 3)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be (m, 3)")

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def edges(self):
        """Unique undirected edges, (n_edges, 2) with e[0] < e[1], sorted."""
        return _edges_and_counts(self.triangles, self.n_vertices)[0]

    def content_hash(self):
        """sha256 over counts and exact vertex/triangle bytes."""
        digest = hashlib.sha256()
        digest.update(b"meshwave-mesh-v1")
        digest.update(np.int64(self.n_vertices).tobytes())
        digest.update(np.int64(self.n_triangles).tobytes())
        digest.update(self.vertices.tobytes())
        digest.update(self.triangles.tobytes())
        return digest.hexdigest()


def _edges_and_counts(triangles, n):
    """Unique undirected edges (a < b, sorted by a then b) and the number of
    triangle sides on each.

    Each edge is the 1-D key a * n + b, which sorts like the row (a, b)
    when 0 <= a, b < n; a row-wise `np.unique` would sort a void view.
    """
    pairs = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    keys, counts = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1), return_counts=True)
    return np.stack([keys // n, keys % n], axis=1), counts


def _triangle_geometry(vertices, triangles):
    """Per-corner cotangents and per-triangle areas.

    Returns (cots, areas): cots[t, c] is the cotangent of the interior
    angle at corner c of triangle t, areas[t] the triangle area. Overflow
    and zero areas give non-finite entries without a warning, which
    `validate_mesh` and `cotangent_laplacian` reject.
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


def validate_mesh(mesh):
    """Raise MeshError unless the mesh is a connected edge-manifold
    triangulation: finite coordinates, triangle areas finite and above 1e-12
    of their mean, no edge on more than two triangles, no isolated vertex."""
    v, t = mesh.vertices, mesh.triangles
    if not np.isfinite(v).all():
        raise MeshError("non-finite vertex coordinates")
    if len(t) == 0:
        raise MeshError("mesh has no triangles")
    if t.min() < 0 or t.max() >= len(v):
        raise MeshError("triangle index out of range")
    if (
        (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
    ).any():
        raise MeshError("degenerate triangle: repeated vertex")
    _, areas = _triangle_geometry(v, t)
    if not np.isfinite(areas).all():
        raise MeshError("non-finite triangle area (coordinates too large?)")
    if (areas <= _DEGENERATE_REL_AREA * areas.mean()).any():
        bad = int(np.argmin(areas))
        raise MeshError(f"degenerate triangle {bad}: near-zero area")
    # edge-manifold: every undirected edge borders at most two triangles
    edges, counts = _edges_and_counts(t, len(v))
    if (counts > 2).any():
        raise MeshError("non-manifold edge: more than two incident triangles")
    # connected, counting isolated vertices as their own components
    adj = sp.csr_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(len(v), len(v))
    )
    n_comp = sp.csgraph.connected_components(adj, directed=False, return_labels=False)
    if n_comp != 1:
        raise MeshError(f"mesh is not connected ({n_comp} components)")
    return mesh


def load_mesh(path):
    """Read and validate a mesh file (OFF/OBJ/PLY by extension)."""
    vertices, triangles = meshio.read_mesh_file(path)
    return validate_mesh(TriMesh(vertices, triangles))


def lumped_areas(mesh):
    """Barycentric vertex areas: one third of each incident triangle. On a
    validated mesh they are finite, positive and sum to the surface area."""
    _, tri_areas = _triangle_geometry(mesh.vertices, mesh.triangles)
    return np.bincount(mesh.triangles.T.ravel(), weights=np.tile(tri_areas / 3.0, 3),
                       minlength=mesh.n_vertices)


def cotangent_laplacian(mesh):
    """Symmetric cotangent Laplacian as CSR.

    Off-diagonal (i, j): -(cot(alpha) + cot(beta)) / 2 over the triangles
    sharing edge (i, j); diagonal: minus the row's off-diagonal sum, so
    row sums vanish and f' L f is the Dirichlet energy of f. On a validated
    mesh a sliver can still overflow a cotangent, which raises MeshError.
    """
    n = mesh.n_vertices
    t = mesh.triangles
    cots, _ = _triangle_geometry(mesh.vertices, mesh.triangles)
    rows, cols, vals = [], [], []
    for corner in range(3):
        i = t[:, (corner + 1) % 3]
        j = t[:, (corner + 2) % 3]
        w = 0.5 * cots[:, corner]
        rows += [i, j, i, j]
        cols += [j, i, i, j]
        vals += [-w, -w, w, w]
    lap = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    if not np.isfinite(lap.data).all():
        raise MeshError("non-finite Laplacian entry (coordinates too large?)")
    return lap
