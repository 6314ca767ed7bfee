"""Graph geodesics on triangle meshes.

Distances are shortest paths over the undirected edge graph, weighted by
Euclidean edge length. This overshoots true polyhedral geodesics by a small
mesh-dependent factor (about 5% on a subdivided icosphere) but is consistent
across the meshes being compared, which is all the matching metrics need.

All distances come from scipy's csgraph Dijkstra. `geodesic_pairs` serves
callers that need one distance per (source, target) pair: it runs Dijkstra
once per distinct source, a block of sources at a time, and keeps only the
requested entries, so its memory is bounded by the block, not by n x n.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from .mesh import TriMesh

_BLOCK_ENTRIES = 1 << 20  # distance-table entries held per Dijkstra block


def edge_graph(mesh: TriMesh):
    """CSR adjacency of the mesh edge graph, weighted by edge length.

    Returns (indptr, indices, weights) with both directions of every edge
    present.
    """
    edges = mesh.edges()
    lengths = np.linalg.norm(
        mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1
    )
    n = mesh.n_vertices
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    vals = np.concatenate([lengths, lengths])
    adj = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return adj.indptr, adj.indices.astype(np.int64), adj.data


def _graph(mesh: TriMesh):
    indptr, indices, weights = edge_graph(mesh)
    n = mesh.n_vertices
    return sparse.csr_matrix((weights, indices, indptr), shape=(n, n))


def _check_vertices(mesh: TriMesh, vertices, what: str) -> np.ndarray:
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.ndim != 1:
        raise ValueError(f"{what} indices must be a 1-D array")
    if vertices.size and (vertices.min() < 0 or vertices.max() >= mesh.n_vertices):
        raise IndexError(f"{what} vertex out of range")
    return vertices


def geodesic_from(mesh: TriMesh, source: int) -> np.ndarray:
    """Distance from one source vertex to every vertex."""
    return geodesic_multi(mesh, np.asarray([source]))[0]


def geodesic_multi(mesh: TriMesh, sources) -> np.ndarray:
    """Distances from several source vertices; rows follow `sources`."""
    sources = _check_vertices(mesh, sources, "source")
    return np.atleast_2d(dijkstra(_graph(mesh), directed=False, indices=sources))


def geodesic_pairs(mesh: TriMesh, sources, targets) -> np.ndarray:
    """Distance from sources[i] to targets[i], for each i.

    The edge graph is built once, repeated sources share one Dijkstra run,
    and the runs go in blocks of at most 2**20 table entries, from which
    only the requested entries are gathered; no n x n array is formed.
    """
    sources = _check_vertices(mesh, sources, "source")
    targets = _check_vertices(mesh, targets, "target")
    if sources.shape != targets.shape:
        raise ValueError("sources and targets differ in length")
    out = np.empty(sources.shape[0], dtype=np.float64)
    uniq, row = np.unique(sources, return_inverse=True)
    graph = _graph(mesh)
    step = max(1, _BLOCK_ENTRIES // mesh.n_vertices)
    for lo in range(0, uniq.size, step):
        sel = np.flatnonzero((row >= lo) & (row < lo + step))
        # the block's table is a temporary: freed before the next is made
        out[sel] = dijkstra(graph, directed=False, indices=uniq[lo : lo + step])[
            row[sel] - lo, targets[sel]
        ]
    return out
