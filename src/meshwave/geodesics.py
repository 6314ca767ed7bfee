"""Graph geodesics on triangle meshes.

Distances are shortest paths over the undirected edge graph, weighted by
Euclidean edge length. This overshoots true polyhedral geodesics by a small
mesh-dependent factor (about 5% on a subdivided icosphere) but is consistent
across the meshes being compared, which is all the matching metrics need.

All distances come from scipy's csgraph Dijkstra, run one-way over
`edge_graph`, which holds both directions of every edge with one weight, so
each vertex settles over the same neighbours as in the undirected mode,
which rebuilds the transpose on every call. `geodesic_pairs` serves callers
that need one distance per (source, target) pair: it runs Dijkstra once per
distinct source, a block of sources at a time, and keeps only the requested
entries, so its memory is bounded by the block, not by n x n.

It also stops each run at a radius. Every edge weighs its Euclidean length,
so the graph distance from s to t is at least |x_s - x_t|: a source cannot
finish before its search reaches the largest Euclidean distance to its
targets. The radius starts at the smallest such bound and doubles each
round; a source runs once the radius covers its bound and runs again while
any of its targets is still beyond the radius. With nonnegative weights a
vertex within the radius settles through the same relaxations as in an
unbounded run, so every gathered distance is bit-identical to the full
table. Once the radius reaches the total edge length, which bounds every
simple path, the remaining sources run unbounded, so a target in another
component ends as inf after finitely many rounds.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from .mesh import TriMesh

_BLOCK_ENTRIES = 1 << 20  # distance-table entries held per Dijkstra block


def edge_graph(mesh: TriMesh) -> sparse.csr_matrix:
    """CSR adjacency of the mesh edge graph, weighted by edge length, with
    both directions of every edge present."""
    edges = mesh.edges()
    lengths = np.linalg.norm(
        mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1
    )
    n = mesh.n_vertices
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    vals = np.concatenate([lengths, lengths])
    return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _check_vertices(mesh: TriMesh, vertices, what: str) -> np.ndarray:
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.ndim != 1:
        raise ValueError(f"{what} indices must be a 1-D array")
    if vertices.size and (vertices.min() < 0 or vertices.max() >= mesh.n_vertices):
        raise IndexError(f"{what} vertex out of range")
    return vertices


def geodesic_pairs(mesh: TriMesh, sources, targets) -> np.ndarray:
    """Distance from sources[i] to targets[i], for each i.

    The edge graph is built once, repeated sources share one one-way
    Dijkstra run, and the runs go in blocks of at most 2**20 table entries,
    from which only the requested entries are gathered; no n x n array is
    formed.
    Runs stop at a radius that doubles each round from the smallest
    Euclidean source-target distance; a source joins the first round whose
    radius covers the Euclidean distance to its farthest target and reruns
    until none of its targets lies beyond the radius. From the round whose
    radius reaches the total edge length on, runs are unbounded, so a
    target in another component gives inf. The result is bit-identical to
    gathering from unbounded runs.
    """
    sources = _check_vertices(mesh, sources, "source")
    targets = _check_vertices(mesh, targets, "target")
    if sources.shape != targets.shape:
        raise ValueError("sources and targets differ in length")
    out = np.full(sources.shape[0], np.inf)
    uniq, row = np.unique(sources, return_inverse=True)
    graph = edge_graph(mesh)
    # graph distance >= Euclidean distance, so no source settles all of its
    # targets before its search radius reaches need[source]
    euclid = np.linalg.norm(mesh.vertices[sources] - mesh.vertices[targets], axis=1)
    need = np.zeros(uniq.size)
    np.maximum.at(need, row, euclid)
    total = graph.data.sum() / 2  # every simple path is shorter
    limit = np.min(need[need > 0], initial=total)
    step = max(1, _BLOCK_ENTRIES // mesh.n_vertices)
    pos = np.empty(uniq.size, dtype=np.int64)
    pending = np.ones(uniq.size, dtype=bool)
    while pending.any():
        bounded = limit < total
        run = np.flatnonzero(pending & ((need <= limit) | ~bounded))
        for lo in range(0, run.size, step):
            block = run[lo : lo + step]
            pos[:] = -1
            pos[block] = np.arange(block.size)
            sel = np.flatnonzero(pos[row] >= 0)
            # the block's table is a temporary: freed before the next is made
            out[sel] = dijkstra(graph, directed=True, indices=uniq[block],
                                limit=limit if bounded else np.inf)[pos[row[sel]], targets[sel]]
        pending[:] = False
        pending[row[np.isinf(out)]] = bounded
        limit *= 2
    return out
