import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from meshwave import geodesics
from meshwave.geodesics import edge_graph, geodesic_multi, geodesic_pairs
from meshwave.mesh import TriMesh
from meshwave.synthetic import bent_bar, icosphere, strip_mesh

import _shared


def test_source_distance_zero():
    mesh = _shared.bar(0.3)
    d = geodesic_multi(mesh, [17])[0]
    assert d[17] == 0.0
    assert (d >= 0).all()
    assert np.isfinite(d).all()


def test_strip_distances_are_prefix_sums():
    # on a flat strip the shortest path along the bottom row is the sum
    # of the segment lengths; vertex (i, j) sits at index 2 * i + j
    xs = np.array([0.0, 0.5, 1.7, 1.9, 4.0])
    mesh = strip_mesh(xs, height=0.05)
    d = geodesic_multi(mesh, [0])[0]
    expect = np.concatenate([[0.0], np.cumsum(np.diff(xs))])
    assert np.allclose(d[0::2], expect, rtol=1e-12)


def test_dijkstra_line_graph_prefix_sums():
    # the strip's bottom row is the path 0-2-4-6 with weights 2, 3, 5
    mesh = strip_mesh(np.array([0.0, 2.0, 5.0, 10.0]), height=0.05)
    dist = geodesic_multi(mesh, np.array([0]))
    assert dist.shape == (1, mesh.n_vertices)
    assert np.array_equal(dist[0, 0::2], [0.0, 2.0, 5.0, 10.0])


def _record_limits(monkeypatch) -> list:
    """Make geodesic_pairs' Dijkstra calls log their `limit` argument."""
    limits = []

    def recording(*args, limit=np.inf, **kwargs):
        limits.append(limit)
        return dijkstra(*args, limit=limit, **kwargs)

    monkeypatch.setattr(geodesics, "dijkstra", recording)
    return limits


@pytest.mark.parametrize("block_entries", [1 << 20, 150])
def test_pairs_gather_the_table(rng, monkeypatch, block_entries):
    # 150 entries hold three rows of the 50-vertex bar: Dijkstra in blocks
    monkeypatch.setattr(geodesics, "_BLOCK_ENTRIES", block_entries)
    mesh = _shared.bar(0.4, nu=10, nv=5)
    sources = rng.integers(0, mesh.n_vertices, size=40)
    sources[::4] = sources[0]  # repeated sources share one run
    targets = rng.integers(0, mesh.n_vertices, size=40)
    targets[1] = sources[1]  # a zero distance
    table = geodesic_multi(mesh, sources)
    got = geodesic_pairs(mesh, sources, targets)
    assert np.array_equal(got, table[np.arange(40), targets])
    assert geodesic_pairs(mesh, [], []).shape == (0,)


@pytest.mark.parametrize("block_entries", [1 << 20, 720])
def test_pairs_on_a_closing_bar_run_several_rounds(rng, monkeypatch, block_entries):
    # bent almost into a ring, the bar's two ends are near in space but a
    # whole bar length apart along the surface, so sources rerun with
    # doubled radii; 720 entries hold three rows of the 240-vertex bar
    monkeypatch.setattr(geodesics, "_BLOCK_ENTRIES", block_entries)
    mesh = bent_bar(3.0, nu=40, nv=6)
    ends = np.concatenate([np.arange(6), np.arange(234, 240)])  # u = 0 and u = 1
    sources = np.concatenate([ends, rng.integers(0, mesh.n_vertices, size=30)])
    targets = np.concatenate([np.roll(ends, 6), rng.integers(0, mesh.n_vertices, size=30)])
    sources[-5:] = sources[0]  # repeated sources share one run
    table = geodesic_multi(mesh, sources)
    expect = table[np.arange(sources.size), targets]
    euclid = np.linalg.norm(mesh.vertices[sources] - mesh.vertices[targets], axis=1)
    assert (expect[:12] > 10 * euclid[:12]).all()
    limits = _record_limits(monkeypatch)
    assert np.array_equal(geodesic_pairs(mesh, sources, targets), expect)
    assert len(set(limits)) >= 4 and np.isfinite(limits).all()


def test_pairs_across_components_are_inf(monkeypatch):
    vertices = np.concatenate([np.eye(3), np.eye(3) + 10.0])
    mesh = TriMesh(vertices, [[0, 1, 2], [3, 4, 5]])  # two components
    sources, targets = np.array([0, 0, 4, 5, 1]), np.array([1, 3, 2, 4, 1])
    expect = geodesic_multi(mesh, sources)[np.arange(5), targets]
    limits = _record_limits(monkeypatch)
    got = geodesic_pairs(mesh, sources, targets)
    assert np.array_equal(got, expect)
    assert np.isinf(got[[1, 2]]).all() and np.isfinite(got[[0, 3, 4]]).all()
    # the rounds end with one unbounded run once the radius passes the
    # total edge length
    assert limits[-1] == np.inf and np.isfinite(limits[:-1]).all()


def test_pairs_near_pair_runs_bounded(monkeypatch):
    mesh = _shared.sphere(4)  # 2,562 vertices
    source, target = mesh.edges()[0]
    expect = geodesic_multi(mesh, [source])[0][target]
    limits = _record_limits(monkeypatch)
    assert geodesic_pairs(mesh, [source], [target])[0] == expect
    assert limits and np.isfinite(limits).all()


def test_pairs_validation():
    mesh = icosphere(1)
    with pytest.raises(ValueError, match="differ in length"):
        geodesic_pairs(mesh, [0, 1], [2])
    with pytest.raises(IndexError):
        geodesic_pairs(mesh, [0], [mesh.n_vertices])
    with pytest.raises(IndexError):
        geodesic_pairs(mesh, [-1], [0])


def test_triangle_inequality(rng):
    mesh = icosphere(2)
    d = geodesic_multi(mesh, np.arange(12))
    for _ in range(60):
        a, b = rng.integers(0, 12, size=2)
        v = rng.integers(0, mesh.n_vertices)
        assert d[a, v] <= d[a, b] + d[b, v] + 1e-12


def test_sphere_antipodal_distance():
    # graph distance overshoots the great-circle pi by a few percent
    mesh = icosphere(3)
    d = geodesic_multi(mesh, [0])[0]
    far = d.max()
    assert np.pi <= far <= 1.1 * np.pi


def test_multi_matches_single():
    mesh = _shared.bar(0.4, nu=10, nv=5)
    sources = np.array([0, 13, 49])
    multi = geodesic_multi(mesh, sources)
    for row, s in enumerate(sources):
        assert np.array_equal(multi[row], geodesic_multi(mesh, [s])[0])


def test_symmetry():
    mesh = _shared.bar(0.3, nu=8, nv=4)
    d = geodesic_multi(mesh, np.arange(mesh.n_vertices))
    assert np.allclose(d, d.T, rtol=1e-12)


def test_source_validation():
    mesh = icosphere(1)
    with pytest.raises(IndexError):
        geodesic_multi(mesh, [mesh.n_vertices])
    with pytest.raises(IndexError):
        geodesic_multi(mesh, [-1])
    with pytest.raises(ValueError):
        geodesic_multi(mesh, [[0, 1]])


def test_edge_graph_shape():
    mesh = icosphere(1)
    graph = edge_graph(mesh)
    indptr, indices, weights = graph.indptr, graph.indices, graph.data
    assert indptr[-1] == indices.shape[0] == weights.shape[0]
    assert indptr.shape[0] == mesh.n_vertices + 1
    assert (weights > 0).all()
    # icosphere vertices have degree 5 or 6
    degrees = np.diff(indptr)
    assert set(degrees.tolist()) <= {5, 6}
