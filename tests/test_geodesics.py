import numpy as np
import pytest

from meshwave import geodesics
from meshwave.geodesics import edge_graph, geodesic_from, geodesic_multi, geodesic_pairs
from meshwave.synthetic import icosphere, strip_mesh

import _shared


def test_source_distance_zero():
    mesh = _shared.bar(0.3)
    d = geodesic_from(mesh, 17)
    assert d[17] == 0.0
    assert (d >= 0).all()
    assert np.isfinite(d).all()


def test_strip_distances_are_prefix_sums():
    # on a flat strip the shortest path along the bottom row is the sum
    # of the segment lengths; vertex (i, j) sits at index 2 * i + j
    xs = np.array([0.0, 0.5, 1.7, 1.9, 4.0])
    mesh = strip_mesh(xs, height=0.05)
    d = geodesic_from(mesh, 0)
    expect = np.concatenate([[0.0], np.cumsum(np.diff(xs))])
    assert np.allclose(d[0::2], expect, rtol=1e-12)


def test_dijkstra_line_graph_prefix_sums():
    # the strip's bottom row is the path 0-2-4-6 with weights 2, 3, 5
    mesh = strip_mesh(np.array([0.0, 2.0, 5.0, 10.0]), height=0.05)
    dist = geodesic_multi(mesh, np.array([0]))
    assert dist.shape == (1, mesh.n_vertices)
    assert np.array_equal(dist[0, 0::2], [0.0, 2.0, 5.0, 10.0])


@pytest.mark.parametrize("block_entries", [1 << 20, 150])
def test_pairs_gather_the_table(rng, monkeypatch, block_entries):
    # 150 entries hold three rows of the 50-vertex bar: Dijkstra in blocks
    monkeypatch.setattr(geodesics, "_BLOCK_ENTRIES", block_entries)
    mesh = _shared.bar(0.4, nu=10, nv=5)
    sources = rng.integers(0, mesh.n_vertices, size=40)
    sources[::4] = sources[0]  # repeated sources share one run
    targets = rng.integers(0, mesh.n_vertices, size=40)
    table = geodesic_multi(mesh, sources)
    got = geodesic_pairs(mesh, sources, targets)
    assert np.array_equal(got, table[np.arange(40), targets])
    assert geodesic_pairs(mesh, [], []).shape == (0,)


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
    d = geodesic_from(mesh, 0)
    far = d.max()
    assert np.pi <= far <= 1.1 * np.pi


def test_multi_matches_single():
    mesh = _shared.bar(0.4, nu=10, nv=5)
    sources = np.array([0, 13, 49])
    multi = geodesic_multi(mesh, sources)
    for row, s in enumerate(sources):
        assert np.array_equal(multi[row], geodesic_from(mesh, s))


def test_symmetry():
    mesh = _shared.bar(0.3, nu=8, nv=4)
    d = geodesic_multi(mesh, np.arange(mesh.n_vertices))
    assert np.allclose(d, d.T, rtol=1e-12)


def test_source_validation():
    mesh = icosphere(1)
    with pytest.raises(IndexError):
        geodesic_from(mesh, mesh.n_vertices)
    with pytest.raises(IndexError):
        geodesic_from(mesh, -1)
    with pytest.raises(ValueError):
        geodesic_multi(mesh, [[0, 1]])


def test_edge_graph_shape():
    mesh = icosphere(1)
    indptr, indices, weights = edge_graph(mesh)
    assert indptr[-1] == indices.shape[0] == weights.shape[0]
    assert indptr.shape[0] == mesh.n_vertices + 1
    assert (weights > 0).all()
    # icosphere vertices have degree 5 or 6
    degrees = np.diff(indptr)
    assert set(degrees.tolist()) <= {5, 6}
