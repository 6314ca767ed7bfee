"""Numba and numpy kernel paths must agree bit for bit."""

import numpy as np
import pytest

from meshwave import _kernels as K
from meshwave.synthetic import bent_bar, icosphere

needs_numba = pytest.mark.skipif(not K.HAS_NUMBA, reason="numba not installed")


def _mesh():
    return bent_bar(0.35, nu=14, nv=6)


def test_triangle_geometry_matches_hand_formula():
    mesh = _mesh()
    cots, areas = K.triangle_geometry_numpy(mesh.vertices, mesh.triangles)
    for t in (0, 5, len(mesh.triangles) - 1):
        tri = mesh.vertices[mesh.triangles[t]]
        # area from the cross product, cotangent from dot/|cross| per corner
        n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        assert areas[t] == pytest.approx(0.5 * np.linalg.norm(n), rel=1e-12)
        for c in range(3):
            a = tri[(c + 1) % 3] - tri[c]
            b = tri[(c + 2) % 3] - tri[c]
            expect = np.dot(a, b) / np.linalg.norm(np.cross(a, b))
            assert cots[t, c] == pytest.approx(expect, rel=1e-10)


def test_cotangents_sum_identity():
    # the three corner cotangents of any triangle satisfy
    # cot a cot b + cot b cot c + cot c cot a = 1
    mesh = _mesh()
    cots, _ = K.triangle_geometry_numpy(mesh.vertices, mesh.triangles)
    s = (
        cots[:, 0] * cots[:, 1]
        + cots[:, 1] * cots[:, 2]
        + cots[:, 2] * cots[:, 0]
    )
    assert np.allclose(s, 1.0, atol=1e-10)


@needs_numba
def test_triangle_geometry_paths_bitwise_equal():
    mesh = _mesh()
    c_np, a_np = K.triangle_geometry_numpy(mesh.vertices, mesh.triangles)
    c_nb, a_nb = K.triangle_geometry_numba(mesh.vertices, mesh.triangles)
    assert np.array_equal(c_np, c_nb)
    assert np.array_equal(a_np, a_nb)


@needs_numba
def test_vertex_areas_paths_bitwise_equal():
    mesh = icosphere(2)
    _, tri_areas = K.triangle_geometry_numpy(mesh.vertices, mesh.triangles)
    v_np = K.vertex_areas_numpy(mesh.triangles, tri_areas, mesh.n_vertices)
    v_nb = K.vertex_areas_numba(mesh.triangles, tri_areas, mesh.n_vertices)
    assert np.array_equal(v_np, v_nb)


def test_vertex_areas_conserve_total():
    mesh = _mesh()
    _, tri_areas = K.triangle_geometry_numpy(mesh.vertices, mesh.triangles)
    v = K.vertex_areas_numpy(mesh.triangles, tri_areas, mesh.n_vertices)
    assert v.sum() == pytest.approx(tri_areas.sum(), rel=1e-12)
    assert (v > 0).all()


def test_dispatchers_return_valid_results():
    mesh = _mesh()
    cots, areas = K.triangle_geometry(mesh.vertices, mesh.triangles)
    assert cots.shape == (len(mesh.triangles), 3)
    assert (areas > 0).all()
    v = K.vertex_areas(mesh.triangles, areas, mesh.n_vertices)
    assert v.shape == (mesh.n_vertices,)
