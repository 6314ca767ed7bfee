import numpy as np
import pytest

from meshwave.errors import MeshError
from meshwave.mesh import (
    TriMesh,
    cotangent_laplacian,
    lumped_areas,
    validate_mesh,
)
from meshwave.synthetic import (
    bent_bar,
    equilateral_triangle,
    icosphere,
    midpoint_refine,
)

import _shared

# one equilateral triangle, side 1: every interior angle is 60 degrees,
# cot(60) = 1/sqrt(3), one triangle per edge
_OFFDIAG = -1.0 / (2.0 * np.sqrt(3.0))
_DIAG = 1.0 / np.sqrt(3.0)
_VERTEX_AREA = np.sqrt(3.0) / 12.0


def test_equilateral_laplacian_entries():
    lap = cotangent_laplacian(equilateral_triangle()).toarray()
    for i in range(3):
        for j in range(3):
            expect = _DIAG if i == j else _OFFDIAG
            assert lap[i, j] == pytest.approx(expect, abs=1e-14)


def test_equilateral_lumped_areas():
    areas = lumped_areas(equilateral_triangle())
    assert np.allclose(areas, _VERTEX_AREA, rtol=1e-14)
    assert areas.sum() == pytest.approx(np.sqrt(3.0) / 4.0, rel=1e-14)


def test_lumped_areas_scale_quadratically():
    mesh = _shared.bar(0.3)
    scaled = TriMesh(mesh.vertices * 2.0, mesh.triangles)
    assert np.allclose(lumped_areas(scaled), 4.0 * lumped_areas(mesh), rtol=1e-12)


def test_laplacian_scale_invariant():
    # cotangents are ratios of lengths, so uniform scaling cancels
    mesh = _shared.bar(0.3)
    scaled = TriMesh(mesh.vertices * 3.7, mesh.triangles)
    a = cotangent_laplacian(mesh)
    b = cotangent_laplacian(scaled)
    assert abs(a - b).max() <= 1e-12 * abs(a).max()


def test_sphere_area_converges():
    total = lumped_areas(icosphere(4)).sum()
    assert abs(total - 4.0 * np.pi) <= 0.005 * 4.0 * np.pi


def test_constant_in_null_space():
    mesh = _shared.bar(0.5)
    lap = cotangent_laplacian(mesh)
    f = np.full(mesh.n_vertices, 2.5)
    residual = np.abs(lap @ f).max()
    assert residual <= 1e-12 * abs(lap).max()


def test_positive_semidefinite(rng):
    mesh = icosphere(2)
    lap = cotangent_laplacian(mesh)
    for _ in range(10):
        f = rng.standard_normal(mesh.n_vertices)
        quad = float(f @ (lap @ f))
        assert quad >= -1e-10 * abs(lap).max() * float(f @ f)


def test_dirichlet_energy_of_coordinates_is_twice_area():
    # exact identity for the cotangent operator, not an approximation
    for mesh in (equilateral_triangle(), _shared.bar(0.4), icosphere(2)):
        lap = cotangent_laplacian(mesh)
        energy = sum(
            float(mesh.vertices[:, d] @ (lap @ mesh.vertices[:, d]))
            for d in range(3)
        )
        total = lumped_areas(mesh).sum()
        assert energy == pytest.approx(2.0 * total, rel=1e-12)


def test_rigid_motion_invariance(rng):
    mesh = _shared.bar(0.6)
    rot = _shared.random_rotation(rng)
    moved = TriMesh(mesh.vertices @ rot.T + np.array([0.3, -1.2, 2.0]), mesh.triangles)
    a = cotangent_laplacian(mesh)
    b = cotangent_laplacian(moved)
    assert abs(a - b).max() <= 1e-10 * abs(a).max()
    assert np.allclose(lumped_areas(mesh), lumped_areas(moved), rtol=1e-10)


def test_midpoint_refine_preserves_area_exactly():
    # splitting coplanar triangles cannot change the surface
    mesh = _shared.bar(0.3, nu=10, nv=5)
    fine = midpoint_refine(mesh)
    assert fine.n_triangles == 4 * mesh.n_triangles
    assert lumped_areas(fine).sum() == pytest.approx(lumped_areas(mesh).sum(), rel=1e-12)
    # original vertices keep their indices
    assert np.array_equal(fine.vertices[: mesh.n_vertices], mesh.vertices)


def test_refinement_stability_of_energy():
    coarse = bent_bar(0.3, nu=22, nv=10)
    fine = bent_bar(0.3, nu=43, nv=19)
    e = [2.0 * lumped_areas(m).sum() for m in (coarse, fine)]
    assert abs(e[1] - e[0]) <= 0.01 * e[0]


def test_validate_accepts_good_meshes():
    for mesh in (equilateral_triangle(), icosphere(1), _shared.bar(0.2)):
        assert validate_mesh(mesh) is mesh


def test_validate_repeated_vertex():
    mesh = TriMesh(np.eye(3), [[0, 1, 1]])
    with pytest.raises(MeshError, match="repeated vertex"):
        validate_mesh(mesh)


def test_validate_index_out_of_range():
    mesh = TriMesh(np.eye(3), [[0, 1, 3]])
    with pytest.raises(MeshError, match="out of range"):
        validate_mesh(mesh)


def test_validate_near_zero_area():
    vertices = np.array(
        [[0, 0, 0], [1, 0, 0], [0.5, 5e-16, 0], [0.5, -1, 0]], dtype=float
    )
    mesh = TriMesh(vertices, [[0, 1, 2], [1, 0, 3]])
    with pytest.raises(MeshError, match="near-zero area"):
        validate_mesh(mesh)


def test_validate_non_manifold_edge():
    vertices = np.array(
        [[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -1, 0], [0.5, 0, 1]], dtype=float
    )
    mesh = TriMesh(vertices, [[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(MeshError, match="non-manifold"):
        validate_mesh(mesh)


def test_validate_disconnected():
    vertices = np.concatenate([np.eye(3), np.eye(3) + 10.0])
    mesh = TriMesh(vertices, [[0, 1, 2], [3, 4, 5]])
    with pytest.raises(MeshError, match="not connected"):
        validate_mesh(mesh)


def test_validate_isolated_vertex():
    vertices = np.concatenate([np.eye(3), [[5.0, 5.0, 5.0]]])
    mesh = TriMesh(vertices, [[0, 1, 2]])
    with pytest.raises(MeshError, match="not connected"):
        validate_mesh(mesh)


def test_validate_empty_and_nonfinite():
    with pytest.raises(MeshError, match="no triangles"):
        validate_mesh(TriMesh(np.eye(3), np.empty((0, 3), dtype=np.int64)))
    bad = np.eye(3)
    bad[0, 0] = np.nan
    with pytest.raises(MeshError, match="non-finite"):
        validate_mesh(TriMesh(bad, [[0, 1, 2]]))


def test_trimesh_shape_errors():
    with pytest.raises(MeshError):
        TriMesh(np.zeros((3, 2)), [[0, 1, 2]])
    with pytest.raises(MeshError):
        TriMesh(np.eye(3), [[0, 1]])


def test_content_hash_sensitivity():
    mesh = equilateral_triangle()
    same = equilateral_triangle()
    assert mesh.content_hash() == same.content_hash()
    bumped = mesh.vertices.copy()
    bumped[0, 0] += 1e-12
    assert TriMesh(bumped, mesh.triangles).content_hash() != mesh.content_hash()
    relabeled = TriMesh(mesh.vertices, mesh.triangles[:, [1, 2, 0]])
    assert relabeled.content_hash() != mesh.content_hash()


def test_edges_unique_and_sorted():
    edges = equilateral_triangle().edges()
    assert np.array_equal(edges, [[0, 1], [0, 2], [1, 2]])


@pytest.mark.parametrize(
    "mesh", [_shared.sphere(4), bent_bar(3.0, nu=40, nv=6), equilateral_triangle()],
    ids=["icosphere", "bent_bar", "triangle"],
)
def test_edges_match_rowwise_unique(mesh):
    edges = mesh.edges()
    expect = _shared.rowwise_edges(mesh)
    assert edges.dtype == expect.dtype and np.array_equal(edges, expect)
