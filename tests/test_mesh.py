import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meshwave.errors import MeshError
from meshwave.mesh import (
    TriMesh,
    _triangle_geometry,
    cotangent_laplacian,
    lumped_areas,
    validate_mesh,
)
from meshwave.synthetic import (
    bent_bar,
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
    lap = cotangent_laplacian(_shared.equilateral_triangle()).toarray()
    for i in range(3):
        for j in range(3):
            expect = _DIAG if i == j else _OFFDIAG
            assert lap[i, j] == pytest.approx(expect, abs=1e-14)


def test_equilateral_lumped_areas():
    areas = lumped_areas(_shared.equilateral_triangle())
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
    for mesh in (_shared.equilateral_triangle(), _shared.bar(0.4), icosphere(2)):
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_icosphere_refines_the_coarser_icosphere(n):
    # each level keeps the coarser vertices bit for bit, first, and splits
    # its triangles as midpoint_refine does
    coarse, fine = icosphere(n - 1), icosphere(n)
    assert fine.vertices[: coarse.n_vertices].tobytes() == coarse.vertices.tobytes()
    assert np.array_equal(fine.triangles, midpoint_refine(coarse).triangles)


def test_refinement_stability_of_energy():
    coarse = bent_bar(0.3, nu=22, nv=10)
    fine = bent_bar(0.3, nu=43, nv=19)
    e = [2.0 * lumped_areas(m).sum() for m in (coarse, fine)]
    assert abs(e[1] - e[0]) <= 0.01 * e[0]


def test_validate_accepts_good_meshes():
    for mesh in (_shared.equilateral_triangle(), icosphere(1), _shared.bar(0.2)):
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
    mesh = _shared.equilateral_triangle()
    same = _shared.equilateral_triangle()
    assert mesh.content_hash() == same.content_hash()
    bumped = mesh.vertices.copy()
    bumped[0, 0] += 1e-12
    assert TriMesh(bumped, mesh.triangles).content_hash() != mesh.content_hash()
    relabeled = TriMesh(mesh.vertices, mesh.triangles[:, [1, 2, 0]])
    assert relabeled.content_hash() != mesh.content_hash()


def test_edges_unique_and_sorted():
    edges = _shared.equilateral_triangle().edges()
    assert np.array_equal(edges, [[0, 1], [0, 2], [1, 2]])


@pytest.mark.parametrize(
    "mesh", [_shared.sphere(4), bent_bar(3.0, nu=40, nv=6), _shared.equilateral_triangle()],
    ids=["icosphere", "bent_bar", "triangle"],
)
def test_edges_match_rowwise_unique(mesh):
    edges = mesh.edges()
    expect = _shared.rowwise_edges(mesh)
    assert edges.dtype == expect.dtype and np.array_equal(edges, expect)


# ------------------------------------------- per-triangle geometry, by hand


def test_triangle_geometry_matches_hand_formula():
    mesh = bent_bar(0.35, nu=14, nv=6)
    cots, areas = _triangle_geometry(mesh.vertices, mesh.triangles)
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
    mesh = bent_bar(0.35, nu=14, nv=6)
    cots, _ = _triangle_geometry(mesh.vertices, mesh.triangles)
    s = (
        cots[:, 0] * cots[:, 1]
        + cots[:, 1] * cots[:, 2]
        + cots[:, 2] * cots[:, 0]
    )
    assert np.allclose(s, 1.0, atol=1e-10)


def test_vertex_areas_conserve_total():
    mesh = bent_bar(0.35, nu=14, nv=6)
    _, tri_areas = _triangle_geometry(mesh.vertices, mesh.triangles)
    v = lumped_areas(mesh)
    assert v.shape == (mesh.n_vertices,)
    assert v.sum() == pytest.approx(tri_areas.sum(), rel=1e-12)
    assert (v > 0).all()


# ------------------------- the operators trust validate_mesh, checked here

_OPERATOR_MESHES = {
    **{f"icosphere({n})": functools.partial(_shared.sphere, n) for n in range(6)},
    "bar(0.3)": functools.partial(_shared.bar, 0.3),
    "bar(1.2, 30, 8)": functools.partial(_shared.bar, 1.2, 30, 8),
    "bar(3.0, 40, 6)": functools.partial(_shared.bar, 3.0, 40, 6),
}


def _check_operator_invariants(mesh):
    """What a validated mesh guarantees the operators without a check of
    their own: L exactly symmetric, each row sum within 64 eps of the row's
    absolute sum, areas positive and summing to the surface area."""
    lap = cotangent_laplacian(mesh)
    assert (lap != lap.T).nnz == 0
    row_sums = np.abs(np.asarray(lap.sum(axis=1)).ravel())
    row_scale = np.asarray(abs(lap).sum(axis=1)).ravel()
    assert (row_sums <= 64 * np.finfo(float).eps * row_scale).all()
    areas = lumped_areas(mesh)
    total = _triangle_geometry(mesh.vertices, mesh.triangles)[1].sum()
    assert (areas > 0).all()
    assert abs(areas.sum() - total) <= 1e-12 * total


@pytest.mark.parametrize("name", list(_OPERATOR_MESHES))
def test_lumped_areas_equal_the_add_at_oracle(name):
    # one corner-major bincount adds each vertex's shares in the order of
    # the three np.add.at passes, so the bytes agree
    mesh = _OPERATOR_MESHES[name]()
    assert lumped_areas(mesh).tobytes() == _shared.add_at_lumped_areas(mesh).tobytes()


@pytest.mark.parametrize("name", list(_OPERATOR_MESHES))
def test_operator_invariants_hold_on_validated_meshes(name):
    _check_operator_invariants(validate_mesh(_OPERATOR_MESHES[name]()))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(name=st.sampled_from(list(_OPERATOR_MESHES)), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-100, 100), jitter=st.floats(0, 0.1))
def test_operator_invariants_hold_under_motion_scaling_and_jitter(name, seed, log_scale,
                                                                  jitter):
    # every vertex moves by up to `jitter` of the shortest edge, then the
    # mesh is rotated, translated and scaled by 10**log_scale; only meshes
    # validate_mesh accepts reach the operators
    mesh = _OPERATOR_MESHES[name]()
    rng = np.random.default_rng(seed)
    ends = mesh.vertices[mesh.edges()]
    shortest = np.linalg.norm(ends[:, 0] - ends[:, 1], axis=1).min()
    moved = mesh.vertices + jitter * shortest * rng.uniform(-1.0, 1.0, mesh.vertices.shape)
    moved = (moved @ _shared.random_rotation(rng).T + rng.standard_normal(3)) * 10.0**log_scale
    mesh = TriMesh(moved, mesh.triangles)
    try:
        validate_mesh(mesh)
    except MeshError:
        assume(False)
    _check_operator_invariants(mesh)
