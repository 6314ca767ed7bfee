import numpy as np
import pytest
import scipy.linalg

from meshwave.errors import DataError, NumericalError
from meshwave.mesh import cotangent_laplacian, lumped_areas
from meshwave.spectral import (
    eig_generalized,
    load_basis,
    project,
    save_basis,
)
from meshwave.synthetic import equilateral_triangle, icosphere

import _shared


def test_first_mode_is_constant():
    basis = _shared.bar_basis(0.3, 1)
    assert basis.eigenvalues[0] == 0.0
    total = basis.areas.sum()
    assert np.allclose(np.abs(basis.eigenvectors[:, 0]), 1.0 / np.sqrt(total), rtol=1e-10)
    # sign convention picks the positive constant
    assert basis.eigenvectors[0, 0] > 0


def test_triangle_full_basis_orthonormal():
    mesh = equilateral_triangle()
    basis = _shared.basis_of(mesh, 3)
    gram = basis.eigenvectors.T @ (basis.areas[:, None] * basis.eigenvectors)
    assert np.allclose(gram, np.eye(3), atol=1e-12)
    assert (np.diff(basis.eigenvalues) >= 0).all()


def test_eigen_residuals():
    mesh = _shared.bar(0.4)
    lap = cotangent_laplacian(mesh)
    basis = _shared.bar_basis(0.4, 12)
    lhs = lap @ basis.eigenvectors
    rhs = basis.areas[:, None] * basis.eigenvectors * basis.eigenvalues[None, :]
    assert np.abs(lhs - rhs).max() <= 1e-8 * max(basis.eigenvalues.max(), 1.0)


def test_sign_convention_largest_entry_positive():
    for basis in (_shared.bar_basis(0.3, 20), _shared.sphere_basis(2, 20)):
        idx = np.argmax(np.abs(basis.eigenvectors), axis=0)
        picked = basis.eigenvectors[idx, np.arange(basis.k)]
        assert (picked > 0).all()


def test_iterative_matches_dense_oracle():
    # 642 vertices exceeds the dense threshold, so this exercises the
    # shift-invert path against a full scipy.linalg.eigh solve
    mesh = _shared.sphere(3)
    basis = _shared.sphere_basis(3, 20)
    lap = cotangent_laplacian(mesh).toarray()
    areas = lumped_areas(mesh)
    vals = scipy.linalg.eigh(lap, np.diag(areas), eigvals_only=True)
    assert np.allclose(basis.eigenvalues[1:], vals[1:20], rtol=1e-7, atol=1e-9)


def test_sphere_eigenvalue_bands():
    # unit sphere spectrum is l(l+1) with multiplicity 2l+1
    basis = _shared.sphere_basis(4, 16)
    bands = [(0, 1, 0.0), (1, 4, 2.0), (4, 9, 6.0), (9, 16, 12.0)]
    for lo, hi, expect in bands:
        got = basis.eigenvalues[lo:hi]
        if expect == 0.0:
            assert np.abs(got).max() <= 1e-10
        else:
            assert np.abs(got - expect).max() <= 0.05 * expect


def test_project_constant():
    basis = _shared.bar_basis(0.3, 10)
    total = basis.areas.sum()
    sigma = project(basis, np.full(basis.n_vertices, 3.0))
    assert sigma[0] == pytest.approx(3.0 * np.sqrt(total), rel=1e-10)
    assert np.abs(sigma[1:]).max() <= 1e-10 * abs(sigma[0])


def test_project_of_eigenvector_is_unit():
    basis = _shared.bar_basis(0.3, 10)
    sigma = project(basis, basis.eigenvectors[:, 4])
    expect = np.zeros(10)
    expect[4] = 1.0
    assert np.allclose(sigma, expect, atol=1e-10)


def test_round_trip_full_basis(rng):
    mesh = _shared.bar(0.3, nu=8, nv=4)
    basis = _shared.basis_of(mesh, mesh.n_vertices)
    f = rng.standard_normal(mesh.n_vertices)
    back = basis.eigenvectors @ project(basis, f)
    assert np.abs(back - f).max() <= 1e-8 * np.abs(f).max()


def test_parseval_full_basis(rng):
    mesh = _shared.bar(0.3, nu=8, nv=4)
    basis = _shared.basis_of(mesh, mesh.n_vertices)
    f = rng.standard_normal(mesh.n_vertices)
    sigma = project(basis, f)
    assert float(sigma @ sigma) == pytest.approx(float(f @ (basis.areas * f)), rel=1e-10)


def test_project_matrix_columns(rng):
    basis = _shared.bar_basis(0.3, 10)
    f = rng.standard_normal((basis.n_vertices, 3))
    sigma = project(basis, f)
    assert sigma.shape == (10, 3)
    assert np.allclose(sigma[:, 1], project(basis, f[:, 1]), atol=1e-14)


def test_truncated_basis_reconstruction_error():
    mesh = _shared.sphere(2)
    k = mesh.n_vertices // 2
    basis = _shared.sphere_basis(2, k)
    coords = mesh.vertices
    back = basis.eigenvectors @ project(basis, coords)
    rel = np.linalg.norm(back - coords) / np.linalg.norm(coords)
    assert rel <= 0.05


def test_permutation_leaves_spectrum(rng):
    mesh = _shared.bar(0.35, nu=9, nv=5)
    perm = rng.permutation(mesh.n_vertices)
    permuted = _shared.permute_mesh(mesh, perm)
    a = _shared.basis_of(mesh, 12)
    b = _shared.basis_of(permuted, 12)
    assert np.allclose(a.eigenvalues, b.eigenvalues, rtol=1e-8, atol=1e-10)


def test_k_out_of_range():
    mesh = equilateral_triangle()
    lap = cotangent_laplacian(mesh)
    areas = lumped_areas(mesh)
    with pytest.raises(DataError, match="out of range"):
        eig_generalized(lap, areas, 4)
    with pytest.raises(DataError, match="out of range"):
        eig_generalized(lap, areas, 0)


def test_broken_operator_rejected():
    mesh = _shared.bar(0.3, nu=6, nv=4)
    lap = cotangent_laplacian(mesh).tolil()
    lap[0, 0] = -50.0  # destroys positive semidefiniteness
    with pytest.raises(NumericalError):
        eig_generalized(lap.tocsr(), lumped_areas(mesh), 5)


def test_save_load_round_trip(tmp_path):
    basis = _shared.bar_basis(0.3, 8)
    p = tmp_path / "basis.npz"
    save_basis(p, basis)
    loaded = load_basis(p, expect_mesh_hash=basis.mesh_hash)
    assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
    assert np.array_equal(loaded.eigenvectors, basis.eigenvectors)
    assert np.array_equal(loaded.areas, basis.areas)
    assert loaded.mesh_hash == basis.mesh_hash


def test_load_rejects_stale_hash(tmp_path):
    basis = _shared.bar_basis(0.3, 8)
    p = tmp_path / "basis.npz"
    save_basis(p, basis)
    with pytest.raises(DataError, match="stale"):
        load_basis(p, expect_mesh_hash="0" * 64)


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "junk.npz"
    p.write_bytes(b"not an npz archive")
    with pytest.raises(DataError):
        load_basis(p)


def test_load_rejects_foreign_npz(tmp_path):
    p = tmp_path / "other.npz"
    np.savez(p, something=np.arange(4))
    with pytest.raises(DataError):
        load_basis(p)


def _cache_arrays(basis):
    return dict(version=np.int64(1), eigenvalues=basis.eigenvalues,
                eigenvectors=basis.eigenvectors, areas=basis.areas,
                mesh_hash=np.bytes_(basis.mesh_hash.encode()))


def _zero_area(areas):
    areas = areas.copy()
    areas[3] = 0.0
    return areas


@pytest.mark.parametrize("override", [
    dict(eigenvalues=np.arange(3.0), eigenvectors=np.zeros((5, 2)), areas=np.ones(7)),
    dict(areas=lambda b: _zero_area(b.areas)),
    dict(areas=lambda b: b.areas[:-1]),
    dict(eigenvalues=lambda b: b.eigenvalues[::-1].copy()),
    dict(eigenvalues=lambda b: b.eigenvalues + 1.0),
    dict(eigenvalues=lambda b: b.eigenvalues[None, :]),
    dict(eigenvectors=lambda b: np.where(b.eigenvectors > 0.5, np.nan, b.eigenvectors)),
    dict(eigenvectors=lambda b: b.eigenvectors.astype(np.int64)),
    dict(eigenvectors=lambda b: b.eigenvectors * 1.001),  # Gram deviation 2e-3
], ids=["mismatched-shapes", "zero-area", "short-areas", "descending", "no-zero-mode",
        "2d-eigenvalues", "nan-eigenvector", "integer-eigenvectors", "scaled-eigenvectors"])
def test_load_rejects_inconsistent_cache(tmp_path, override):
    basis = _shared.bar_basis(0.3, 8)
    arrays = _cache_arrays(basis)
    arrays.update({k: v(basis) if callable(v) else v for k, v in override.items()})
    p = tmp_path / "bad.npz"
    np.savez(p, **arrays)
    with pytest.raises(DataError, match="inconsistent basis cache"):
        load_basis(p)


def test_determinism():
    a = _shared.basis_of(_shared.bar(0.3), 15)
    b = _shared.basis_of(_shared.bar(0.3), 15)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_lambda_max_property():
    basis = _shared.bar_basis(0.3, 12)
    assert basis.lambda_max == basis.eigenvalues[-1]
    assert basis.k == 12
