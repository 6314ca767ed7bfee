import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import eigsh

from meshwave import spectral
from meshwave.chebyshev import spectral_max
from meshwave.cli import main
from meshwave.errors import DataError, NumericalError
from meshwave.mesh import TriMesh, cotangent_laplacian, lumped_areas, validate_mesh
from meshwave.meshio import write_ply
from meshwave.spectral import (
    eig_generalized,
    load_basis,
    project,
    save_basis,
)
from meshwave.synthetic import bent_bar, icosphere

import _shared


def test_first_mode_is_constant():
    basis = _shared.bar_basis(0.3, 1)
    assert basis.eigenvalues[0] == 0.0
    total = basis.areas.sum()
    assert np.allclose(np.abs(basis.eigenvectors[:, 0]), 1.0 / np.sqrt(total), rtol=1e-10)
    # sign convention picks the positive constant
    assert basis.eigenvectors[0, 0] > 0


def test_triangle_full_basis_orthonormal():
    mesh = _shared.equilateral_triangle()
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
    mesh = _shared.equilateral_triangle()
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


def test_long_spike_keeps_its_zero_mode(tmp_path, capsys):
    # lambda_max / lambda_1 is about 3.5e8 here, so rounding leaves
    # lambda_0 = 2.0e-12 > 1e-8 * lambda_1 although the constant mode is there
    mesh = bent_bar(0.3, 6, 4)
    vertices = mesh.vertices.copy()
    vertices[0, 0] = 256.0
    mesh = TriMesh(vertices, mesh.triangles)
    basis = eig_generalized(cotangent_laplacian(mesh), lumped_areas(mesh), 8)
    assert basis.eigenvalues[0] == 0.0 and (basis.eigenvalues[1:] > 0).all()
    path, out = tmp_path / "spike.ply", tmp_path / "spike.basis.npz"
    write_ply(path, mesh.vertices, mesh.triangles)
    assert main(["basis", str(path), "-k", "8", "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert np.array_equal(load_basis(out).eigenvalues, basis.eigenvalues)


def test_save_load_round_trip(tmp_path):
    basis = _shared.bar_basis(0.3, 8)
    p = tmp_path / "basis.npz"
    save_basis(p, basis)
    loaded = load_basis(p, _shared.bar(0.3))
    assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
    assert np.array_equal(loaded.eigenvectors, basis.eigenvectors)
    assert np.array_equal(loaded.areas, basis.areas)
    assert loaded.mesh_hash == basis.mesh_hash


def test_load_rejects_stale_hash(tmp_path):
    basis = _shared.bar_basis(0.3, 8)
    p = tmp_path / "basis.npz"
    save_basis(p, basis)
    with pytest.raises(DataError, match="stale"):
        load_basis(p, _shared.bar(0.0))  # another pose, the same vertex count


def test_a_cache_that_records_no_mesh_is_checked_by_its_rows(tmp_path):
    # no mesh_hash key makes no claim, so its pairs are checked against the
    # mesh's pencil as any cache's are: another pose of its size is refused
    basis = _shared.bar_basis(0.3, 8)
    p = tmp_path / "basis.npz"
    np.savez(p, version=np.int64(1), eigenvalues=basis.eigenvalues,
             eigenvectors=basis.eigenvectors, areas=basis.areas)
    assert load_basis(p, _shared.bar(0.3)).mesh_hash == ""
    with pytest.raises(DataError, match="inconsistent basis cache: eigenpair residual"):
        load_basis(p, _shared.bar(0.0))
    with pytest.raises(DataError, match=r"basis cache rows \(220\) do not match mesh "
                                        r"vertices \(60\)"):
        load_basis(p, _shared.bar(0.3, nu=10, nv=6))


def _no_hash_bar_cache(path):
    """A 72-vertex bar and the 20 pairs save_basis wrote for it with no mesh hash."""
    mesh = bent_bar(0.3, 12, 6)
    basis = eig_generalized(cotangent_laplacian(mesh), lumped_areas(mesh), 20)
    save_basis(path, basis)
    return mesh, basis


def test_a_cache_saved_with_no_mesh_hash_loads_and_is_checked_by_its_rows(tmp_path):
    # the default mesh_hash "" is stored as a |S1 array that bytes() read back
    # as "\x00", which was refused as not hex; "" is no claim
    mesh, basis = _no_hash_bar_cache(tmp_path / "nohash.npz")
    for served in (None, mesh):
        loaded = load_basis(tmp_path / "nohash.npz", served)
        assert loaded.mesh_hash == ""
        assert loaded.eigenvectors.tobytes() == basis.eigenvectors.tobytes()
    with pytest.raises(DataError, match="inconsistent basis cache: eigenpair residual"):
        load_basis(tmp_path / "nohash.npz", bent_bar(0.6, 12, 6))


def test_a_cache_recording_an_empty_str_mesh_hash_loads_like_bytes(tmp_path):
    # bytes b"" and str "" are both no claim (_files.check_mesh_hash)
    basis = _shared.bar_basis(0.3, 8)
    p = tmp_path / "basis.npz"
    np.savez(p, version=np.int64(1), eigenvalues=basis.eigenvalues,
             eigenvectors=basis.eigenvectors, areas=basis.areas, mesh_hash=np.str_(""))
    assert load_basis(p, _shared.bar(0.3)).mesh_hash == ""


def test_descriptor_with_a_cache_that_records_no_mesh_hash_matches_a_fresh_solve(tmp_path):
    mesh, _ = _no_hash_bar_cache(tmp_path / "nohash.npz")
    write_ply(tmp_path / "bar.ply", mesh.vertices, mesh.triangles)
    argv = ["descriptor", str(tmp_path / "bar.ply"), "-k", "20", "--num", "32"]
    assert main(argv + ["-o", str(tmp_path / "fresh.mwd")]) == 0
    assert main(argv + ["--basis", str(tmp_path / "nohash.npz"),
                        "-o", str(tmp_path / "cached.mwd")]) == 0
    assert (tmp_path / "cached.mwd").read_bytes() == (tmp_path / "fresh.mwd").read_bytes()


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
    dict(eigenvalues=lambda b: np.concatenate([[0.0, 0.0], b.eigenvalues[2:]])),
    dict(eigenvalues=lambda b: b.eigenvalues[None, :]),
    dict(eigenvectors=lambda b: np.where(b.eigenvectors > 0.5, np.nan, b.eigenvectors)),
    dict(eigenvectors=lambda b: b.eigenvectors.astype(np.int64)),
    dict(eigenvectors=lambda b: b.eigenvectors * 1.001),  # Gram deviation 2e-3
], ids=["mismatched-shapes", "zero-area", "short-areas", "descending", "no-zero-mode", "second-zero",
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


@pytest.fixture
def watch(monkeypatch):
    """watch(*names) wraps those spectral functions and returns the list
    that records, in order, the name of each call made to them."""
    calls = []

    def wrap(*names):
        for name in names:
            def record(*args, _fn=getattr(spectral, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(spectral, name, record)
        return calls

    return wrap


def _fan(ring):
    """A flat disk: one hub vertex joined to a ring of `ring` vertices, and a
    second, outer ring.  The hub's valence makes every ordering's band at
    least ring / 2."""
    angles = 2 * np.pi * np.arange(ring) / ring
    rings = [np.stack([r * np.cos(angles + turn), r * np.sin(angles + turn),
                       np.zeros(ring)], axis=1)
             for r, turn in ((1.0, 0.0), (2.0, np.pi / ring))]
    inner = 1 + np.arange(ring)
    outer = inner + ring
    after = np.roll(inner, -1)
    triangles = np.vstack([
        np.stack([np.zeros(ring, dtype=np.int64), inner, after], axis=1),
        np.stack([inner, outer, after], axis=1),
        np.stack([after, outer, np.roll(outer, -1)], axis=1),
    ])
    return validate_mesh(TriMesh(np.vstack([np.zeros((1, 3))] + rings), triangles))


@pytest.mark.parametrize("mesh, k, banded", [
    (icosphere(3), 100, True),  # 642 vertices; k = 100 closes the l = 9 cluster
    (bent_bar(0.3, nu=35, nv=20), 100, True),
    (_fan(400), 21, False),  # 801 vertices, band 398 > 4 sqrt(801)
], ids=["sphere", "bar", "fan"])
def test_lanczos_matches_dense_oracle(watch, mesh, k, banded):
    calls = watch("_shifted_solver", "splu")  # splu only past the band limit
    lap = cotangent_laplacian(mesh)
    areas = lumped_areas(mesh)
    basis = eig_generalized(lap, areas, k)
    assert mesh.n_vertices > spectral._DENSE_LIMIT
    assert calls == (["_shifted_solver"] if banded else ["_shifted_solver", "splu"])
    vals, vecs = scipy.linalg.eigh(lap.toarray(), np.diag(areas))
    lam_max = vals[k - 1]
    assert vals[k] - lam_max > 1e-3 * lam_max  # the cut falls on a gap
    assert np.abs(basis.eigenvalues - vals[:k]).max() <= 1e-10 * lam_max
    # rank-k spectral projectors, in the A^1/2 frame where they are orthogonal
    half = np.sqrt(areas)[:, None]
    got, expect = half * basis.eigenvectors, half * vecs[:, :k]
    assert np.linalg.norm(got @ got.T - expect @ expect.T, 2) <= 1e-9


def test_lanczos_basis_cache_is_byte_identical(tmp_path):
    mesh = _shared.bar(0.3, nu=35, nv=20)
    for name in ("a.npz", "b.npz"):
        save_basis(tmp_path / name, _shared.basis_of(mesh, 30))
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


def test_shifted_operator_that_is_not_definite_is_numerical():
    mesh = _shared.bar(0.3, nu=35, nv=20)
    lap = cotangent_laplacian(mesh).tolil()
    lap[0, 0] = -1e3  # C - sigma I has a negative pivot
    with pytest.raises(NumericalError, match="not positive definite"):
        eig_generalized(lap.tocsr(), lumped_areas(mesh), 20)


@pytest.mark.parametrize("grid", [(32, 14), (50, 22)])
@pytest.mark.parametrize("curvature", [0.25, 0.9, 0.55])
def test_spectral_max_is_the_former_inline_expression(grid, curvature):
    mesh = bent_bar(curvature, *grid)
    lap, areas = cotangent_laplacian(mesh), lumped_areas(mesh)
    inv_sqrt = 1.0 / np.sqrt(areas)
    sym = sparse.csr_matrix(lap).multiply(inv_sqrt[:, None]).multiply(inv_sqrt[None, :])
    rng = np.random.default_rng(0x5EED)
    expect = float(eigsh(sym.tocsc(), k=1, which="LA", v0=rng.standard_normal(len(areas)),
                         return_eigenvectors=False)[0])
    assert spectral_max(lap, areas) == expect


@pytest.mark.parametrize("mesh, k", [
    (bent_bar(0.3, 30, 14), 100),  # 420 vertices, the training bar
    (icosphere(2), 96),  # 162 vertices; degenerate clusters, the cut closes one
], ids=["bar", "sphere"])
def test_dense_matches_generalized_oracle(mesh, k):
    lap = cotangent_laplacian(mesh)
    areas = lumped_areas(mesh)
    basis = eig_generalized(lap, areas, k)
    assert mesh.n_vertices <= spectral._DENSE_LIMIT
    vals, vecs = scipy.linalg.eigh(lap.toarray(), np.diag(areas))
    lam_max = basis.lambda_max
    assert np.abs(basis.eigenvalues - vals[:k]).max() <= 1e-12 * lam_max
    # A-weighted projectors onto each whole cluster, in the A^1/2 frame
    bounds = np.flatnonzero(np.diff(vals[:k + 1]) > 1e-6 * lam_max) + 1
    assert bounds[-1] == k
    half = np.sqrt(areas)[:, None]
    for lo, hi in zip(np.r_[0, bounds[:-1]], bounds):
        got, expect = half * basis.eigenvectors[:, lo:hi], half * vecs[:, lo:hi]
        assert np.linalg.norm(got @ got.T - expect @ expect.T) <= 1e-10, (lo, hi)


@pytest.mark.parametrize("drop", [0, 1], ids=["k=n", "k=n-1"])
def test_dense_full_spectrum_keeps_the_exact_zero_mode(monkeypatch, drop):
    monkeypatch.setattr(spectral, "_DENSE_LIMIT", 0)  # only k >= n - 1 routes to dense
    mesh = _shared.bar(0.3, nu=6, nv=4)
    areas = lumped_areas(mesh)
    basis = eig_generalized(cotangent_laplacian(mesh), areas, mesh.n_vertices - drop)
    assert basis.k == mesh.n_vertices - drop
    assert basis.eigenvalues[0] == 0.0 and (basis.eigenvalues[1:] > 0).all()
    expect = 1.0 / np.sqrt(areas.sum())
    assert np.abs(basis.eigenvectors[:, 0] - expect).max() <= 1e-12 * expect


def test_dense_and_lanczos_branches_agree(monkeypatch):
    mesh = bent_bar(0.3, 50, 10)  # 500 vertices, dense by default
    lap = cotangent_laplacian(mesh)
    areas = lumped_areas(mesh)
    dense = eig_generalized(lap, areas, 100)
    monkeypatch.setattr(spectral, "_DENSE_LIMIT", 400)
    lanczos = eig_generalized(lap, areas, 100)
    lam_max = dense.lambda_max
    assert np.abs(lanczos.eigenvalues - dense.eigenvalues).max() <= 1e-10 * lam_max
    half = np.sqrt(areas)[:, None]
    got, expect = half * lanczos.eigenvectors, half * dense.eigenvectors
    assert np.linalg.norm(got @ got.T - expect @ expect.T, 2) <= 1e-9


def _cluster_errors(basis, areas, vals, vecs):
    """Largest eigenvalue error over lambda_k, and the largest 2-norm error
    of the A-weighted projector onto each whole oracle cluster below the cut.
    In the A^1/2 frame both projectors are orthogonal and of equal rank, so
    that error is |(I - P_got) P_expect| = |E - G G'E|."""
    k = basis.k
    scale = vals[k]  # the first eigenvalue past the cut, positive even at k = 1
    bounds = np.flatnonzero(np.diff(vals[:k + 1]) > 1e-6 * scale) + 1
    half = np.sqrt(areas)[:, None]
    proj = 0.0
    for lo, hi in zip(np.r_[0, bounds[:-1]], bounds):
        got, expect = half * basis.eigenvectors[:, lo:hi], half * vecs[:, lo:hi]
        proj = max(proj, np.linalg.norm(expect - got @ (got.T @ expect), 2))
    return np.abs(basis.eigenvalues - vals[:k]).max() / scale, proj


def _sphere_against_arpack(watch, k):
    """_cluster_errors of the k-pair basis of the 2,562-vertex icosphere."""
    krylov_runs = watch("_krylov_schur")
    mesh = icosphere(4)
    lap, areas = cotangent_laplacian(mesh), lumped_areas(mesh)
    basis = eig_generalized(lap, areas, k)
    assert len(krylov_runs) == 1
    # ARPACK on the pencil itself with SuperLU solves: no standard form, band
    # factor or Krylov-Schur code in the oracle
    sigma = -0.01 * lap.diagonal().sum() / areas.sum()
    vals, vecs = eigsh(lap.tocsc(), k=k + 8, M=sparse.diags(areas).tocsc(), sigma=sigma,
                       which="LM", tol=0, v0=np.random.default_rng(1).standard_normal(len(areas)))
    order = np.argsort(vals)
    return _cluster_errors(basis, areas, vals[order], vecs[:, order])


def test_krylov_schur_matches_arpack_on_the_2562_vertex_sphere(watch):
    eig_err, proj_err = _sphere_against_arpack(watch, 100)
    assert eig_err <= 1e-10 and proj_err <= 1e-9


def test_krylov_schur_stop_with_the_cut_inside_a_cluster_matches_arpack(watch):
    # k = 101 keeps one member of the 4-fold lambda ~ 105.6 cluster, so the
    # stop rule waits for the pads inside that cluster to converge
    eig_err, proj_err = _sphere_against_arpack(watch, 101)
    assert eig_err <= 1e-10 and proj_err <= 1e-9


@pytest.mark.parametrize("k", [1, 2, 5])  # k + pad < 2 blocks
def test_krylov_schur_few_pairs_match_dense_oracle(watch, k):
    krylov_runs = watch("_krylov_schur")
    mesh = bent_bar(0.3, nu=35, nv=20)  # 700 vertices
    lap, areas = cotangent_laplacian(mesh), lumped_areas(mesh)
    basis = eig_generalized(lap, areas, k)
    assert len(krylov_runs) == 1 and k + spectral._PAD < 2 * spectral._BLOCK
    vals, vecs = scipy.linalg.eigh(lap.toarray(), np.diag(areas))
    eig_err, proj_err = _cluster_errors(basis, areas, vals, vecs)
    assert eig_err <= 1e-10 and proj_err <= 1e-9


@pytest.mark.parametrize("mesh, k, krylov", [
    # Krylov-Schur restarts 4 times at 642 vertices, k = 100, and 3 times at
    # 1,000 vertices, k = 200
    pytest.param(icosphere(3), 100, True, id="100-True"),
    pytest.param(bent_bar(0.3, 50, 20), 200, True, id="bar-200-True"),
    # past n / 4 wanted pairs the dense branch runs
    pytest.param(icosphere(3), 300, False, id="300-False"),
    pytest.param(icosphere(3), 500, False, id="500-False"),
    pytest.param(icosphere(3), 640, False, id="640-False"),
])
def test_many_pairs_match_dense_oracle(watch, mesh, k, krylov):
    krylov_runs = watch("_krylov_schur")
    lap, areas = cotangent_laplacian(mesh), lumped_areas(mesh)
    basis = eig_generalized(lap, areas, k)
    assert len(krylov_runs) == krylov
    vals, vecs = scipy.linalg.eigh(lap.toarray(), np.diag(areas))
    eig_err, proj_err = _cluster_errors(basis, areas, vals, vecs)
    assert eig_err <= 1e-10 and proj_err <= 1e-9


def test_krylov_schur_locks_part_of_a_degenerate_cluster(monkeypatch):
    # T = Q diag(theta) Q' with a 5-fold and an 8-fold cluster among the 40
    # wanted pairs; locking stops inside a cluster, so the rest of it has to
    # converge in the active rows against its locked members
    n, n_want = 400, 40
    lam = np.linspace(0.01, 1.01, n)
    lam[10:15], lam[24:32] = lam[10], lam[24]
    theta = 1.0 / lam
    q = np.linalg.qr(np.random.default_rng(7).standard_normal((n, n)))[0]
    op = (q * theta) @ q.T
    sizes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
    got, vecs = spectral._krylov_schur(lambda rhs: op @ rhs, n, n_want, n_want)
    locked = sizes[0] - np.array(sizes)  # rows locked before each Rayleigh-Ritz step
    assert (((10 < locked) & (locked < 15)) | ((24 < locked) & (locked < 32))).any()
    order = np.argsort(-got)
    assert np.abs(got[order] - theta[:n_want]).max() <= 1e-12 * theta[0]
    assert np.abs(vecs.T @ vecs - np.eye(n_want)).max() <= 1e-13
    wanted = q[:, :n_want]
    assert np.linalg.norm(wanted - vecs @ (vecs.T @ wanted), 2) <= 1e-11


def test_restart_cap_is_a_numerical_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(spectral, "_MAX_RESTARTS", 0)
    mesh = bent_bar(0.3, nu=35, nv=20)
    with pytest.raises(NumericalError, match="did not converge"):
        eig_generalized(cotangent_laplacian(mesh), lumped_areas(mesh), 20)
    path, out = tmp_path / "bar.ply", tmp_path / "bar.basis.npz"
    write_ply(path, mesh.vertices, mesh.triangles)
    assert main(["basis", str(path), "-k", "20", "-o", str(out)]) == 3
    assert "did not converge" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [path]


def test_krylov_schur_stops_once_the_kept_pairs_are_locked(monkeypatch):
    # the 6-fold cluster theta[30:36] straddles the cut at k = 33: its pads
    # could sort into the kept set, so they converge before the run stops,
    # while the pads past it are left unconverged
    n, n_want, k = 400, 40, 33
    lam = np.linspace(0.01, 1.01, n)
    lam[10:15], lam[30:36] = lam[10], lam[30]
    theta = 1.0 / lam
    q = np.linalg.qr(np.random.default_rng(7).standard_normal((n, n)))[0]
    op = (q * theta) @ q.T
    steps, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: steps.append(len(a)) or eigh(a))
    kept_theta, kept = spectral._krylov_schur(lambda rhs: op @ rhs, n, n_want, k)
    kept_steps = len(steps)
    all_theta, every = spectral._krylov_schur(lambda rhs: op @ rhs, n, n_want, n_want)
    assert kept_steps < len(steps) - kept_steps
    assert np.array_equal(kept_theta[:k], all_theta[:k])
    assert np.array_equal(kept[:, :k], every[:, :k])
    assert np.abs(kept_theta[:36] - theta[:36]).max() <= 1e-12 * theta[0]
    assert (kept_theta[36:] < theta[k - 1]).all()
    assert np.abs(kept[:, :k].T @ kept[:, :k] - np.eye(k)).max() <= 1e-13
    cluster = q[:, 30:36]
    assert np.linalg.norm(kept[:, 30:k] - cluster @ (cluster.T @ kept[:, 30:k]), 2) <= 1e-11
    wanted = q[:, :30]
    assert np.linalg.norm(wanted - kept[:, :k] @ (kept[:, :k].T @ wanted), 2) <= 1e-11


def test_krylov_schur_with_k_kept_runs_one_restart_cycle_fewer(monkeypatch):
    mesh = icosphere(4)
    lap, areas = cotangent_laplacian(mesh), lumped_areas(mesh)
    sym = spectral.standard_form(lap, areas)[0].tocsr()
    solve = spectral._shifted_solver(sym, -0.01 * lap.diagonal().sum() / areas.sum())[0]
    counts, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: counts.append("eigh") or eigh(a))

    def counted(rhs):
        counts.append("solve")
        return solve(rhs)

    runs = []
    n_want = 100 + spectral._PAD
    for kept in (100, n_want):
        counts.clear()
        spectral._krylov_schur(counted, mesh.n_vertices, n_want, kept)
        runs.append((counts.count("solve"), counts.count("eigh")))
    (solves, steps), (all_solves, all_steps) = runs
    assert (all_solves - solves, all_steps - steps) == (6, 1)
