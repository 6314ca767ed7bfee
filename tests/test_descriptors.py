import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from meshwave import wavelets
from meshwave.descriptors import (
    DescriptorField,
    _decompose_with_responses,
    dirichlet_energy,
    export_descriptors_csv,
    hks,
    load_descriptors,
    save_descriptors,
    subsample_columns,
    weds,
    wks,
)
from meshwave.errors import DataError, NumericalError
from meshwave.filters import build_filter_bank, filter_responses, select_scales
from meshwave.mesh import TriMesh, cotangent_laplacian, lumped_areas
from meshwave.synthetic import bent_bar, icosphere

import _shared


def test_dirichlet_energy_basics(rng):
    mesh = _shared.bar(0.3)
    lap = cotangent_laplacian(mesh)
    areas = lumped_areas(mesh)
    assert dirichlet_energy(lap, np.full(mesh.n_vertices, 4.2)) <= 1e-12
    coords = dirichlet_energy(lap, mesh.vertices)
    assert coords.sum() == pytest.approx(2.0 * areas.sum(), rel=1e-12)
    basis = _shared.bar_basis(0.3, 10)
    for j in (1, 5, 9):
        e = dirichlet_energy(lap, basis.eigenvectors[:, j])
        assert e == pytest.approx(basis.eigenvalues[j], rel=1e-8)


def _loop_decomposition(basis, responses, signals, power):
    """Literal translation of the energy table definition; quadratic in
    everything, used only on tiny meshes."""
    n, k = basis.eigenvectors.shape
    d = signals.shape[1]
    n_filt = responses.shape[0]
    phi, areas, lam = basis.eigenvectors, basis.areas, basis.eigenvalues
    sigma = np.zeros((k, d))
    for j in range(1, k):
        for i in range(d):
            sigma[j, i] = (areas * phi[:, j] * signals[:, i]).sum()
    tables = np.zeros((n_filt, n, d))
    for m in range(n_filt):
        for v in range(n):
            for i in range(d):
                tables[m, v, i] = areas[v] * (responses[m] * sigma[:, i] * phi[v]).sum()
    omega = np.zeros((k, d))
    for j in range(k):
        for i in range(d):
            total = 0.0
            for m in range(n_filt):
                total += responses[m, j] * (tables[m, :, i] * phi[:, j]).sum()
            omega[j, i] = total
    eps = np.zeros((n_filt, n))
    for m in range(n_filt):
        for v in range(n):
            for i in range(d):
                f = (phi[v] * lam ** power * responses[m] * omega[:, i]).sum()
                eps[m, v] += tables[m, v, i] * f
    return eps


def test_energy_table_matches_loop_oracle():
    mesh = _shared.bar(0.3, nu=8, nv=4)
    basis = _shared.basis_of(mesh, mesh.n_vertices)
    bank = _shared.bank_for(basis.lambda_max)
    responses = filter_responses(bank, basis.eigenvalues)
    for power in (1, 2):
        fast = _decompose_with_responses(basis, responses.T, mesh.vertices, power)
        slow = _loop_decomposition(basis, responses, mesh.vertices, power)
        assert np.abs(fast - slow).max() <= 1e-10 * np.abs(slow).max()


@pytest.mark.parametrize("case", ["sphere-lanczos", "bar-dense"])
def test_energy_table_matches_three_stage_oracle(case):
    # the frame-function coupling G sigma against the explicit Phi' A GEMM
    if case == "sphere-lanczos":
        basis, mesh = _shared.sphere_basis(4, 100), _shared.sphere(4)
    else:
        mesh = _shared.bar(0.3, nu=8, nv=4)
        basis = _shared.basis_of(mesh, mesh.n_vertices)
    responses = filter_responses(_shared.bank_for(basis.lambda_max), basis.eigenvalues).T
    for power in (1, 2):
        got = _decompose_with_responses(basis, responses, mesh.vertices, power)
        want = _shared.three_stage_energy(basis, responses, mesh.vertices, power)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_exact_frame_conserves_energy():
    # a 0/1 partition of the modes is an exactly tight frame, so the
    # power-1 table must add up to the Dirichlet energy to rounding
    mesh = _shared.bar(0.3, nu=8, nv=4)
    basis = _shared.basis_of(mesh, mesh.n_vertices)
    k = basis.k
    responses = np.zeros((4, k))
    for j in range(k):
        responses[j % 4, j] = 1.0
    eps = _decompose_with_responses(basis, responses.T, mesh.vertices, 1)
    lap = cotangent_laplacian(mesh)
    total = dirichlet_energy(lap, mesh.vertices).sum()
    assert eps.sum() == pytest.approx(total, rel=1e-6)


def test_stock_bank_conserves_energy_within_slack():
    # |G-1| <= 0.01 pointwise allows a few percent once energies couple
    mesh = _shared.bar(0.3, nu=8, nv=4)
    basis = _shared.basis_of(mesh, mesh.n_vertices)
    bank = _shared.bank_for(basis.lambda_max)
    eps = _shared.energy_decomposition(basis, bank, mesh.vertices, power=1)
    total = dirichlet_energy(cotangent_laplacian(mesh), mesh.vertices).sum()
    assert abs(eps.sum() - total) <= 0.03 * total


def test_translation_blind():
    mesh = _shared.bar(0.3, nu=8, nv=4)
    basis = _shared.basis_of(mesh, mesh.n_vertices)
    bank = _shared.bank_for(basis.lambda_max)
    a = _shared.energy_decomposition(basis, bank, mesh.vertices)
    b = _shared.energy_decomposition(basis, bank, mesh.vertices + np.array([5.0, -2.0, 0.7]))
    assert np.abs(a - b).max() <= 1e-8 * np.abs(a).max()


def test_power_validation():
    # weds checks the power before its energy table, which trusts it
    basis = _shared.bar_basis(0.3, 5)
    bank = _shared.bank_for(basis.lambda_max)
    with pytest.raises(DataError, match="power must be 1 or 2, got 3"):
        weds(basis, bank, np.ones((basis.n_vertices, 3)), power=3)


def test_minmax_columns():
    m = np.array([[2.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
    out = _shared.minmax_columns(m)
    assert np.array_equal(out[:, 0], [1.0, 0.0, 0.5])
    assert np.array_equal(out[:, 1], [0.5, 0.5, 0.5])  # constant column


def test_subsample_columns():
    assert list(subsample_columns(128, 4)) == [0, 32, 64, 96]
    assert list(subsample_columns(5, 5)) == [0, 1, 2, 3, 4]
    with pytest.raises(DataError):
        subsample_columns(4, 5)


def test_weds_shapes_and_metadata():
    basis = _shared.bar_basis(0.3, 40)
    bank = _shared.bank_for(basis.lambda_max)
    mesh = _shared.bar(0.3)
    field = weds(basis, bank, mesh.vertices, n_dims=128)
    assert field.values.shape == (mesh.n_vertices, 128)
    assert field.kind == "weds"
    assert field.metadata["k"] == 40
    assert field.metadata["sample_count"] == 128
    tiny = weds(basis, bank, mesh.vertices, n_dims=96)
    assert tiny.values.shape == (mesh.n_vertices, 96)
    with pytest.raises(DataError):
        weds(basis, bank, mesh.vertices, n_dims=2048)


@pytest.mark.parametrize("n_dims", [96, 128, 384, 1024])  # 1024 repeats scale 16
@pytest.mark.parametrize("shape", ["bar", "sphere"])
def test_weds_matches_dense_oracle(shape, n_dims):
    if shape == "bar":
        basis, mesh = _shared.bar_basis(0.3, 40), _shared.bar(0.3)
    else:
        basis, mesh = _shared.sphere_basis(3, 60), _shared.sphere(3)
    bank = _shared.bank_for(basis.lambda_max)
    got = weds(basis, bank, mesh.vertices, n_dims=n_dims).values
    want = _shared.dense_weds(basis, bank, mesh.vertices, n_dims)
    assert got.shape == want.shape == (mesh.n_vertices, n_dims)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_weds_flat_atoms_weigh_every_vertex_by_half():
    # a wavelet scale so coarse that its response underflows to 0 at every
    # eigenvalue has all-zero atoms: every column is flat
    basis, mesh = _shared.bar_basis(0.3, 40), _shared.bar(0.3)
    bank = _shared.bank_for(basis.lambda_max)
    scales = bank.scales.copy()
    scales[select_scales(96)[0] - 1] = 1e3 / basis.eigenvalues[1]
    flat_bank = dataclasses.replace(bank, scales=scales)
    got = weds(basis, flat_bank, mesh.vertices, n_dims=96).values
    want = _shared.dense_weds(basis, flat_bank, mesh.vertices, 96)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    totals = _shared.energy_decomposition(basis, flat_bank, mesh.vertices).sum(axis=1)
    assert np.array_equal(got[:, :32], np.broadcast_to(0.5 * totals[:32], (mesh.n_vertices, 32)))


def test_atom_ranges_blockwise_with_constant_columns(rng, monkeypatch):
    monkeypatch.setattr(wavelets, "_BLOCK_ENTRIES", 200)  # tiles 8 vertices wide
    n = 30
    phi = np.column_stack([np.full(n, 0.5), rng.standard_normal((n, 3))])
    # a general filter, the zero filter, and one passing only the constant mode
    responses = np.column_stack([rng.standard_normal(4), np.zeros(4), [2.0, 0.0, 0.0, 0.0]])
    (l1,) = wavelets._atom_sweep(phi, responses, "l1")
    lo, hi = wavelets._atom_sweep(phi, responses, "range")
    dense = (phi * responses[:, 0]) @ phi.T
    tol = 1e-14 * np.abs(dense).max()
    assert np.abs(lo[:, 0] - dense.min(axis=0)).max() <= tol
    assert np.abs(hi[:, 0] - dense.max(axis=0)).max() <= tol
    assert np.abs(l1[:, 0] - np.abs(dense).sum(axis=0)).max() <= n * tol
    assert (lo[:, 1] == 0.0).all() and (hi[:, 1] == 0.0).all() and (l1[:, 1] == 0.0).all()
    assert (lo[:, 2] == 0.5).all() and (hi[:, 2] == 0.5).all()
    assert np.allclose(l1[:, 2], 0.5 * n, rtol=1e-15)


def test_weds_memory_stays_below_one_atom_matrix():
    basis = _shared.sphere_basis(4, 100)
    n = basis.n_vertices
    bank = _shared.bank_for(basis.lambda_max)
    tracemalloc.start()
    try:
        field = weds(basis, bank, _shared.sphere(4).vertices)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert field.values.shape == (n, 128)
    # one dense atom matrix alone would take n^2 * 8 bytes
    assert peak < n * n * 8


def test_weds_rigid_invariance(rng):
    mesh = _shared.bar(0.4)
    rot = _shared.random_rotation(rng)
    moved = TriMesh(mesh.vertices @ rot.T + np.array([1.0, 2.0, -0.5]), mesh.triangles)
    ba = _shared.basis_of(mesh, 40)
    bb = _shared.basis_of(moved, 40)
    bank_a = _shared.bank_for(ba.lambda_max)
    bank_b = _shared.bank_for(bb.lambda_max)
    da = weds(ba, bank_a, mesh.vertices).values
    db = weds(bb, bank_b, moved.vertices).values
    assert np.abs(da - db).max() <= 1e-8 * np.abs(da).max()


def test_weds_scale_invariance():
    mesh = _shared.bar(0.4, nu=12, nv=6)
    scaled = TriMesh(mesh.vertices * 2.0, mesh.triangles)
    ba = _shared.basis_of(mesh, 30)
    bs = _shared.basis_of(scaled, 30)
    da = weds(ba, _shared.bank_for(ba.lambda_max), mesh.vertices).values
    ds = weds(bs, _shared.bank_for(bs.lambda_max), scaled.vertices).values
    assert np.abs(da - ds).max() <= 1e-6 * np.abs(da).max()
    # power=1 energies pick up the squared scale factor instead
    ea = _shared.energy_decomposition(ba, _shared.bank_for(ba.lambda_max), mesh.vertices, 1)
    es = _shared.energy_decomposition(bs, _shared.bank_for(bs.lambda_max), scaled.vertices, 1)
    assert np.abs(es - 4.0 * ea).max() <= 1e-6 * np.abs(es).max()


def test_weds_permutation_equivariance(rng):
    mesh = _shared.bar(0.3, nu=9, nv=5)
    basis = _shared.basis_of(mesh, 20)
    bank = _shared.bank_for(basis.lambda_max)
    perm = rng.permutation(mesh.n_vertices)
    permuted = _shared.permute_basis(basis, perm)
    base = weds(basis, bank, mesh.vertices).values
    # row perm[v] of the relabeled run must be row v of the base run
    moved = weds(permuted, bank, mesh.vertices[_inverse(perm)]).values
    assert np.allclose(moved[perm], base, rtol=1e-10, atol=1e-12 * np.abs(base).max())


def _inverse(perm):
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.shape[0])
    return inv


def test_sphere_antipodal_symmetry():
    mesh = _shared.sphere(2)
    perm = _shared.antipodal_permutation(mesh)
    basis = _shared.sphere_basis(2, 36)  # k on a full multiplet boundary
    bank = build_filter_bank(basis.lambda_max, eigenvalues=basis.eigenvalues)
    values = weds(basis, bank, mesh.vertices, n_dims=64).values
    assert np.abs(values[perm] - values).max() <= 1e-6 * np.abs(values).max()


def test_weds_discriminates_poses():
    # two bends of the same bar: nearest-descriptor matching should be
    # nearly perfect for the multiscale descriptor and clearly weaker
    # for the heat kernel baseline
    mesh_a = _shared.bar(0.4)
    mesh_b = _shared.bar(0.5)
    ba = _shared.bar_basis(0.4, 100)
    bb = _shared.bar_basis(0.5, 100)
    da = weds(ba, _shared.bank_for(ba.lambda_max), mesh_a.vertices).values
    db = weds(bb, _shared.bank_for(bb.lambda_max), mesh_b.vertices).values
    ha = hks(ba).values
    hb = hks(bb).values

    def exact_rate(a, b):
        nn = np.argmin(cdist(a, b, "sqeuclidean"), axis=1)
        return (nn == np.arange(len(a))).mean()

    weds_rate = exact_rate(da, db)
    hks_rate = exact_rate(ha, hb)
    assert weds_rate >= 0.95
    assert hks_rate <= weds_rate


def test_cross_tessellation_stability():
    # same surface, two tessellations, one shared bank: the transfer
    # error should sit well below the typical inter-vertex descriptor
    # distance (ratio ~0.9 for the round sphere, lower with geometry)
    for make, lid in ((lambda s: icosphere(s), 1.5), (_bumpy, 1.0)):
        mesh_a, mesh_b = make(2), make(3)
        ba = _shared.basis_of(mesh_a, 20)
        bb = _shared.basis_of(mesh_b, 20)
        bank = build_filter_bank(max(ba.lambda_max, bb.lambda_max))
        da = weds(ba, bank, mesh_a.vertices).values
        db = weds(bb, bank, mesh_b.vertices).values
        nn = np.argmin(cdist(mesh_a.vertices, mesh_b.vertices, "sqeuclidean"), axis=1)
        diff = np.linalg.norm(da - db[nn], axis=1)
        spread = cdist(da, da)[np.triu_indices(len(da), k=1)]
        ratio = np.median(diff) / np.median(spread)
        assert ratio <= lid, (lid, ratio)


def _bumpy(sub):
    mesh = icosphere(sub)
    v = mesh.vertices
    r = (
        1.0
        + 0.25 * np.sin(3 * v[:, 0] + 0.4) * np.cos(2 * v[:, 1])
        + 0.2 * np.sin(2.5 * v[:, 2])
    )
    return TriMesh(v * r[:, None], mesh.triangles)


def test_hks_basics():
    basis = _shared.bar_basis(0.3, 30)
    field = hks(basis, n_times=64)
    assert field.values.shape == (basis.n_vertices, 64)
    assert (field.values > 0).all()
    # at the largest diffusion time only the constant mode survives
    last = field.values[:, -1]
    assert (last.max() - last.min()) <= 1e-3 * last.mean()


def test_hks_needs_two_modes():
    basis = _shared.bar_basis(0.3, 1)
    with pytest.raises(DataError):
        hks(basis)


def test_wks_basics():
    basis = _shared.bar_basis(0.3, 40)
    field = wks(basis, n_energies=32)
    assert field.values.shape == (basis.n_vertices, 32)
    assert (field.values >= 0).all()
    with pytest.raises(DataError):
        wks(_shared.bar_basis(0.3, 2))


def test_wks_window_must_fit_spectrum():
    # sigma is 7/n of the log range and the +-2 sigma margins eat 28/n of
    # it each side, so small energy counts cannot fit
    basis = _shared.bar_basis(0.3, 40)
    with pytest.raises(DataError, match="too narrow"):
        wks(basis, n_energies=16)


@pytest.mark.parametrize("count", [0, -3])
def test_signature_counts_below_one_are_data_errors(count):
    basis = _shared.bar_basis(0.3, 40)
    with pytest.raises(DataError, match="must be positive"):
        hks(basis, n_times=count)
    with pytest.raises(DataError, match="must be positive"):
        wks(basis, n_energies=count)


def test_wks_bands_that_underflow_are_numerical():
    # 2,000 bands over 19 log-eigenvalues: sigma is 0.35% of the log range,
    # so a band between two eigenvalues has no weight left
    with pytest.raises(NumericalError, match="underflow"):
        wks(_shared.bar_basis(0.3, 20), n_energies=2000)


def test_save_refuses_non_finite_values(tmp_path):
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericalError, match="non-finite"):
            save_descriptors(tmp_path / "bad.mwd",
                             DescriptorField(np.array([[1.0, bad]]), "hks"))
    assert list(tmp_path.iterdir()) == []


def test_signature_homogeneity_on_sphere():
    # every vertex of a sphere looks the same, so spectral signatures
    # must be nearly constant across vertices; needs the finer
    # tessellation, coarse spheres leak discretization into high bands
    basis = _shared.sphere_basis(4, 36)
    for field in (hks(basis, n_times=64), wks(basis, n_energies=64)):
        col_mean = field.values.mean(axis=0)
        rel = np.abs(field.values - col_mean[None, :]).max(axis=0) / np.abs(col_mean)
        assert rel.max() <= 0.02, (field.kind, rel.max())


def test_descriptor_drift_diagnostic():
    a = DescriptorField(np.array([[1.0, 2.0], [3.0, 4.0]]), "weds")
    same = _shared.descriptor_drift(a, a)
    assert same["max_rel_value_drift"] == 0.0
    assert same["rank_change_fraction"] == 0.0
    b = DescriptorField(np.array([[2.0, 1.0], [3.0, 4.0]]), "weds")
    moved = _shared.descriptor_drift(a, b)
    assert moved["rank_change_fraction"] == 0.5
    with pytest.raises(DataError):
        _shared.descriptor_drift(a, DescriptorField(np.zeros((3, 2)), "weds"))


def test_save_load_round_trip(tmp_path):
    basis = _shared.bar_basis(0.3, 20)
    bank = _shared.bank_for(basis.lambda_max)
    field = weds(basis, bank, _shared.bar(0.3).vertices, n_dims=96)
    p = tmp_path / "field.mwd"
    save_descriptors(p, field)
    loaded = load_descriptors(p)
    assert np.array_equal(loaded.values, field.values)
    assert loaded.kind == field.kind
    assert loaded.metadata == field.metadata
    # byte determinism: writing the same field twice gives the same file
    q = tmp_path / "again.mwd"
    save_descriptors(q, field)
    assert p.read_bytes() == q.read_bytes()


def test_load_rejects_bad_files(tmp_path):
    p = tmp_path / "junk.mwd"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(DataError, match="not a descriptor file"):
        load_descriptors(p)
    field = DescriptorField(np.ones((3, 2)), "hks")
    q = tmp_path / "trunc.mwd"
    save_descriptors(q, field)
    q.write_bytes(q.read_bytes()[:-9])
    with pytest.raises(DataError, match="truncated"):
        load_descriptors(q)
    save_descriptors(q, field)
    huge = bytearray(q.read_bytes())
    huge[8:16] = struct.pack("<Q", 1 << 62)  # row count far beyond the file
    q.write_bytes(bytes(huge))
    with pytest.raises(DataError, match="truncated"):
        load_descriptors(q)
    q.write_bytes(bytes(huge[:20]))  # header cut inside the counts
    with pytest.raises(DataError, match="truncated"):
        load_descriptors(q)
    q.write_bytes(b"MWDF" + struct.pack("<IQQQ", 1, 3, 2, 2) + b"[]" + bytes(48))
    with pytest.raises(DataError, match="not a JSON object"):
        load_descriptors(q)
    _shared.write_raw_descriptors(q, np.array([[1.0, np.inf], [0.0, 2.0]]), "hks")
    with pytest.raises(DataError, match="non-finite"):
        load_descriptors(q)


def test_load_against_a_mesh_checks_the_row_count_before_the_values(tmp_path):
    # a file that records no mesh makes no claim, so only its size tells
    mesh = _shared.bar(0.3, nu=6, nv=4)  # 24 vertices
    p = tmp_path / "field.mwd"
    _shared.write_raw_descriptors(p, np.full((24, 2), np.nan))
    with pytest.raises(DataError, match="non-finite"):
        load_descriptors(p, mesh)
    _shared.write_raw_descriptors(p, np.full((23, 2), np.nan))
    with pytest.raises(DataError, match=r"rows \(23\) do not match mesh vertices \(24\)"):
        load_descriptors(p, mesh)


def test_csv_export(tmp_path):
    field = DescriptorField(np.array([[1.0 / 3.0, 2.0], [3.0, 4.0]]), "weds")
    p = tmp_path / "field.csv"
    export_descriptors_csv(p, field)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "dim_0,dim_1"
    assert len(lines) == 3
    back = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.array_equal(back, field.values)  # 17 digits round-trips exactly


@pytest.mark.parametrize("shape", [(12, 1), (4, 3), (1, 12), (0, 5)])
def test_csv_export_matches_loop_oracle(tmp_path, shape, rng):
    # signed zeros, subnormals and the extremes, in every column
    values = rng.permutation(np.resize(_shared.EDGE_VALUES, shape[0] * shape[1]))
    values = values.reshape(shape)
    export_descriptors_csv(tmp_path / "new.csv", DescriptorField(values, "weds"))
    _shared.loop_export_descriptors_csv(tmp_path / "old.csv", values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
