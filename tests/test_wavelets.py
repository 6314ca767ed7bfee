"""Wavelet atoms, analysis, synthesis, and the locality/consistency
properties the descriptor stack depends on."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from meshwave import wavelets
from meshwave.filters import FilterBank, build_filter_bank, filter_responses, g_of
from meshwave.spectral import project
from meshwave.wavelets import reconstruct, wavelet_coeffs

import _shared


def _small_basis():
    mesh = _shared.bar(0.3, nu=8, nv=4)
    return mesh, _shared.basis_of(mesh, mesh.n_vertices)


def test_atom_matrix_matches_triple_loop():
    mesh, basis = _small_basis()
    bank = _shared.bank_for(basis.lambda_max)
    n, k = mesh.n_vertices, basis.k
    for m in (0, 1, 16):
        got = _shared.wavelet_matrix(basis, bank, m)
        g = np.array([g_of(bank, m, basis.eigenvalues[j]) for j in range(k)])
        expect = np.zeros((n, n))
        for x in range(n):
            for v in range(n):
                s = 0.0
                for j in range(k):
                    s += g[j] * basis.eigenvectors[v, j] * basis.eigenvectors[x, j]
                expect[x, v] = basis.areas[v] * s
        assert np.allclose(got, expect, atol=1e-12 * np.abs(expect).max())


_STATS_CASES = {
    # n = 1,100 and 642: neither is a multiple of the 256- or 512-wide tiles
    "bar-1100": lambda: _shared.bar_basis(0.6, 100, nu=50, nv=22),
    "sphere-642": lambda: _shared.sphere_basis(3, 100),
}


@pytest.mark.parametrize("case", _STATS_CASES)
@pytest.mark.parametrize("block_entries", [None, 5000])
@pytest.mark.parametrize("scales", [[3, 9, 17, 24], list(range(0, 32, 2))])
def test_atom_stats_match_dense_oracles(monkeypatch, case, block_entries, scales):
    if block_entries is not None:  # many diagonal, off-diagonal and partial tiles
        monkeypatch.setattr(wavelets, "_BLOCK_ENTRIES", block_entries)
    basis = _STATS_CASES[case]()
    bank = _shared.bank_for(basis.lambda_max)
    responses = filter_responses(bank, basis.eigenvalues)[scales].T
    l1, lo, hi = _shared.atom_stats(basis.eigenvectors, responses)
    # each one-statistic sweep gives the all-statistics sweep's bits
    assert np.array_equal(wavelets._atom_sweep(basis.eigenvectors, responses, "l1")[0], l1)
    got_lo, got_hi = wavelets._atom_sweep(basis.eigenvectors, responses, "range")
    assert np.array_equal(got_lo, lo) and np.array_equal(got_hi, hi)
    a = basis.areas[None, :]
    for j, m in enumerate(scales):
        atoms = _shared.wavelet_matrix(basis, bank, m)  # column v is a(v) K_m[:, v]
        scale = np.abs(atoms).max()
        normalized = atoms / (a * l1[:, j])
        assert np.abs(normalized - _shared.normalize_columns(atoms)).max() <= 1e-12 * np.abs(normalized).max()
        assert np.abs(a * lo[:, j] - atoms.min(axis=0)).max() <= 1e-12 * scale
        assert np.abs(a * hi[:, j] - atoms.max(axis=0)).max() <= 1e-12 * scale
        minmax = (atoms - a * lo[:, j]) / (a * (hi[:, j] - lo[:, j]))
        assert np.abs(minmax - _shared.minmax_columns(atoms)).max() <= 1e-12


def test_atom_stats_of_an_underflowing_scale_are_zero(monkeypatch):
    monkeypatch.setattr(wavelets, "_BLOCK_ENTRIES", 3000)
    basis = _shared.bar_basis(0.3, 40)
    bank = _shared.bank_for(basis.lambda_max)
    scales = bank.scales.copy()
    scales[4] = 1e3 / basis.eigenvalues[1]  # g_5 = 0 at every eigenvalue
    flat = dataclasses.replace(bank, scales=scales)
    assert not g_of(flat, 5, basis.eigenvalues).any()
    (l1,) = wavelets.filter_atom_stats(basis, flat, [5, 6], "l1")
    lo, hi = wavelets.filter_atom_stats(basis, flat, [5, 6], "range")
    assert not (l1[:, 0].any() or lo[:, 0].any() or hi[:, 0].any())
    assert (l1[:, 1] > 0).all() and (lo[:, 1] < hi[:, 1]).all()


@pytest.mark.parametrize("stat", ["l1", "range"])
def test_an_empty_atom_stats_request_sweeps_and_writes_nothing(monkeypatch, tmp_path, stat):
    monkeypatch.setattr(wavelets, "_atom_sweep", lambda *a: pytest.fail("swept"))
    mesh, basis = _small_basis()
    sidecar = tmp_path / "stats.npz"
    arrays = wavelets.filter_atom_stats(basis, _shared.bank_for(basis.lambda_max), [], stat,
                                        cache=sidecar)
    assert [a.shape for a in arrays] == [(mesh.n_vertices, 0)] * len(wavelets._STATS[stat])
    assert not sidecar.exists()


@pytest.mark.parametrize("stat", ["l1", "range"])
def test_atom_sweep_holds_one_tile_at_a_time(stat):
    basis = _STATS_CASES["sphere-642"]()
    phi = basis.eigenvectors
    (n, k), n_filters = phi.shape, 16
    bank = _shared.bank_for(basis.lambda_max)
    responses = filter_responses(bank, basis.eigenvalues)[:n_filters].T
    width = math.isqrt(wavelets._BLOCK_ENTRIES // n_filters)  # 256: 3 row blocks, 6 tiles
    tile, slab = 8 * width * n_filters * width, 8 * k * n_filters * width
    outputs = 8 * n * n_filters * (1 if stat == "l1" else 2)
    tracemalloc.start()
    try:
        wavelets._atom_sweep(phi, responses, stat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a fresh tile per GEMM holds two tiles at once while the next is formed
    assert peak <= tile + slab + outputs + tile // 8


@pytest.mark.parametrize("rows", [slice(None), slice(3, 17), [29, 0, 5, 5]],
                         ids=["all", "slice", "gather"])
def test_spectral_filter_matches_explicit_products(rng, rows):
    _, basis = _small_basis()
    bank = _shared.bank_for(basis.lambda_max)
    phi = basis.eigenvectors
    k, scales = basis.k, [0, 3, 17, 31]
    responses = filter_responses(bank, basis.eigenvalues)[scales].T  # (k, S)
    shared = rng.standard_normal((k, 5))
    per_filter = rng.standard_normal((k, len(scales), 5))
    got_shared = wavelets._spectral_filter(phi[rows], responses, shared)
    got_each = wavelets._spectral_filter(phi[rows], responses, per_filter)
    assert got_shared.shape == got_each.shape == (phi[rows].shape[0], len(scales), 5)
    for s, m in enumerate(scales):
        kernel = phi[rows] @ np.diag(g_of(bank, m, basis.eigenvalues))  # Phi diag(g_m)
        for got, want in ((got_shared, kernel @ shared), (got_each, kernel @ per_filter[:, s])):
            assert np.abs(got[:, s] - want).max() <= 1e-13 * np.abs(want).max()


def test_scaling_atom_on_one_mode():
    # with k = 1 the atom column at v is a(v) * B * phi0(v) * phi0,
    # which is strictly positive everywhere
    basis = _shared.bar_basis(0.3, 1)
    bank = _shared.bank_for(1.0)
    atoms = _shared.wavelet_matrix(basis, bank, 0)
    phi0 = basis.eigenvectors[:, 0]
    expect = np.outer(phi0, basis.areas * 1.004 * phi0)
    assert np.allclose(atoms, expect, rtol=1e-12)
    assert (atoms > 0).all()


def test_coeffs_match_a_inner_product(rng):
    mesh, basis = _small_basis()
    bank = _shared.bank_for(basis.lambda_max)
    f = rng.standard_normal(mesh.n_vertices)
    table = wavelet_coeffs(basis, bank, f)
    assert table.shape == (bank.n_filters, mesh.n_vertices)
    for m in (0, 5, 31):
        atoms = _shared.wavelet_matrix(basis, bank, m)
        expect = atoms.T @ (basis.areas * f)  # <f, psi_{m,v}>_A per column v
        assert np.abs(table[m] - expect).max() <= 1e-8 * np.abs(expect).max()


def test_coeffs_of_first_eigenvector():
    basis = _shared.bar_basis(0.3, 6)
    bank = _shared.bank_for(basis.lambda_max)
    table = wavelet_coeffs(basis, bank, basis.eigenvectors[:, 0])
    expect = basis.areas * 1.004 * basis.eigenvectors[:, 0]
    assert np.allclose(table[0], expect, rtol=1e-10)


def test_zero_signal():
    basis = _shared.bar_basis(0.3, 6)
    bank = _shared.bank_for(basis.lambda_max)
    table = wavelet_coeffs(basis, bank, np.zeros(basis.n_vertices))
    assert np.abs(table).max() == 0.0
    assert np.abs(reconstruct(basis, bank, table)).max() == 0.0


def test_reconstruction_full_basis(rng):
    mesh, basis = _small_basis()
    bank = _shared.bank_for(basis.lambda_max)
    for f in (rng.standard_normal(mesh.n_vertices), mesh.vertices[:, 0]):
        back = reconstruct(basis, bank, wavelet_coeffs(basis, bank, f))
        rel = np.linalg.norm(back - f) / np.linalg.norm(f)
        assert rel <= 0.02


def test_reconstruction_matches_explicit_route(rng):
    # library synthesis stays in the spectral domain; rebuild the same
    # estimate from explicit atom matrices as an independent oracle
    mesh, basis = _small_basis()
    bank = _shared.bank_for(basis.lambda_max)
    f = rng.standard_normal(mesh.n_vertices)
    table = wavelet_coeffs(basis, bank, f)
    back = np.zeros(mesh.n_vertices)
    for m in range(bank.n_filters):
        atoms = _shared.wavelet_matrix(basis, bank, m)
        back += atoms @ (table[m] / basis.areas)
    lib = reconstruct(basis, bank, table)
    assert np.abs(back - lib).max() <= 1e-8 * np.abs(lib).max()


def test_sloppy_frame_reconstructs_badly(rng):
    # two mistuned filters cannot resolve the identity; the residual gate
    # in build_filter_bank exists precisely to reject banks like this one
    mesh, basis = _small_basis()
    good = _shared.bank_for(basis.lambda_max)
    bad = FilterBank(
        lambda_max=good.lambda_max,
        scales=np.array([1.0 / good.lambda_max, 0.5 / good.lambda_max]),
        amplitude=0.2,
        scaling_amplitude=0.3,
        scaling_decay=1.0,
        span_coarse=1.0,
        span_fine=0.5,
    )
    f = rng.standard_normal(mesh.n_vertices)
    back = reconstruct(basis, bad, wavelet_coeffs(basis, bad, f))
    rel = np.linalg.norm(back - f) / np.linalg.norm(f)
    assert rel > 0.2


def test_permutation_equivariance(rng):
    mesh, basis = _small_basis()
    bank = _shared.bank_for(basis.lambda_max)
    perm = rng.permutation(mesh.n_vertices)
    permuted = _shared.permute_basis(basis, perm)
    for m in (0, 9):
        base = _shared.wavelet_matrix(basis, bank, m)
        moved = _shared.wavelet_matrix(permuted, bank, m)
        assert np.allclose(moved[np.ix_(perm, perm)], base, atol=1e-12)


def _r90(mesh, dist, column):
    mass = np.abs(column)
    order = np.argsort(dist)
    cum = np.cumsum(mass[order])
    idx = np.searchsorted(cum, 0.9 * cum[-1])
    return dist[order][min(idx, len(dist) - 1)]


def test_finer_scales_localize():
    # radius holding 90% of the atom's absolute mass shrinks as the scale
    # index grows; needs a basis wide enough to resolve the fine filters
    mesh = _shared.sphere(3)
    basis = _shared.sphere_basis(3, 300)
    bank = build_filter_bank(basis.lambda_max, eigenvalues=basis.eigenvalues)
    center = 0
    dist = _shared.geodesic_multi(mesh, [center])[0]
    radii = []
    for m in (3, 5, 7, 9, 11, 13, 15, 17):
        atoms = _shared.wavelet_matrix(basis, bank, m)
        radii.append(_r90(mesh, dist, atoms[:, center]))
    assert (np.diff(radii) < 0).all(), radii


def test_cross_tessellation_atom_correlation(rng):
    # the same wavelet sampled on two sphere tessellations correlates
    # strongly at coincident vertices (coarse vertices persist under
    # midpoint subdivision, with index preserved)
    coarse = _shared.sphere(2)
    fine = _shared.sphere(3)
    cb = _shared.sphere_basis(2, 49)
    fb = _shared.sphere_basis(3, 49)
    bank = build_filter_bank(max(cb.lambda_max, fb.lambda_max))
    centers = rng.choice(coarse.n_vertices, size=40, replace=False)
    worst = 1.0
    for m in (3, 5, 10, 16, 22, 28):
        ca = _shared.wavelet_matrix(cb, bank, m)
        fa = _shared.wavelet_matrix(fb, bank, m)
        for v in centers:
            a = ca[:, v]
            b = fa[: coarse.n_vertices, v]
            c = np.corrcoef(a, b)[0, 1]
            worst = min(worst, c)
    assert worst >= 0.9, worst
