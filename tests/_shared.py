"""Cached fixtures shared across test modules.

Eigendecompositions dominate suite runtime, so meshes and bases are
memoized here.  Callers must treat everything returned as read-only.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
from scipy.spatial.distance import cdist

from meshwave.descriptors import (
    DescriptorField,
    energy_decomposition,
    save_descriptors,
    subsample_columns,
)
from meshwave.errors import DataError
from meshwave.evaluation import normalized_errors
from meshwave.filters import (
    _residual_grid,
    build_filter_bank,
    filter_responses,
    frame_residual,
    g_of,
    select_scales,
)
from meshwave.geodesics import geodesic_multi
from meshwave.mesh import TriMesh, cotangent_laplacian, lumped_areas
from meshwave.spectral import SpectralBasis, eig_generalized, project
from meshwave.synthetic import bent_bar, icosphere


def basis_of(mesh: TriMesh, k: int) -> SpectralBasis:
    lap = cotangent_laplacian(mesh)
    areas = lumped_areas(mesh)
    return eig_generalized(lap, areas, k, mesh_hash=mesh.content_hash())


@lru_cache(maxsize=None)
def sphere(subdivisions: int) -> TriMesh:
    return icosphere(subdivisions)


@lru_cache(maxsize=None)
def sphere_basis(subdivisions: int, k: int) -> SpectralBasis:
    return basis_of(sphere(subdivisions), k)


@lru_cache(maxsize=None)
def bar(curvature: float, nu: int = 22, nv: int = 10) -> TriMesh:
    return bent_bar(curvature, nu=nu, nv=nv)


@lru_cache(maxsize=None)
def bar_basis(curvature: float, k: int, nu: int = 22, nv: int = 10) -> SpectralBasis:
    return basis_of(bar(curvature, nu=nu, nv=nv), k)


@lru_cache(maxsize=None)
def bank_for(lambda_max: float):
    return build_filter_bank(lambda_max)


def refit_constants(bank, eigenvalues=None):
    """Least-squares refit of a bank's three response constants (the
    wavelet amplitude, the scaling filter's amplitude and decay) towards a
    tight frame; the scale ladder stays fixed."""
    from scipy.optimize import least_squares

    grid = _residual_grid(bank.lambda_max, eigenvalues)

    def residuals(params):
        trial = replace(bank, amplitude=params[0], scaling_amplitude=params[1],
                        scaling_decay=params[2])
        return (filter_responses(trial, grid) ** 2).sum(axis=0) - 1.0

    start = np.array([bank.amplitude, bank.scaling_amplitude, bank.scaling_decay])
    fit = least_squares(residuals, start, method="lm", max_nfev=2000)
    refit = replace(bank, amplitude=float(fit.x[0]), scaling_amplitude=float(fit.x[1]),
                    scaling_decay=float(fit.x[2]))
    return replace(refit, residual=frame_residual(refit, eigenvalues)[0])


def permute_mesh(mesh: TriMesh, perm: np.ndarray) -> TriMesh:
    """Relabel vertices: new index perm[i] holds old vertex i."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.shape[0])
    return TriMesh(mesh.vertices[inv], perm[mesh.triangles])


def permute_basis(basis: SpectralBasis, perm: np.ndarray) -> SpectralBasis:
    """Row-permute an existing basis instead of re-solving.

    Re-running the eigensolver on a relabeled mesh converges to the same
    subspaces but not bitwise-identical vectors, so equivariance checks
    permute the arrays directly.
    """
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.shape[0])
    return SpectralBasis(
        eigenvalues=basis.eigenvalues.copy(),
        eigenvectors=basis.eigenvectors[inv],
        areas=basis.areas[inv],
        mesh_hash="permuted",
    )


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def fd_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = g.ravel()
    for i in range(flat_x.size):
        keep = flat_x[i]
        flat_x[i] = keep + h
        up = f(x)
        flat_x[i] = keep - h
        dn = f(x)
        flat_x[i] = keep
        flat_g[i] = (up - dn) / (2.0 * h)
    return g


def grads_close(analytic: np.ndarray, fd: np.ndarray, tol: float = 1e-4) -> bool:
    scale = max(1.0, float(np.abs(analytic).max()))
    return bool(np.abs(analytic - fd).max() <= tol * scale)


def normalize_columns(psi: np.ndarray) -> np.ndarray:
    """L1-normalize each column so its absolute sum is 1."""
    psi = np.asarray(psi, dtype=np.float64)
    sums = np.abs(psi).sum(axis=0)
    if np.any(sums == 0.0):
        bad = int(np.argmax(sums == 0.0))
        raise DataError(f"wavelet column {bad} is identically zero")
    return psi / sums[None, :]


def wavelet_matrix(basis: SpectralBasis, bank, m: int) -> np.ndarray:
    """Dense (n, n) matrix whose column v is the scale-m atom at vertex v."""
    g = g_of(bank, m, basis.eigenvalues)
    atoms = (basis.eigenvectors * g[None, :]) @ basis.eigenvectors.T
    atoms *= basis.areas[None, :]
    return atoms


def minmax_columns(matrix: np.ndarray) -> np.ndarray:
    """Columnwise (x - min) / (max - min); constant columns become 0.5."""
    lo = matrix.min(axis=0)
    hi = matrix.max(axis=0)
    span = hi - lo
    flat = span == 0
    span = np.where(flat, 1.0, span)
    out = (matrix - lo[None, :]) / span[None, :]
    if flat.any():
        out[:, flat] = 0.5
    return out


def three_stage_energy(basis: SpectralBasis, responses, signals, power: int):
    """Oracle for the energy table with its per-mode coupling formed
    explicitly: analysis tables W_i, omega = sum_m g_m Phi' W_i(m), then
    the fields Phi diag(lambda^p g_m) omega.  responses is (k, n_filters)."""
    signals = np.asarray(signals, dtype=np.float64).reshape(basis.n_vertices, -1)
    sigma = project(basis, signals)
    sigma[0] = 0.0
    phi = basis.eigenvectors
    n, k = phi.shape
    g = responses[:, :, None]  # (k, n_filters, 1)
    tables = (phi @ (g * sigma[:, None, :]).reshape(k, -1)) * basis.areas[:, None]
    omega = (g * (phi.T @ tables).reshape(g.shape[:2] + (-1,))).sum(axis=1)  # (k, d)
    lam_pow = basis.eigenvalues ** power
    fields = phi @ (lam_pow[:, None, None] * g * omega[:, None, :]).reshape(k, -1)
    return (tables * fields).reshape(n, g.shape[1], -1).sum(axis=2).T


def dense_weds(basis: SpectralBasis, bank, coords, n_dims: int, power: int = 2):
    """Oracle for descriptors.weds: per selected scale, the energy table
    times the column-minmax-normalized dense atom matrix, concatenated
    and subsampled to n_dims columns."""
    eps = energy_decomposition(basis, bank, coords, power)
    values = np.concatenate(
        [(eps @ minmax_columns(wavelet_matrix(basis, bank, int(m)))).T
         for m in select_scales(n_dims)],
        axis=1,
    )
    if values.shape[1] > n_dims:
        values = values[:, subsample_columns(values.shape[1], n_dims)]
    return values


def dense_wavelet_operators(basis: SpectralBasis, bank, keys) -> dict:
    """Oracle for the factored wavelet operator: {s: P_s} with P_s the
    transposed, column-L1-normalized dense atom matrix of scale s."""
    return {int(s): normalize_columns(wavelet_matrix(basis, bank, int(s))).T
            for s in keys}


def dense_chebyshev(lap, areas: np.ndarray, lambda_max: float, order: int) -> dict:
    """Oracle for the recursive Chebyshev operator: dense {m: T_m(M)} for
    M = 2 A^-1 L / lambda_max - I, built by the matrix recursion."""
    n = areas.shape[0]
    base = (2.0 / lambda_max) * (lap.toarray() / areas[:, None]) - np.eye(n)
    ops = {0: np.eye(n)}
    if order > 1:
        ops[1] = base
    for m in range(2, order):
        ops[m] = 2.0 * (base @ ops[m - 1]) - ops[m - 2]
    return ops


def average_geodesic_error(map_, gt, target_mesh):
    """Mean normalized geodesic error, direct and (or None) symmetric."""
    direct, symmetric = normalized_errors(map_, gt, target_mesh)
    return float(direct.mean()), None if symmetric is None else float(symmetric.mean())


def cge_curve(map_, gt, target_mesh, radii, symmetric: bool = False) -> np.ndarray:
    """Fraction of source vertices with normalized geodesic error <= r."""
    radii = np.asarray(radii, dtype=np.float64)
    direct, sym = normalized_errors(map_, gt, target_mesh)
    if symmetric:
        if sym is None:
            raise DataError("symmetric curve requested but no symmetric map given")
        err = sym
    else:
        err = direct
    return (err[None, :] <= radii[:, None]).mean(axis=1)


def cdist_match(desc_a, desc_b) -> np.ndarray:
    """Oracle for evaluation.nn_match: first argmin of the full cdist table."""
    return cdist(desc_a, desc_b, "sqeuclidean").argmin(axis=1)


def cdist_ranks(desc_a, desc_b, gt_direct) -> np.ndarray:
    """Oracle for evaluation.match_ranks on the full cdist table: rows
    strictly closer than the true target, plus tied rows of lower index,
    plus one."""
    d = cdist(desc_a, desc_b, "sqeuclidean")
    d_true = d[np.arange(d.shape[0]), gt_direct][:, None]
    before = np.arange(d.shape[1])[None, :] < np.asarray(gt_direct)[:, None]
    return (d < d_true).sum(axis=1) + ((d == d_true) & before).sum(axis=1) + 1


def table_errors(map_, gt, target_mesh):
    """Oracle for evaluation.normalized_errors: one dense geodesic table
    from every vertex, looked up from the ground-truth side."""
    dist = geodesic_multi(target_mesh, np.arange(target_mesh.n_vertices))
    scale = 1.0 / np.sqrt(lumped_areas(target_mesh).sum())
    pred = map_.indices
    direct = dist[gt.direct, pred] * scale
    if gt.symmetric is None:
        return direct, None
    return direct, np.minimum(direct, dist[gt.symmetric, pred] * scale)


def descriptor_drift(field_a, field_b):
    """Diagnostic comparing two fields on the same vertex set: relative
    value drift and the fraction of vertices whose within-row value
    ranking changed."""
    a, b = field_a.values, field_b.values
    if a.shape != b.shape:
        raise DataError("descriptor fields have different shapes")
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
    value_drift = np.abs(a - b).max() / scale
    rank_changed = (np.argsort(a, axis=1) != np.argsort(b, axis=1)).any(axis=1)
    return {
        "max_rel_value_drift": float(value_drift),
        "rank_change_fraction": float(rank_changed.mean()),
    }


def rowwise_edges(mesh: TriMesh) -> np.ndarray:
    """Oracle for TriMesh.edges: sorted triangle sides, row-wise unique."""
    t = mesh.triangles
    pairs = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    pairs.sort(axis=1)
    return np.unique(pairs, axis=0)


def write_raw_descriptors(path, values, kind: str = "weds"):
    """A descriptor file holding `values` as given, NaN and inf included.
    save_descriptors refuses non-finite values, so this writes a zero field
    of the same shape and overwrites its value block, the file's tail."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    save_descriptors(path, DescriptorField(np.zeros_like(values), kind))
    data = bytearray(path.read_bytes())
    data[len(data) - values.nbytes:] = values.tobytes()
    path.write_bytes(bytes(data))
