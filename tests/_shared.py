"""Cached fixtures shared across test modules.

Eigendecompositions dominate suite runtime, so meshes and bases are
memoized here.  Callers must treat everything returned as read-only.
"""

import json
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import cdist

from meshwave import wavelets
from meshwave.descriptors import (
    DescriptorField,
    _decompose_with_responses,
    save_descriptors,
    subsample_columns,
)
from meshwave.errors import DataError
from meshwave.evaluation import normalized_errors
from meshwave.filters import (
    _RESPONSE_FLOOR,
    _residual_grid,
    build_filter_bank,
    filter_responses,
    frame_residual,
    g_of,
    select_scales,
)
from meshwave.geodesics import edge_graph
from meshwave.mesh import TriMesh, _triangle_geometry, cotangent_laplacian, lumped_areas
from meshwave.model import save_checkpoint
from meshwave.spectral import SpectralBasis, eig_generalized, project
from meshwave.synthetic import bent_bar, grid_mesh, icosphere


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


def bar_uv(nu: int, nv: int) -> np.ndarray:
    """(n, 2) grid parameters (u, v) of the vertices of bent_bar(., nu, nv)."""
    u, v = np.meshgrid(np.linspace(0.0, 1.0, nu), np.linspace(0.0, 1.0, nv), indexing="ij")
    return np.stack([u.ravel(), v.ravel()], axis=1)


def uv_correspondence(source, target) -> np.ndarray:
    """For each vertex of the bent-bar grid source = (nu, nv), the vertex of
    the grid target nearest in (u, v): a map across discretizations."""
    return cdist(bar_uv(*source), bar_uv(*target)).argmin(axis=1)


def equilateral_triangle(side=1.0):
    """Single equilateral triangle in the z=0 plane."""
    vertices = np.array(
        [[0.0, 0.0, 0.0], [side, 0.0, 0.0], [side / 2.0, side * np.sqrt(3.0) / 2.0, 0.0]]
    )
    return TriMesh(vertices, np.array([[0, 1, 2]]))


def antipodal_permutation(mesh, tol=1e-9):
    """Index permutation p with vertices[p[i]] == -vertices[i]."""
    v = mesh.vertices
    perm = np.full(mesh.n_vertices, -1, dtype=np.int64)
    order = np.lexsort((v[:, 2], v[:, 1], v[:, 0]))
    sorted_v = v[order]
    for i in range(mesh.n_vertices):
        target = -v[i]
        j = np.searchsorted(sorted_v[:, 0], target[0] - tol)
        while j < mesh.n_vertices:
            cand = order[j]
            if sorted_v[j, 0] > target[0] + tol:
                break
            if np.abs(v[cand] - target).max() <= tol:
                perm[i] = cand
                break
            j += 1
        if perm[i] < 0:
            raise ValueError("mesh is not antipodally symmetric")
    return perm


def strip_mesh(x_coords, height: float = 0.1) -> TriMesh:
    """Two-row planar strip; bottom-row geodesics are exact prefix sums."""
    x = np.asarray(x_coords, dtype=np.float64)

    def surf(u, v):
        return u, v * height, np.zeros_like(u)

    return grid_mesh(x, np.array([0.0, 1.0]), surf)


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


def atom_stats(phi: np.ndarray, responses: np.ndarray):  # oracle: all statistics at once
    """(l1, lo, hi), each (n, S): column L1 norms, minima and maxima of
    K_s = Phi diag(g_s) Phi', all from one sweep over the same tiles I <= J
    as ``wavelets._atom_sweep``, each tile a fresh array."""
    n, k = phi.shape
    n_filters = responses.shape[1]
    width = max(1, math.isqrt(wavelets._BLOCK_ENTRIES // max(1, n_filters)))
    l1 = np.zeros((n, n_filters))
    lo = np.full((n, n_filters), np.inf)
    hi = np.full((n, n_filters), -np.inf)
    for i in range(0, n, width):
        rows = slice(i, min(i + width, n))
        slab = (responses[:, :, None] * phi[rows].T[:, None, :]).reshape(k, -1)
        for j in range(i, n, width):
            cols = slice(j, min(j + width, n))
            tile = (phi[cols] @ slab).reshape(-1, n_filters, rows.stop - i)
            sides = [(cols, tile)] + ([(rows, tile.transpose(2, 1, 0))] if i != j else [])
            for into, side in sides:
                np.minimum(lo[into], side.min(axis=2), out=lo[into])
                np.maximum(hi[into], side.max(axis=2), out=hi[into])
            np.abs(tile, out=tile)
            for into, side in sides:
                l1[into] += side.sum(axis=2)
    return l1, lo, hi


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


def energy_decomposition(basis, bank, x, power=2):
    """The energy table eps[m, v] of the columns of x under the whole bank."""
    return _decompose_with_responses(basis, filter_responses(bank, basis.eigenvalues).T, x, power)


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


class DenseOperator:
    """Layer operator over explicit (n, n) matrices P_s, a list or a dict
    keyed by scale index, with the interface ``wavelets.WaveletOperator``
    documents: the oracle for the factored operators, and how tests hand a
    layer explicit matrices.  Its forward pass keeps X for the backward."""

    def __init__(self, mats):
        self.mats = dict(mats) if isinstance(mats, dict) else dict(enumerate(mats))

    def __getitem__(self, key):
        return self.mats[key]

    @property
    def n_scales(self) -> int:
        return len(self.mats)

    def select(self, keys) -> "DenseOperator":
        return DenseOperator([self.mats[k] for k in keys])

    def forward(self, x, weights):
        mats = list(self.mats.values())
        s = mats[0] @ (x @ weights[0])
        for w, p in zip(weights[1:], mats[1:]):
            s += p @ (x @ w)
        return s, x

    def backward(self, x, ds, weights, input_grad=True):
        dx = np.zeros_like(x)
        dws = []
        for w, p in zip(weights, self.mats.values()):
            u = p.T @ ds
            dx += u @ w.T
            dws.append(x.T @ u)
        return (dx if input_grad else None), dws


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


def geodesic_multi(mesh: TriMesh, sources) -> np.ndarray:  # oracle: a row per source
    return dijkstra(edge_graph(mesh), directed=False, indices=sources)


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


def edited_checkpoint(path, net, edit_meta=None, edit_arrays=None, legacy=False,
                      **save_kwargs):
    """Saves net as a checkpoint at path (keywords go to ``save_checkpoint``)
    and rewrites the file after edit_meta changes its metadata dict in place,
    then edit_arrays its arrays by name, ``__meta__`` included.  With
    `legacy`, the file first gains the training state older checkpoints
    held, which the reader ignores: Adam's step (``opt/step``) and moments
    (``opt/m/*``, ``opt/v/*``) and the generator's ``rng_state``."""
    save_checkpoint(path, net, **save_kwargs)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    if legacy:
        meta["rng_state"] = np.random.default_rng(0).bit_generator.state
        arrays["opt/step"] = np.asarray(3, dtype=np.int64)
        for name, arr in net.params.items():
            arrays[f"opt/m/{name}"] = 0.1 * arr
            arrays[f"opt/v/{name}"] = 0.01 * arr * arr
    if edit_meta is not None:
        edit_meta(meta)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    if edit_arrays is not None:
        edit_arrays(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return path


# Oracle for filters.filter_responses: each filter's formula on its own,
# stacked by a loop over the bank.

def wavelet_response(bank, scale, lam):
    """Band-pass response g(t * lambda) = amp * x^2 exp(1 - x^2)."""
    x = scale * np.asarray(lam, dtype=np.float64)
    g = bank.amplitude * x * x * np.exp(1.0 - x * x)
    return np.where(g < _RESPONSE_FLOOR, 0.0, g)[()]


def scaling_response(bank, lam):
    """Low-pass response h(lambda) = B exp(-(C lambda / lambda_max)^3)."""
    x = bank.scaling_decay * np.asarray(lam, dtype=np.float64) / bank.lambda_max
    g = bank.scaling_amplitude * np.exp(-(x ** 3))
    return np.where(g < _RESPONSE_FLOOR, 0.0, g)[()]


def loop_filter_responses(bank, lam):
    """Row 0 the scaling filter, rows 1..K the wavelets, one filter at a time."""
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    return np.stack([scaling_response(bank, lam)]
                    + [wavelet_response(bank, scale, lam) for scale in bank.scales])


# Oracles for meshio, evaluation and descriptors text IO: one Python
# float or int per token read, one f-string per value written.

def loop_read_off(path):
    """Oracle for read_off's body parse: one Python float/int per token."""
    lines = [raw.split("#", 1)[0].strip() for raw in path.read_text().splitlines()]
    lines = [line for line in lines if line]
    n_vert, n_face = (int(c) for c in lines[1].split()[:2])
    body = [line.split() for line in lines[2:2 + n_vert + n_face]]
    vertices = np.array([[float(t) for t in row[:3]] for row in body[:n_vert]])
    triangles = np.array([[int(t) for t in row[1:4]] for row in body[n_vert:]])
    return vertices.reshape(n_vert, 3), triangles.reshape(n_face, 3)


def loop_read_obj(path):
    vertices, faces = [], []
    for raw in path.read_text().splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts and parts[0] == "v":
            vertices.append([float(t) for t in parts[1:4]])
        elif parts and parts[0] == "f":
            faces.append([int(ref.split("/")[0]) - 1 for ref in parts[1:]])
    return np.array(vertices).reshape(-1, 3), np.array(faces, dtype=np.int64).reshape(-1, 3)


def loop_read_ply_vertices(path):
    """(n, 3) float64 x, y, z of an ASCII PLY whose first element is its vertices."""
    from meshwave.meshio import _PLY_DTYPES

    head, body = path.read_bytes().split(b"end_header\n", 1)
    lines = head.decode().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("element vertex"))
    count = int(lines[start].split()[2])
    fields = []
    for line in lines[start + 1:]:
        if not line.startswith("property"):
            break
        fields.append((line.split()[2], "<" + _PLY_DTYPES[line.split()[1]]))
    rows = [tuple(line.split()) for line in body.splitlines()[:count]]
    data = np.array(rows, dtype=fields)
    return np.stack([data["x"], data["y"], data["z"]], axis=1).astype(np.float64)


def loop_write_ply(path, vertices, triangles, colors=None, comment=None):
    vertices = np.asarray(vertices, dtype=np.float64)
    triangles = np.asarray(triangles, dtype=np.int64)
    lines = ["ply", "format ascii 1.0"]
    if comment:
        lines.append(f"comment {comment}")
    lines.append(f"element vertex {len(vertices)}")
    lines += ["property double x", "property double y", "property double z"]
    if colors is not None:
        colors = np.clip(np.rint(np.asarray(colors)), 0, 255).astype(np.uint8)
        lines += ["property uchar red", "property uchar green", "property uchar blue"]
    lines += [f"element face {len(triangles)}", "property list uchar int vertex_indices",
              "end_header"]
    for i, v in enumerate(vertices):
        row = f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}"
        if colors is not None:
            c = colors[i]
            row += f" {c[0]} {c[1]} {c[2]}"
        lines.append(row)
    for t in triangles:
        lines.append(f"3 {t[0]} {t[1]} {t[2]}")
    path.write_text("\n".join(lines) + "\n")


def add_at_lumped_areas(mesh: TriMesh) -> np.ndarray:
    """Oracle for mesh.lumped_areas: a third of each triangle's area added
    to its corners with np.add.at, one pass per corner."""
    _, tri_areas = _triangle_geometry(mesh.vertices, mesh.triangles)
    areas = np.zeros(mesh.n_vertices)
    for corner in range(3):
        np.add.at(areas, mesh.triangles[:, corner], tri_areas / 3.0)
    return areas


def loop_write_correspondence(path, indices, comment=None):
    with open(path, "w", encoding="utf-8", errors="backslashreplace") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        for v in np.asarray(indices, dtype=np.int64):
            fh.write(f"{v}\n")


def loop_export_descriptors_csv(path, values):
    with open(path, "w") as handle:
        handle.write(",".join(f"dim_{i}" for i in range(values.shape[1])) + "\n")
        for row in values:
            handle.write(",".join(f"{x:.17g}" for x in row) + "\n")


def plain_number(text: str, tag):
    """Oracle for `_files.numeric_rows` on one config value or map line: the
    rule those two inputs had before it, ASCII without `_` (int() and float()
    read "1_0" as 10 and "٣" as 3), then `tag`'s int() or float()."""
    if not (text.isascii() and "_" not in text):
        raise ValueError(f"not a plain number: {text!r}")
    return tag(text)


# finite doubles a text writer must keep to the bit: signed zeros,
# subnormals, the extremes and every digit of 1/3
EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
                        1.7976931348623157e308, 1 / 3, -2.5, 1e16, 123456789.0])
