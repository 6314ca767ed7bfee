"""Generalized eigenbasis of the (Laplacian, mass) pencil.

Solves L phi = lambda A phi for the k lowest pairs on the symmetric
standard form C = A^-1/2 L A^-1/2, which has the pencil's eigenvalues; the
eigenvectors come back as phi = A^-1/2 psi.  Up to 512 vertices, or past
n / 4 wanted pairs (where it is cheaper), dense LAPACK (syevd) solves C, in
30 ms at 420 vertices and k = 100 on one thread, or (C - sigma I)^-1 if a
sliver's entries leave C's pairs over the row-wise check.  Otherwise block
Krylov-Schur (Stewart, SIAM J. Matrix Anal. Appl. 23, 2001; Zhou & Saad,
Numer. Algorithms 47, 2008) runs on T = (C - sigma I)^-1 with blocks of 8
vectors, so its Gram-Schmidt passes, restarts and Ritz vectors are GEMMs
against a basis held as rows;
it locks converged Ritz pairs (Stathopoulos & McCombs, ACM TOMS 36, 2010),
runs its first Gram-Schmidt pass only against the rows T reaches, and
stops once the k kept pairs are locked and no unconverged pad (one of the
pairs solved past k) can sort among them.
Its solves go through a band Cholesky factor of C - sigma I after reverse
Cuthill-McKee ordering (George & Liu, 1981) while the ordered band b stays
within 4 sqrt(n); wider bands fall back to scipy's SuperLU factor.
Surface meshes have b near 1.6 sqrt(n) (icospheres) or 0.7 sqrt(n) (bent
bars), where one band solve at 2,562 vertices takes 0.21 ms against
SuperLU's 0.37 ms; a high-valence hub widens b to its valence.  The
iteration runs in the solver's vertex order; the Ritz vectors return to
mesh order once, at the end.  Retained eigenvectors are A-orthonormal,
ascending and sign-fixed (largest-magnitude entry positive); the zero
mode's eigenvalue is clamped to exactly 0, and the checks hold it to that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from ._files import atomic_write, check_mesh_hash, open_npz
from .errors import DataError, NumericalError
from .mesh import cotangent_laplacian

_DENSE_LIMIT = 512
# Solve a few pairs past k and keep the first k, so a degenerate cluster
# straddling the cut cannot lose members.
_PAD = 8
# Krylov block size: an exact multiplet wider than the block is seen only
# through rounding (icosphere multiplets have at most 5 members).
_BLOCK = 8
# Converged when every wanted Ritz residual is below this times theta_max.
_RITZ_TOL = 1e-14
_MAX_RESTARTS = 100
_RESTART_ENTRIES = 1 << 18  # restart product's slab, part of a cache's bits: 2^20 moves them
_ORTHO_TOL = 1e-7
_BACKWARD_TOL = 1e-10  # normwise: one sliver's cotangents set |L|_inf and loosen it,
_ROW_TOL = 1e-6  # so each row is also held to its own scale
# A band Cholesky factor costs n b^2 flops and each solve 4 n b, so it only
# beats SuperLU's fill-reducing LU while the ordered band b is narrow.  A hub
# vertex of valence d makes b at least d/2 under any ordering: a 4,001-vertex
# fan has b = 1,998, and its band solve is about 30x slower than SuperLU's.
# Past this many sqrt(n) the solve is left to SuperLU.
_BAND_PER_SQRT_N = 4.0


@dataclass
class SpectralBasis:
    """Eigenvalues (k,), A-orthonormal eigenvectors (n, k), mass (n,)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    areas: np.ndarray
    mesh_hash: str = ""

    @property
    def k(self):
        return len(self.eigenvalues)

    @property
    def n_vertices(self):
        return self.eigenvectors.shape[0]

    @property
    def lambda_max(self):
        return float(self.eigenvalues[-1])


def _fix_signs(vectors):
    """Flip each column so its largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # these fail the checks, unwarned
def _verify(laplacian, areas, vals, vecs):
    """Raise NumericalError unless the pairs are A-orthonormal and, given L, each
    pair's unitless backward errors (Higham & Higham, SIMAX 20, 1998) for r = L phi -
    lambda A phi are in bounds: normwise, |r| / ((|L|_inf + |lambda| max A) |phi|);
    row-wise, max |r_i| / s_i for s = |L| |phi| + |lambda| A |phi|, each s_i raised to a
    typical row's (median |L_ii| + |lambda| median A) rms(phi), which no sliver sets."""
    a_vecs = vecs * areas[:, None]
    ortho_err = np.abs(a_vecs.T @ vecs - np.eye(vecs.shape[1])).max()  # max |Phi' A Phi - I|
    if not ortho_err <= _ORTHO_TOL:
        raise NumericalError(f"basis not A-orthonormal: max deviation {ortho_err:.3e}")
    if laplacian is None:
        return
    a_vecs *= vals[None, :]  # lambda A phi from here on: (n, k) arrays are large
    resid = laplacian @ vecs - a_vecs
    mag, norms = abs(laplacian), np.linalg.norm(vecs, axis=0)
    scale = mag.sum(axis=1).max() + np.abs(vals) * areas.max()
    err = (np.linalg.norm(resid, axis=0) / (scale * norms)).max()
    rows = mag @ np.abs(vecs) + np.abs(a_vecs, out=a_vecs)
    typical = (np.median(mag.diagonal()) + np.abs(vals) * np.median(areas)) * norms
    np.maximum(rows, typical / np.sqrt(len(areas)), out=rows)
    rows = (np.abs(resid, out=resid) / rows).max()
    if not (err <= _BACKWARD_TOL and rows <= _ROW_TOL):
        raise NumericalError(f"eigenpair residual over tolerance: backward error {err:.3e} "
                             f"normwise, {rows:.3e} row-wise")


def standard_form(laplacian, areas):
    """C = A^-1/2 L A^-1/2 (sparse) and A^-1/2 as a vector.

    C is symmetric with the pencil's eigenvalues; an orthonormal
    eigenvector psi of C gives the A-orthonormal phi = A^-1/2 psi.
    """
    inv_sqrt = 1.0 / np.sqrt(areas)
    sym = sp.csr_matrix(laplacian).multiply(inv_sqrt[:, None]).multiply(
        inv_sqrt[None, :])
    return sym, inv_sqrt


def _shifted_solver(sym, sigma):
    """A solve with C - sigma I on (n, j) blocks, and the vertex order it
    works in.  The band Cholesky factor solves in RCM order, so its
    right-hand sides and results are rows of C[perm][:, perm]; when that
    band is too wide, scipy's SuperLU factor solves in the identity order."""
    n = sym.shape[0]
    perm = reverse_cuthill_mckee(sym, symmetric_mode=True)
    upper = sp.triu(sym[perm][:, perm], format="coo")
    band = int((upper.col - upper.row).max())
    if band > _BAND_PER_SQRT_N * np.sqrt(n):
        return splu(sp.csc_matrix(sym - sigma * sp.identity(n))).solve, np.arange(n)
    # upper band storage: entry (i, j), i <= j, sits at row band + i - j
    packed = np.zeros((band + 1, n))
    packed[band + upper.row - upper.col, upper.col] = upper.data
    packed[band] -= sigma
    try:
        # the mesh checks have already rejected non-finite areas and weights
        factor = scipy.linalg.cholesky_banded(packed, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"shifted operator is not positive definite: {exc}") from exc

    def solve(rhs):
        return scipy.linalg.cho_solve_banded((factor, False), rhs, check_finite=False)

    return solve, perm


def _krylov_schur(solve, n, n_want, k):
    """Largest n_want Ritz pairs (theta, Ritz vectors as (n, n_want)) of the
    symmetric positive definite T = solve, by block Krylov-Schur, in the
    vertex order solve works in (RCM order for the band factor).  The first
    k are converged; the pads past them may not be.

    The basis is kept as rows, so Gram-Schmidt and the restart are GEMMs;
    H = V' T V comes from the Gram-Schmidt coefficients and QR factors, read
    from its lower triangle.  H is block tridiagonal plus a restart's
    arrowhead, so the first Gram-Schmidt pass runs only against the rows T
    reaches (the previous block, or after a restart every active kept Ritz
    row); the second runs against the whole basis.  After each Rayleigh-Ritz
    step the leading run of converged wanted pairs is locked: those rows stay
    at the front of the basis and leave H and the restart product.  It stops
    once the locked run covers k and no open pad can sort into the kept set:
    theta + residual < theta[k - 1] - tol for each (so a cluster straddling
    the cut converges first).
    """
    b = _BLOCK
    m = b * -(-max(2 * n_want, n_want + 3 * b) // b)
    keep = m - b * ((m - n_want) // (2 * b))  # about n_want + (m - n_want) / 2
    basis = np.empty((m + b, n))
    proj = np.zeros((m, m))
    theta = np.empty(keep)  # theta[:nl] belong to the locked rows
    start = np.random.default_rng(0x5EED).standard_normal((n, b))  # reruns identical
    basis[:b] = scipy.linalg.qr(start, mode="economic", check_finite=False)[0].T
    # basis[:nl] is locked, basis[nl:size] spans H, basis[size:size + b] is open
    size = lo = nl = 0
    tol = None
    chunk = max(1, _RESTART_ENTRIES // m)
    for _ in range(_MAX_RESTARTS + 1):
        while size < m:
            top = size + b
            block = solve(basis[size:top].T).T  # (b, n) rows, like the basis
            coef = basis[lo:top] @ block.T  # rows of basis[lo:top] that T reaches
            block -= coef.T @ basis[lo:top]
            again = basis[:top] @ block.T  # second Gram-Schmidt pass, full
            block -= again.T @ basis[:top]
            q, beta = scipy.linalg.qr(block.T, mode="economic", check_finite=False)
            basis[top:top + b] = q.T
            proj[size:top, size:top] = coef[-b:] + again[size:]
            if top < m:
                proj[top:top + b, size:top] = beta
            lo, size = size, top
        vals, ritz = np.linalg.eigh(proj[nl:, nl:])  # syevd on the lower triangle
        vals, ritz = vals[::-1], ritz[:, ::-1]  # largest theta first
        tol = _RITZ_TOL * vals[0] if tol is None else tol
        coupling = beta @ ritz[-b:]  # Ritz pair i's residual is basis[m:]' coupling[:, i]
        resid = np.linalg.norm(coupling[:, :n_want - nl], axis=0)
        lock = int((resid <= tol).cumprod().sum())
        rows = n_want if nl + lock == n_want else keep  # keep on a stop at k: same bits
        for col in range(0, n, chunk):  # no second (m, n) array
            basis[nl:rows, col:col + chunk] = ritz[:, :rows - nl].T @ basis[nl:m, col:col + chunk]
        theta[nl:rows] = vals[:rows - nl]
        if rows == n_want or nl + lock >= k and (
                vals[lock:n_want - nl] + resid[lock:] < theta[k - 1] - tol).all():
            return theta[:n_want], basis[:n_want].T
        basis[keep:keep + b] = basis[m:]
        proj[:] = 0.0
        proj[keep:keep + b, nl + lock:keep] = coupling[:, lock:keep - nl]
        nl += lock
        proj[nl:keep, nl:keep] = np.diag(theta[nl:keep])
        size, lo = keep, nl
    raise NumericalError(f"eigensolver did not converge in {_MAX_RESTARTS} restarts")


def eig_generalized(laplacian, areas, k, mesh_hash=""):
    """Lowest-k spectrum of the (L, A) pencil as a SpectralBasis."""
    n = laplacian.shape[0]
    if not 1 <= k <= n:
        raise DataError(f"k={k} out of range for {n} vertices")
    areas = np.asarray(areas, dtype=np.float64)
    sym, inv_sqrt = standard_form(laplacian, areas)
    n_want = k + _PAD
    sigma = -0.01 * np.median(laplacian.diagonal() / areas)  # below 0; a sliver swamps sums

    def checked(pairs, perm, inverted):  # inverted: pairs() gives theta of (C - sigma I)^-1
        vals, vecs = pairs()  # a Krylov basis is referenced only here
        vals = sigma + 1.0 / vals if inverted else vals
        order = np.argsort(vals)[:k]
        vals, vecs = vals[order], vecs[:, order]  # frees the Krylov basis
        vecs = vecs[np.argsort(perm)]  # back to vertex order
        vecs = np.ascontiguousarray(_fix_signs(vecs * inv_sqrt[:, None]))
        vals[0] = 0.0  # the constant mode, held to the pencil by _verify
        _verify(laplacian, areas, vals, vecs)
        return vals, vecs

    if n <= _DENSE_LIMIT or 4 * n_want > n:
        dense, rows = sym.toarray(), np.arange(n)
        try:
            vals, vecs = checked(lambda: scipy.linalg.eigh(dense, driver="evd"), rows, False)
        except NumericalError:  # one sliver's entries swamp C's low modes, not T's
            dense = np.linalg.inv(dense - sigma * np.eye(n))
            vals, vecs = checked(lambda: scipy.linalg.eigh(dense, driver="evd"), rows, True)
    else:  # Ritz vectors come in the solver's vertex order
        solve, perm = _shifted_solver(sym.tocsr(), sigma)
        vals, vecs = checked(lambda: _krylov_schur(solve, n, n_want, k), perm, True)
    if (vals[1:] <= 0).any():
        raise NumericalError("nonpositive eigenvalue beyond the zero mode")
    return SpectralBasis(vals, vecs, areas, mesh_hash)


def project(basis, signal):
    """A-inner-product coefficients: sigma = Phi' A f (per column of f)."""
    signal = np.asarray(signal, dtype=np.float64)
    weights = basis.areas[:, None] if signal.ndim == 2 else basis.areas
    return basis.eigenvectors.T @ (weights * signal)


_CACHE_VERSION = 1


def save_basis(path, basis):
    """Write the basis cache to exactly `path` (no ".npz" is appended)."""
    with atomic_write(path) as handle:
        np.savez(handle, version=np.int64(_CACHE_VERSION), eigenvalues=basis.eigenvalues,
                 eigenvectors=basis.eigenvectors, areas=basis.areas,
                 mesh_hash=np.bytes_(basis.mesh_hash.encode()))


def load_basis(path, mesh=None, k=None):
    """The basis cache at `path`; given the `mesh` it serves, one recorded
    for no other mesh (``_files.check_mesh_hash``) with a row per vertex,
    whose pairs solve the mesh's pencil.
    Given `k`, its first k pairs: a cache serves every k from 1 to the
    number of pairs it holds, and refuses any other."""
    with open_npz(path, "basis cache") as data:
        version = data["version"]  # an integer scalar; a float, even 1.0, is not one
        if version.shape or version.dtype.kind not in "iu" or version != _CACHE_VERSION:
            raise DataError(f"{path}: unsupported basis cache version")
        stored = data["mesh_hash"].astype(str).item() if "mesh_hash" in data else None
        basis = SpectralBasis(data["eigenvalues"], data["eigenvectors"], data["areas"],
                              stored or "")
    check_mesh_hash(path, stored, "basis cache", mesh)
    vals, vecs, areas = basis.eigenvalues, basis.eigenvectors, basis.areas
    if not (all(a.dtype.kind == "f" and np.isfinite(a).all() for a in (vals, vecs, areas))
            and vals.ndim == 1 and vals.size and vals[0] == 0 and (np.diff(vals) >= 0).all()
            and (vals[1:] > 0).all() and areas.ndim == 1 and (areas > 0).all()
            and vecs.shape == (areas.shape[0], vals.shape[0])):
        raise DataError(f"{path}: inconsistent basis cache: need finite eigenvalues (k,) "
                        "ascending from a single 0, eigenvectors (n, k) and positive "
                        f"areas (n,); got {vals.shape}, {vecs.shape}, {areas.shape}")
    if mesh is not None and basis.n_vertices != mesh.n_vertices:
        raise DataError(f"{path}: basis cache rows ({basis.n_vertices}) do not match "
                        f"mesh vertices ({mesh.n_vertices})")
    try:
        _verify(None if mesh is None else cotangent_laplacian(mesh), areas, vals, vecs)
    except NumericalError as exc:
        raise DataError(f"{path}: inconsistent basis cache: {exc}") from None
    if k is None or k == basis.k:
        return basis
    if not 1 <= k < basis.k:
        raise DataError(f"{path}: basis cache holds k={basis.k}, requested {k}: "
                        f"it serves 1 <= k <= {basis.k}")
    return SpectralBasis(vals[:k].copy(), vecs[:, :k].copy(), areas, basis.mesh_hash)
