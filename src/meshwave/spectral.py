"""Generalized eigenbasis of the (Laplacian, mass) pencil.

Solves L phi = lambda A phi for the k lowest pairs on the symmetric
standard form C = A^-1/2 L A^-1/2, which has the pencil's eigenvalues; the
eigenvectors come back as phi = A^-1/2 psi.  Up to 512 vertices (or when k
reaches n - 1) dense LAPACK (syevd) solves C: at k = 100 on one thread
that takes about 30 ms at 420 vertices, where the generalized pencil took 43.
Otherwise shift-invert Lanczos runs on C with no mass products (ARPACK
mode 3 with an identity B); its solves go through a band Cholesky factor
of C - sigma I after reverse Cuthill-McKee ordering (George & Liu, 1981)
while the ordered band b stays within 4 sqrt(n); wider bands fall back to
scipy's SuperLU factor.  Surface meshes have b near 1.6 sqrt(n)
(icospheres) or 0.7 sqrt(n) (bent bars), where one band solve at 2,562
vertices takes 0.21 ms against SuperLU's 0.37 ms; a high-valence hub
widens b to its valence.  Retained eigenvectors are A-orthonormal,
ascending, sign-fixed (largest-magnitude entry positive), and the zero
mode is clamped to exactly 0 after the residual checks pass.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from ._files import atomic_write, open_npz
from .errors import DataError, NumericalError

logger = logging.getLogger(__name__)

_DENSE_LIMIT = 512
# tol=0 means machine precision.  Anything looser lets ARPACK declare
# convergence before a degenerate cluster is fully resolved, which silently
# drops a multiplet member (seen on sphere spectra).
_SOLVER_TOL = 0.0
# Same failure mode at the window edge: solve a few pairs past k and keep
# the first k, so a cluster straddling the cut cannot lose members.
_EIGSH_PAD = 8
_MAXITER_PER_PAIR = 50
_ZERO_MODE_REL = 1e-8
_ORTHO_TOL = 1e-7
_RESIDUAL_REL = 1e-6
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


def _ortho_error(a_vecs, vecs):
    """max |Phi' A Phi - I| from A Phi and Phi."""
    return np.abs(a_vecs.T @ vecs - np.eye(vecs.shape[1])).max()


def _verify(laplacian, areas, vals, vecs):
    a_vecs = vecs * areas[:, None]
    ortho_err = _ortho_error(a_vecs, vecs)
    if ortho_err > _ORTHO_TOL:
        raise NumericalError(f"basis not A-orthonormal: max deviation {ortho_err:.3e}")
    resid = laplacian @ vecs - a_vecs * vals[None, :]
    rel = np.linalg.norm(resid, axis=0) / np.linalg.norm(a_vecs, axis=0)
    if rel.max() > _RESIDUAL_REL:
        raise NumericalError(f"eigenpair residual {rel.max():.3e} over tolerance")


def standard_form(laplacian, areas):
    """C = A^-1/2 L A^-1/2 (sparse) and A^-1/2 as a vector.

    C is symmetric with the pencil's eigenvalues; an orthonormal
    eigenvector psi of C gives the A-orthonormal phi = A^-1/2 psi.
    """
    inv_sqrt = 1.0 / np.sqrt(areas)
    sym = sp.csr_matrix(laplacian).multiply(inv_sqrt[:, None]).multiply(
        inv_sqrt[None, :])
    return sym, inv_sqrt


def _banded_inverse(sym, sigma):
    """(C - sigma I)^-1 as a LinearOperator from a band Cholesky factor of
    the RCM-ordered C - sigma I, or None when the band is too wide."""
    n = sym.shape[0]
    perm = reverse_cuthill_mckee(sym, symmetric_mode=True)
    upper = sp.triu(sym[perm][:, perm], format="coo")
    band = int((upper.col - upper.row).max())
    if band > _BAND_PER_SQRT_N * np.sqrt(n):
        return None
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
        out = np.empty_like(rhs)
        out[perm] = scipy.linalg.cho_solve_banded((factor, False), rhs[perm],
                                                  check_finite=False)
        return out

    return spla.LinearOperator((n, n), matvec=solve, dtype=np.float64)


def eig_generalized(laplacian, areas, k, mesh_hash=""):
    """Lowest-k spectrum of the (L, A) pencil as a SpectralBasis."""
    n = laplacian.shape[0]
    if not 1 <= k <= n:
        raise DataError(f"k={k} out of range for {n} vertices")
    areas = np.asarray(areas, dtype=np.float64)
    sym, inv_sqrt = standard_form(laplacian, areas)
    sym = sym.tocsr()
    if n <= _DENSE_LIMIT or k >= n - 1:
        vals, vecs = scipy.linalg.eigh(sym.toarray(), driver="evd")
    else:
        # shift slightly negative (spectrum is >= 0) at the pencil's scale
        sigma = -0.01 * (laplacian.diagonal().sum() / areas.sum())
        rng = np.random.default_rng(0x5EED)  # fixed start vector: reruns identical
        n_solve = min(n - 2, k + _EIGSH_PAD)
        try:
            vals, vecs = spla.eigsh(
                sym,
                k=n_solve,
                sigma=sigma,
                which="LM",
                tol=_SOLVER_TOL,
                maxiter=_MAXITER_PER_PAIR * n_solve,
                v0=rng.standard_normal(n),
                OPinv=_banded_inverse(sym, sigma),
            )
        except spla.ArpackNoConvergence as exc:
            raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(vals)[:k]
    vals = vals[order]
    vecs = np.ascontiguousarray(_fix_signs(vecs[:, order] * inv_sqrt[:, None]))
    _verify(laplacian, areas, vals, vecs)
    lam1 = vals[1] if k > 1 else max(abs(vals[0]), 1.0)
    if abs(vals[0]) > _ZERO_MODE_REL * abs(lam1):
        raise NumericalError(
            f"zero mode missing: lambda_0={vals[0]:.3e} vs lambda_1={lam1:.3e}"
        )
    vals[0] = 0.0
    if k > 1 and (vals[1:] <= 0).any():
        raise NumericalError("nonpositive eigenvalue beyond the zero mode")
    return SpectralBasis(vals, vecs, areas, mesh_hash)


def project(basis, signal):
    """A-inner-product coefficients: sigma = Phi' A f (per column of f)."""
    signal = np.asarray(signal, dtype=np.float64)
    return basis.eigenvectors.T @ (basis.areas[: , None] * signal
                                   if signal.ndim == 2
                                   else basis.areas * signal)


_CACHE_VERSION = 1


def save_basis(path, basis):
    """Write the basis cache to exactly `path` (no ".npz" is appended)."""
    with atomic_write(path) as handle:
        np.savez(
            handle,
            version=np.int64(_CACHE_VERSION),
            eigenvalues=basis.eigenvalues,
            eigenvectors=basis.eigenvectors,
            areas=basis.areas,
            mesh_hash=np.bytes_(basis.mesh_hash.encode()),
        )


def load_basis(path, expect_mesh_hash=None):
    with open_npz(path, "basis cache") as data:
        if int(data["version"]) != _CACHE_VERSION:
            raise DataError(f"{path}: unsupported basis cache version")
        basis = SpectralBasis(
            data["eigenvalues"],
            data["eigenvectors"],
            data["areas"],
            bytes(data["mesh_hash"]).decode(),
        )
    vals, vecs, areas = basis.eigenvalues, basis.eigenvectors, basis.areas
    if not (all(a.dtype.kind == "f" and np.isfinite(a).all() for a in (vals, vecs, areas))
            and vals.ndim == 1 and vals.size and vals[0] == 0 and (np.diff(vals) >= 0).all()
            and areas.ndim == 1 and (areas > 0).all()
            and vecs.shape == (areas.shape[0], vals.shape[0])):
        raise DataError(f"{path}: inconsistent basis cache: need finite eigenvalues (k,) "
                        "ascending from 0, eigenvectors (n, k) and positive areas (n,); "
                        f"got {vals.shape}, {vecs.shape}, {areas.shape}")
    ortho_err = _ortho_error(vecs * areas[:, None], vecs)
    if ortho_err > _ORTHO_TOL:
        raise DataError(f"{path}: inconsistent basis cache: eigenvectors not "
                        f"A-orthonormal (max deviation {ortho_err:.3e})")
    if expect_mesh_hash is not None and basis.mesh_hash != expect_mesh_hash:
        raise DataError(
            f"{path}: stale basis cache (mesh content hash mismatch); "
            "recompute with the current mesh"
        )
    return basis
