"""Generalized eigenbasis of the (Laplacian, mass) pencil.

Solves L phi = lambda A phi for the k lowest pairs: dense LAPACK when the
mesh is small (or k reaches n), shift-invert Lanczos otherwise.  Retained
eigenvectors are A-orthonormal, ascending, sign-fixed (largest-magnitude
entry positive), and the zero mode is clamped to exactly 0 after the
residual checks pass.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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


def eig_generalized(laplacian, areas, k, mesh_hash=""):
    """Lowest-k spectrum of the (L, A) pencil as a SpectralBasis."""
    n = laplacian.shape[0]
    if not 1 <= k <= n:
        raise DataError(f"k={k} out of range for {n} vertices")
    areas = np.asarray(areas, dtype=np.float64)
    if n <= _DENSE_LIMIT or k >= n - 1:
        dense = laplacian.toarray() if sp.issparse(laplacian) else np.asarray(laplacian)
        vals, vecs = scipy.linalg.eigh(dense, np.diag(areas))
        vals, vecs = vals[:k], vecs[:, :k]
    else:
        # shift slightly negative (spectrum is >= 0) at the pencil's scale
        scale = laplacian.diagonal().sum() / areas.sum()
        rng = np.random.default_rng(0x5EED)  # fixed start vector: reruns identical
        n_solve = min(n - 2, k + _EIGSH_PAD)
        try:
            vals, vecs = spla.eigsh(
                laplacian,
                k=n_solve,
                M=sp.diags(areas),
                sigma=-0.01 * scale,
                which="LM",
                tol=_SOLVER_TOL,
                maxiter=_MAXITER_PER_PAIR * n_solve,
                v0=rng.standard_normal(n),
            )
        except spla.ArpackNoConvergence as exc:
            raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(vals)[:k]
    vals = vals[order]
    vecs = np.ascontiguousarray(_fix_signs(vecs[:, order]))
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
