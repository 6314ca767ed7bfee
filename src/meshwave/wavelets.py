"""Spectral graph wavelets: analysis, synthesis, blockwise atom column
statistics, and the factored convolution operator.

A wavelet at scale index m centered on vertex v is the filtered delta
psi[x] = a(v) * sum_j g_m(lambda_j) phi_j(v) phi_j(x); index 0 is the
scaling-function atom.  Analysis coefficients use the A-inner product,
so with the full basis and an exact frame, synthesis inverts analysis.
"""

from __future__ import annotations

import numpy as np

from .filters import filter_responses
from .spectral import project


def wavelet_coeffs(basis, bank, signal):
    """Analysis table (n_filters, n): row m holds <f, psi_{m, v}>_A."""
    sigma = project(basis, np.asarray(signal, dtype=np.float64))
    responses = filter_responses(bank, basis.eigenvalues)
    # W[m, v] = a(v) * sum_j g_m(lambda_j) sigma_j phi_j(v)
    return (responses * sigma[None, :]) @ basis.eigenvectors.T * basis.areas[None, :]


def reconstruct(basis, bank, coeffs):
    """Synthesis: f_hat = sum_m sum_v a(v)^-1 W[m, v] psi_{m, v}.

    Expanded in the basis this is sum_m Phi (g_m * (Phi' W_m)), which is
    what gets evaluated; the explicit-atom route is kept as a test oracle.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    responses = filter_responses(bank, basis.eigenvalues)
    spectral_sums = basis.eigenvectors.T @ coeffs.T  # (k, n_filters)
    return basis.eigenvectors @ (responses.T * spectral_sums).sum(axis=1)


_BLOCK_ENTRIES = 1 << 20  # float64 entries per temporary block (8 MB)


def _blocks(n: int, width: int):
    """Slices cutting range(n) into blocks of at most _BLOCK_ENTRIES / width."""
    step = max(1, _BLOCK_ENTRIES // max(1, width))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _atom_blocks(phi, responses):
    """Yield (cols, atoms), atoms[:, s, c] column cols[c] of the filter
    Phi diag(g_s) Phi' (responses is (k, S)), in blocks of centre vertices
    of at most _BLOCK_ENTRIES entries: no (n, n) array is ever allocated."""
    n, k = phi.shape
    n_filters = responses.shape[1]
    for cols in _blocks(n, n * n_filters):
        scaled = responses[:, :, None] * phi[cols].T[:, None, :]  # (k, S, b)
        atoms = phi @ scaled.reshape(k, -1)
        yield cols, atoms.reshape(n, n_filters, cols.stop - cols.start)


def atom_l1_norms(phi, responses):
    """(n, S) column L1 norms of the filters Phi diag(g_s) Phi'."""
    norms = np.empty((phi.shape[0], responses.shape[1]))
    for cols, atoms in _atom_blocks(phi, responses):
        norms[cols] = np.abs(atoms).sum(axis=0).T
    return norms


def atom_ranges(phi, responses):
    """(n, S) column minima and maxima of the filters Phi diag(g_s) Phi'."""
    lo, hi = np.empty((2, phi.shape[0], responses.shape[1]))
    for cols, atoms in _atom_blocks(phi, responses):
        lo[cols] = atoms.min(axis=0).T
        hi[cols] = atoms.max(axis=0).T
    return lo, hi


class WaveletOperator:
    """Row-normalised wavelet filters P_s = diag(r_s) Phi diag(g_s) Phi',
    applied in factored form.

    P_s is the transposed, column-L1-normalised atom matrix of scale s
    (the vertex areas cancel in the normalisation).  Only Phi (n, k), the
    responses G (k, S) and the row normalisers R (n, S) are stored; one
    column of G and R per entry of keys.  The layer interface is the one
    ``layers.DenseOperator`` documents.
    """

    def __init__(self, phi, responses, normalizers, keys):
        self.phi = phi
        self.responses = responses
        self.normalizers = normalizers
        self.keys = list(keys)

    def __contains__(self, key) -> bool:
        return key in self.keys

    @property
    def n_scales(self) -> int:
        return len(self.keys)

    def select(self, keys) -> "WaveletOperator":
        index = {k: j for j, k in enumerate(self.keys)}
        cols = [index[k] for k in keys]
        # column gathers come out Fortran-ordered; the einsums want C order
        return WaveletOperator(
            self.phi,
            np.ascontiguousarray(self.responses[:, cols]),
            np.ascontiguousarray(self.normalizers[:, cols]),
            keys,
        )

    def forward(self, x, weights):
        """sum_s P_s X W_s: one Phi' X, one GEMM against [W_1 ... W_S],
        then Phi [Z_1 ... Z_S] and the R-weighted sum over scales, a block
        of rows at a time."""
        n, k = self.phi.shape
        n_out = weights[0].shape[1]
        z = (self.phi.T @ x) @ np.hstack(weights)
        z = (z.reshape(k, -1, n_out) * self.responses[:, :, None]).reshape(k, -1)
        out = np.empty((n, n_out))
        for rows in _blocks(n, z.shape[1]):
            u = (self.phi[rows] @ z).reshape(-1, self.n_scales, n_out)
            out[rows] = np.einsum("ns,nsd->nd", self.normalizers[rows], u)
        return out

    def backward(self, x, ds, weights):
        """With V_s = Phi' (r_s * dS), one product accumulated a block of
        rows at a time: dW_s = (Phi' X)' G_s V_s and
        dX = Phi sum_s G_s V_s W_s'."""
        n, k = self.phi.shape
        n_out = ds.shape[1]
        v = np.zeros((k, self.n_scales * n_out))
        for rows in _blocks(n, v.shape[1]):
            weighted = np.einsum("ns,nd->nsd", self.normalizers[rows], ds[rows])
            v += self.phi[rows].T @ weighted.reshape(weighted.shape[0], -1)
        v = (v.reshape(k, -1, n_out) * self.responses[:, :, None]).reshape(k, -1)
        dws = np.hsplit((self.phi.T @ x).T @ v, self.n_scales)
        dx = self.phi @ (v @ np.hstack(weights).T)
        return dx, dws
