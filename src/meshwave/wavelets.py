"""Spectral graph wavelets: analysis, synthesis, atom column statistics
(with their sidecar cache file), and the factored convolution operator.

A wavelet at scale index m centered on vertex v is the filtered delta
psi[x] = a(v) * sum_j g_m(lambda_j) phi_j(v) phi_j(x); index 0 is the
scaling-function atom.  Analysis coefficients use the A-inner product,
so with the full basis and an exact frame, synthesis inverts analysis.

Every filter K_s = Phi diag(g_s) Phi' is applied by one kernel,
``_spectral_filter``: Phi diag(g_s) times spectral coefficients (one
(k, d) block for all S filters or one per filter), for any rows of Phi,
in one GEMM.  Analysis, the atom tiles, the forward conv pass, and the
energy table and WEDS weights call it; synthesis and the backward pass
keep their Phi'-side products.  For an A-orthonormal basis (Phi' A Phi
= I) synthesis after analysis is Phi diag(G) Phi' A, with G = sum_s g_s^2
the frame function of Hammond, Vandergheynst & Gribonval (ACHA 2011).

Up to the positive area a(v), atom column v is column v of the symmetric
filter K_m = Phi diag(g_m) Phi'.  WEDS needs each column's minimum and
maximum, the conv layers its L1 norm.  ``atom_stats`` gets all three
from one sweep over the tiles I <= J of K (symmetry supplies the tiles
below the diagonal), S scales per GEMM and at most _BLOCK_ENTRIES
entries per tile.  ``filter_atom_stats`` can keep them in a sidecar file
keyed by the SHA-256 of the basis arrays (eigenvalues, eigenvectors,
areas) and the bank's ``bank_hash``: scales stored for the same key are
reused, missing ones are computed and merged in, and a file with
another key is replaced.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os

import numpy as np

from ._files import atomic_write, open_npz
from .errors import DataError
from .filters import bank_hash, filter_responses
from .spectral import project

logger = logging.getLogger(__name__)


def _spectral_filter(phi, responses, coeffs):
    """(rows, S, d): Phi diag(g_s) C_s for the rows of Phi given and the S
    filter responses (k, S), in one GEMM; coeffs is one (k, d) block C
    shared by the filters or one (k, S, d) block per filter."""
    if coeffs.ndim == 2:
        coeffs = coeffs[:, None, :]
    slab = (responses[:, :, None] * coeffs).reshape(phi.shape[1], -1)
    return (phi @ slab).reshape(phi.shape[0], responses.shape[1], -1)


def wavelet_coeffs(basis, bank, signal):
    """Analysis table (n_filters, n): row m holds <f, psi_{m, v}>_A."""
    sigma = project(basis, np.asarray(signal, dtype=np.float64))
    responses = filter_responses(bank, basis.eigenvalues).T
    # W[m, v] = a(v) * sum_j g_m(lambda_j) sigma_j phi_j(v)
    table = _spectral_filter(basis.eigenvectors, responses, sigma[:, None])
    return table[:, :, 0].T * basis.areas


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


def atom_stats(phi, responses):
    """(l1, lo, hi), each (n, S): column L1 norms, minima and maxima of
    the filters K_s = Phi diag(g_s) Phi' (responses is (k, S)).

    K_s is symmetric, so only its tiles I <= J are formed, all S scales
    in one GEMM.  Each tile is reduced along its rows into columns J and,
    off the diagonal, along its columns into columns I.
    """
    n = phi.shape[0]
    n_filters = responses.shape[1]
    width = max(1, math.isqrt(_BLOCK_ENTRIES // max(1, n_filters)))
    l1 = np.zeros((n, n_filters))
    lo = np.full((n, n_filters), np.inf)
    hi = np.full((n, n_filters), -np.inf)
    for i in range(0, n, width):
        rows = slice(i, min(i + width, n))
        for j in range(i, n, width):
            cols = slice(j, min(j + width, n))
            # tile[v, s, x] = K_s[x, v] = K_s[v, x] for x in rows, v in cols
            tile = _spectral_filter(phi[cols], responses, phi[rows].T)
            sides = [(cols, tile)]
            if i != j:
                sides.append((rows, tile.transpose(2, 1, 0)))
            for into, side in sides:
                np.minimum(lo[into], side.min(axis=2), out=lo[into])
                np.maximum(hi[into], side.max(axis=2), out=hi[into])
            np.abs(tile, out=tile)
            for into, side in sides:
                l1[into] += side.sum(axis=2)
    return l1, lo, hi


_STATS_VERSION = 1
_STATS = ("l1", "lo", "hi")


def _basis_hash(basis) -> str:
    """SHA-256 of a basis's eigenvalues, eigenvectors and areas."""
    digest = hashlib.sha256()
    for array in (basis.eigenvalues, basis.eigenvectors, basis.areas):
        array = np.ascontiguousarray(array, dtype=np.float64)
        digest.update(repr(array.shape).encode())
        digest.update(array)
    return digest.hexdigest()


def _load_stats(path, keys, n, n_scales):
    """(filters, [l1, lo, hi]) stored at path under keys, or None when
    there is no file or it holds another basis or bank."""
    if not os.path.exists(path):
        return None
    with open_npz(path, "atom statistics") as data:
        if int(data["version"]) != _STATS_VERSION:
            raise DataError(f"{path}: unsupported atom statistics version")
        if (bytes(data["basis_hash"]), bytes(data["bank_hash"])) != keys:
            return None
        filters = data["filters"]
        l1, lo, hi = arrays = [data[name] for name in _STATS]
    if not (filters.ndim == 1 and filters.dtype.kind in "iu"
            and np.unique(filters).size == filters.size
            and ((0 <= filters) & (filters <= n_scales)).all()
            and all(a.dtype == np.float64 and a.shape == (n, filters.size)
                    and np.isfinite(a).all() for a in arrays)
            and (lo <= hi).all() and (l1 >= np.maximum(hi, -lo)).all()):
        raise DataError(
            f"{path}: inconsistent atom statistics: need unique filter indices "
            f"in 0..{n_scales} and finite float64 l1, lo, hi of shape (n={n}, "
            f"filters) with lo <= hi <= l1 and -lo <= l1"
        )
    return filters.astype(np.int64), arrays


def _save_stats(path, keys, filters, arrays):
    try:
        with atomic_write(path) as handle:
            np.savez(handle, version=np.int64(_STATS_VERSION),
                     basis_hash=np.bytes_(keys[0]), bank_hash=np.bytes_(keys[1]),
                     filters=filters, **dict(zip(_STATS, arrays)))
    except OSError as exc:  # the statistics are a cache: the result stands
        logger.warning("%s: atom statistics not cached: %s", path, exc)


def filter_atom_stats(basis, bank, responses, filters, cache=None):
    """atom_stats of the bank's filters with indices `filters` (repeats
    allowed): (l1, lo, hi), column j of each for filters[j].  responses
    is the bank's (k, n_filters) table at the basis eigenvalues.

    With `cache`, a sidecar file path, statistics stored there for the
    same basis and bank are reused, the scales it lacks are computed and
    merged in, and a file for another basis or bank is replaced.
    """
    filters = np.asarray(filters, dtype=np.int64).reshape(-1)
    bad = filters[(filters < 0) | (filters > bank.n_scales)]
    if bad.size:
        raise DataError(f"filter index {bad[0]} out of range 0..{bank.n_scales}")
    n = basis.n_vertices
    have, arrays = filters[:0], [np.empty((n, 0))] * 3
    if cache is not None:
        keys = (_basis_hash(basis).encode(), bank_hash(bank).encode())
        stored = _load_stats(cache, keys, n, bank.n_scales)
        if stored is not None:
            have, arrays = stored
    missing = np.setdiff1d(filters, have)
    if missing.size:
        new = atom_stats(basis.eigenvectors, responses[:, missing])
        have = np.concatenate([have, missing])
        order = np.argsort(have)
        have = have[order]
        arrays = [np.hstack([a, b])[:, order] for a, b in zip(arrays, new)]
        if cache is not None:
            _save_stats(cache, keys, have, arrays)
    index = np.searchsorted(have, filters)
    return tuple(a[:, index] for a in arrays)


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
        then Phi diag(g_s) Z_s for every s and the R-weighted sum over
        scales, a block of rows at a time."""
        n, k = self.phi.shape
        n_out = weights[0].shape[1]
        z = ((self.phi.T @ x) @ np.hstack(weights)).reshape(k, self.n_scales, n_out)
        out = np.empty((n, n_out))
        for rows in _blocks(n, self.n_scales * n_out):
            u = _spectral_filter(self.phi[rows], self.responses, z)
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
