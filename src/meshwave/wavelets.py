"""Spectral graph wavelets: analysis, synthesis, atom column statistics
(with their sidecar cache file), and the factored convolution operator.

A wavelet at scale index m centered on vertex v is the filtered delta
psi[x] = a(v) * sum_j g_m(lambda_j) phi_j(v) phi_j(x); index 0 is the
scaling-function atom.  Analysis coefficients use the A-inner product,
so with the full basis and an exact frame, synthesis inverts analysis.

Every filter K_s = Phi diag(g_s) Phi' is applied as one GEMM of rows of
Phi against ``_weigh``'s block of diag(g_s) times spectral coefficients
(one (k, d) block for all S filters or one per filter).  Analysis, the
energy table and WEDS weights call that product, ``_spectral_filter``;
the atom sweep weighs each row block once for all its tiles, and the
forward conv pass weighs its block once, in place, for all its row
blocks, each formed in one reused workspace.  Synthesis and the backward
pass keep their Phi'-side products.  For an A-orthonormal basis (Phi' A Phi = I) synthesis after
analysis is Phi diag(G) Phi' A, with G = sum_s g_s^2 the frame function
of Hammond, Vandergheynst & Gribonval (ACHA 2011).

Up to the positive area a(v), atom column v is column v of the symmetric
filter K_m = Phi diag(g_m) Phi'.  WEDS needs each column's minimum and
maximum (the "range" statistic), the conv layers its L1 norm ("l1").
``_atom_sweep`` gets one statistic from one sweep over the tiles I <= J
of K (symmetry supplies the rest), S scales per GEMM into one tile buffer
of at most _BLOCK_ENTRIES entries.  ``filter_atom_stats`` can keep one
statistic's table for one request in a sidecar file, under one key: the
SHA-256 of the format version, the statistic, the bank's ``bank_hash``,
the basis arrays (eigenvalues, eigenvectors, areas) and the distinct
ascending filter set, beside the SHA-256 of the table, ``tables_hash``.
A file with no key or another one is replaced by a sweep of exactly that
set, so a cached statistic is byte for byte a fresh sweep's; a table
under the key that fails its checks or its digest is refused.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import threading

import numpy as np

from ._files import atomic_write, open_npz
from .errors import DataError
from .filters import bank_hash, filter_responses
from .spectral import project

logger = logging.getLogger(__name__)


def _weigh(responses, coeffs, out=None):
    """(k, S*d) block [diag(g_1) C_1 ... diag(g_S) C_S] for the responses
    (k, S) and one (k, d) block C shared by the filters or one (k, S, d)
    block per filter; `out` is a (k, S, d) array or None."""
    coeffs = coeffs[:, None, :] if coeffs.ndim == 2 else coeffs
    return np.multiply(responses[:, :, None], coeffs, out=out).reshape(len(responses), -1)


def _spectral_filter(phi, responses, coeffs):
    """(rows, S, d): Phi diag(g_s) C_s for the rows of Phi given."""
    return (phi @ _weigh(responses, coeffs)).reshape(len(phi), responses.shape[1], -1)


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


# Scratch for the conv passes' (rows, S*d) row blocks: one buffer per
# thread, grown to the largest block asked for (at most _BLOCK_ENTRIES
# entries for blocks from _blocks), so every operator set shares it and a
# training step holds one block however many shapes it has.
_scratch = threading.local()


def _workspace(shape):
    """A float64 array of `shape` over this thread's scratch buffer; it
    holds until the next call, so no returned array may alias it."""
    size = math.prod(shape)
    if getattr(_scratch, "buf", np.empty(0)).size < size:
        _scratch.buf = np.empty(size)
    return _scratch.buf[:size].reshape(shape)


# _atom_sweep's arrays for each statistic, and the value each starts from
_STATS = {"l1": {"l1": 0.0}, "range": {"lo": np.inf, "hi": -np.inf}}
_STATS_VERSION = 5


def _atom_sweep(phi, responses, stat):
    """Column statistic `stat` of the filters K_s = Phi diag(g_s) Phi'
    (responses is (k, S)): (l1,), the column L1 norms, or (lo, hi), the
    column minima and maxima; each is (n, S).

    K_s is symmetric, so only its tiles I <= J are formed, all S scales
    in one GEMM; each row block is weighed once.  The tile buffer and the
    slab are allocated once.  Each tile is reduced along its rows into
    columns J and, off the diagonal, along its columns into columns I.
    """
    (n, k), n_filters = phi.shape, responses.shape[1]
    width = min(n, max(1, math.isqrt(_BLOCK_ENTRIES // max(1, n_filters))))
    out = [np.full((n, n_filters), start) for start in _STATS[stat].values()]
    tiles, slabs = np.empty(width * n_filters * width), np.empty(k * n_filters * width)
    for i in range(0, n, width):
        rows = slice(i, min(i + width, n))
        r = rows.stop - i
        # k-fastest, as numpy lays out a fresh slab for these column-major
        # operands, so each tile rounds as in a sweep of fresh arrays
        slab = _weigh(responses, phi[rows].T,
                      slabs[: k * n_filters * r].reshape(n_filters, r, k).transpose(2, 0, 1))
        for j in range(i, n, width):
            cols = slice(j, min(j + width, n))
            # tile[v, s, x] = K_s[x, v] = K_s[v, x] for x in rows, v in cols
            tile = tiles[: (cols.stop - j) * n_filters * r].reshape(-1, n_filters * r)
            tile = np.matmul(phi[cols], slab, out=tile).reshape(-1, n_filters, r)
            sides = [(cols, tile)] + ([(rows, tile.transpose(2, 1, 0))] if i != j else [])
            if stat == "l1":
                np.abs(tile, out=tile)
            for into, side in sides:
                if stat == "l1":
                    out[0][into] += side.sum(axis=2)
                else:
                    np.minimum(out[0][into], side.min(axis=2), out=out[0][into])
                    np.maximum(out[1][into], side.max(axis=2), out=out[1][into])
    return tuple(out)


def _digest(arrays, head="") -> bytes:
    """SHA-256 (hex) of `head` and the arrays' shapes and float64 values."""
    digest = hashlib.sha256(head.encode())
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=np.float64)
        digest.update(repr(array.shape).encode())
        digest.update(array)
    return digest.hexdigest().encode()


def _load_stats(path, key, shape, stat):
    """The arrays of `stat` stored at path under key, or None: no file, or not that key."""
    if not os.path.exists(path):
        return None
    with open_npz(path, "atom statistics") as data:
        if "key" not in data or data["key"].tobytes() != key:
            return None
        arrays, stored = [data[name] for name in _STATS[stat]], data["tables_hash"].tobytes()
    if not (all(a.dtype == np.float64 and a.shape == shape and np.isfinite(a).all()
                for a in arrays)
            and (0 <= arrays[0] if stat == "l1" else arrays[0] <= arrays[1]).all()
            and _digest(arrays) == stored):  # a value moved within the rules above
        raise DataError(f"{path}: inconsistent atom statistics: need finite float64 tables "
                        f"of shape {shape}, 0 <= l1 or lo <= hi, matching their digest")
    return arrays


def _save_stats(path, key, stat, arrays):
    try:
        with atomic_write(path) as handle:
            np.savez(handle, key=np.bytes_(key), tables_hash=np.bytes_(_digest(arrays)),
                     **dict(zip(_STATS[stat], arrays)))
    except (OSError, DataError) as exc:  # the statistics are a cache: the result stands
        logger.warning("%s: atom statistics not cached: %s", path, exc)


def filter_atom_stats(basis, bank, filters, stat, cache=None):
    """Column statistic `stat` ("l1" or "range", see ``_atom_sweep``) of
    the bank's filters with indices `filters` (repeats allowed) at the
    basis eigenvalues: its arrays, column j of each for filters[j].

    The sweep covers the distinct filters in ascending order, on which its
    tile width and rounding depend.  With `cache`, a sidecar file path, the
    table stored there under this request's key is reused; any other file
    is replaced by the sweep.  An empty request sweeps and writes nothing.
    """
    filters = np.asarray(filters, dtype=np.int64).reshape(-1)
    bad = filters[(filters < 0) | (filters > bank.n_scales)]
    if bad.size:
        raise DataError(f"filter index {bad[0]} out of range 0..{bank.n_scales}")
    wanted = np.unique(filters)  # the set a fresh sweep covers
    if not wanted.size:
        return tuple(np.empty((basis.n_vertices, 0)) for _ in _STATS[stat])
    key = cache and _digest([basis.eigenvalues, basis.eigenvectors, basis.areas, wanted],
                            f"{_STATS_VERSION} {stat} {bank_hash(bank)}")
    arrays = key and _load_stats(cache, key, (basis.n_vertices, wanted.size), stat)
    if not arrays:  # no cache, or a miss
        responses = filter_responses(bank, basis.eigenvalues)[wanted].T
        arrays = _atom_sweep(basis.eigenvectors, responses, stat)
        if key:
            _save_stats(cache, key, stat, arrays)
    index = np.searchsorted(wanted, filters)
    return tuple(a[:, index] for a in arrays)


class WaveletOperator:
    """Row-normalised wavelet filters P_s = diag(r_s) Phi diag(g_s) Phi',
    applied in factored form.

    P_s is the transposed, column-L1-normalised atom matrix of scale s
    (the vertex areas cancel in the normalisation).  Only Phi (n, k), the
    responses G (k, S) and the row normalisers R (n, S) are stored; one
    column of G and R per entry of keys.

    This is the layer operator interface, which ``chebyshev.
    ChebyshevOperator`` shares: ``n_scales``, ``select(keys)`` (the
    operator over those keys, in that order; a ``KeyError`` names a
    missing one), ``forward(x, weights)`` returning sum_s P_s X W_s and
    the block its backward pass reuses, and ``backward(kept, ds, weights,
    input_grad)`` returning the input gradient (None without `input_grad`)
    and one weight gradient per scale.
    """

    def __init__(self, phi, responses, normalizers, keys):
        self.phi = phi
        self.responses = responses
        self.normalizers = normalizers
        self.keys = list(keys)

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
        """(sum_s P_s X W_s, Phi' X): one Phi' X, one GEMM against
        [W_1 ... W_S] weighed in place by the responses, then a block of
        rows at a time Phi diag(g_s) Z_s into the workspace and the
        R-weighted sum over scales."""
        n, k = self.phi.shape
        phix = self.phi.T @ x
        z = (phix @ np.hstack(weights)).reshape(k, self.n_scales, -1)
        weighed = _weigh(self.responses, z, out=z)
        out = np.empty((n, z.shape[2]))
        for rows in _blocks(n, weighed.shape[1]):
            u = np.matmul(self.phi[rows], weighed,
                          out=_workspace((rows.stop - rows.start, weighed.shape[1])))
            out[rows] = np.einsum("ns,nsd->nd", self.normalizers[rows],
                                  u.reshape(-1, *z.shape[1:]))
        return out, phix

    def backward(self, phix, ds, weights, input_grad=True):
        """With V_s = Phi' (r_s * dS), summed over blocks of rows (each
        r_s * dS formed in the workspace): dW_s = (Phi' X)' G_s V_s and,
        with `input_grad`, dX = Phi sum_s G_s V_s W_s'."""
        n, k = self.phi.shape
        v = None
        for rows in _blocks(n, self.n_scales * ds.shape[1]):
            weighted = np.einsum(
                "ns,nd->nsd", self.normalizers[rows], ds[rows],
                out=_workspace((rows.stop - rows.start, self.n_scales, ds.shape[1])))
            block = self.phi[rows].T @ weighted.reshape(len(weighted), -1)
            v = block if v is None else np.add(v, block, out=v)
        per_scale = v.reshape(k, self.n_scales, -1)
        _weigh(self.responses, per_scale, out=per_scale)
        dws = np.hsplit(phix.T @ v, self.n_scales)
        return (self.phi @ (v @ np.hstack(weights).T) if input_grad else None), dws
