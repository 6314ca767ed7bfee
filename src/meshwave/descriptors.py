"""Per-vertex shape descriptors and their file format.

The central construction decomposes the Dirichlet energy of the
coordinate functions across wavelet scales and vertices, then collects
the per-scale energies with minmax-normalized wavelet weights into a
multiscale descriptor.  Heat- and wave-kernel signatures are provided
as spectral baselines, and every descriptor can be saved to a small
self-describing binary or exported as CSV.

The energy table and the WEDS weights apply K_m = Phi diag(g_m) through
``wavelets._spectral_filter``.  For an A-orthonormal basis (Phi' A Phi =
I; ``eig_generalized`` refuses a deviation over 1e-7) the table's mode
coupling sum_m g_m Phi' A K_m(sigma) is G(lambda) sigma, with G = sum_m
g_m^2 the frame function, so the table takes two kernel calls and no
GEMM over the vertices.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from ._files import atomic_write
from .errors import DataError
from .filters import bank_hash, filter_responses, select_scales
from .spectral import project
from .wavelets import _spectral_filter, filter_atom_stats

DEFAULT_DIMS = 128


@dataclass
class DescriptorField:
    """Row v is the descriptor of vertex v."""

    values: np.ndarray
    kind: str
    metadata: dict = field(default_factory=dict)

    @property
    def n_vertices(self):
        return self.values.shape[0]

    @property
    def n_dims(self):
        return self.values.shape[1]


def dirichlet_energy(laplacian, signal):
    """f' L f per column: 0 for constants, lambda_j for basis vectors,
    and summed over xyz coordinates it is twice the surface area."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim == 1:
        return float(signal @ (laplacian @ signal))
    return np.einsum("vi,vi->i", signal, laplacian @ signal)


def _decompose_with_responses(basis, responses, signals, power):
    """Energy table eps[m, v] given the (k, n_filters) response table.

    eps[m, v] = a(v) sum_i K_m(sigma_i)(v) K_m(lambda^p G sigma_i)(v),
    two calls of the filter kernel on the analysis coefficients sigma_i
    of the signal columns; K_m(c) is Phi diag(g_m) c.
    """
    if power not in (1, 2):
        raise DataError(f"power must be 1 or 2, got {power}")
    signals = np.asarray(signals, dtype=np.float64)
    if signals.ndim == 1:
        signals = signals[:, None]
    sigma = project(basis, signals)  # (k, d)
    # the constant mode carries no energy; dropping it from the analysis
    # (not just the outer mode sum) makes the table blind to translation
    sigma[0] = 0.0
    frame = (responses ** 2).sum(axis=1)  # G(lambda_j)
    # lambda_0 = 0 drops the zero mode from the second factor as well
    weight = (basis.eigenvalues ** power * frame)[:, None]
    tables = _spectral_filter(basis.eigenvectors, responses, sigma)  # (n, n_filters, d)
    fields = _spectral_filter(basis.eigenvectors, responses, weight * sigma)
    return ((tables * fields).sum(axis=2) * basis.areas[:, None]).T


def energy_decomposition(basis, bank, signals, power=2):
    """eps[m, v]: signal energy attributed to filter m at vertex v.

    power=1 is the diagnostic mode whose total recovers the Dirichlet
    energy (exactly for a perfect frame, within the frame slack
    otherwise); power=2 makes the table invariant to uniform rescaling
    of the mesh.
    """
    responses = filter_responses(bank, basis.eigenvalues).T
    return _decompose_with_responses(basis, responses, signals, power)


def subsample_columns(n_total, n_keep):
    """Uniform stride over column indices, first column always kept."""
    if n_keep > n_total:
        raise DataError(f"cannot subsample {n_total} columns to {n_keep}")
    return (np.arange(n_keep, dtype=np.int64) * n_total) // n_keep


def weds(basis, bank, coords, n_dims=DEFAULT_DIMS, power=2, atom_cache=None):
    """Wavelet energy decomposition descriptor, one row per vertex.

    Cascades the energy table over a select_scales(n_dims) set of
    wavelet weightings (32 values each) and subsamples to n_dims.  The
    weighting of scale m is the atom matrix, column v = a(v) K_m[:, v]
    with K_m = Phi diag(g_m) Phi', minmax-normalized per column (the
    positive areas cancel; constant columns give 0.5).  By linearity
    that is (eps K_m - rowsum(eps) lo_m) / (hi_m - lo_m) with lo_m, hi_m
    the column ranges of K_m: no (n, n) array is ever allocated.  The
    ranges come from ``wavelets.filter_atom_stats``; `atom_cache` is its
    sidecar file, or None to compute them.
    """
    if n_dims > 1024:
        raise DataError("descriptor dimension is capped at 1024")
    responses = filter_responses(bank, basis.eigenvalues).T  # (k, n_filters)
    eps = _decompose_with_responses(basis, responses, coords, power)  # (n_filters, n)
    phi = basis.eigenvectors
    scales = select_scales(n_dims)
    _, lo, hi = filter_atom_stats(basis, bank, responses, scales, atom_cache)  # (n, scales)
    values = _spectral_filter(phi, responses[:, scales], (eps @ phi).T)  # (n, scales, filters)
    totals = eps.sum(axis=1)
    flat = hi == lo
    values = (values - lo[:, :, None] * totals) / np.where(flat, 1.0, hi - lo)[:, :, None]
    values[flat] = 0.5 * totals
    values = values.reshape(phi.shape[0], -1)
    if values.shape[1] > n_dims:
        values = values[:, subsample_columns(values.shape[1], n_dims)]
    meta = {
        "type": "weds",
        "k": basis.k,
        "scale_count": lo.shape[1],
        "sample_count": int(n_dims),
        "power": int(power),
        "bank_hash": bank_hash(bank),
    }
    return DescriptorField(np.ascontiguousarray(values), "weds", meta)


def hks(basis, n_times=DEFAULT_DIMS, times=None):
    """Heat kernel signature over log-spaced diffusion times."""
    if basis.k < 2:
        raise DataError("heat kernel signature needs at least two eigenpairs")
    if times is None:
        lam1 = basis.eigenvalues[1]
        lam_k = basis.eigenvalues[-1]
        times = np.exp(
            np.linspace(
                np.log(4.0 * np.log(10.0) / lam_k),
                np.log(4.0 * np.log(10.0) / lam1),
                n_times,
            )
        )
    times = np.asarray(times, dtype=np.float64)
    decay = np.exp(-np.outer(basis.eigenvalues, times))
    values = (basis.eigenvectors ** 2) @ decay
    meta = {"type": "hks", "k": basis.k, "sample_count": len(times)}
    return DescriptorField(values, "hks", meta)


def wks(basis, n_energies=DEFAULT_DIMS, sigma_factor=7.0):
    """Wave kernel signature: Gaussian band-passes in log-eigenvalue."""
    if basis.k < 3:
        raise DataError("wave kernel signature needs at least three eigenpairs")
    log_ev = np.log(basis.eigenvalues[1:])
    spread = (log_ev[-1] - log_ev[0]) / n_energies
    sigma = sigma_factor * spread
    if log_ev[-1] - 2 * sigma <= log_ev[0] + 2 * sigma:
        raise DataError("spectrum too narrow for the requested energy count")
    energies = np.linspace(log_ev[0] + 2 * sigma, log_ev[-1] - 2 * sigma, n_energies)
    band = np.exp(-((energies[None, :] - log_ev[:, None]) ** 2) / (2.0 * sigma ** 2))
    values = (basis.eigenvectors[:, 1:] ** 2) @ band
    values /= band.sum(axis=0)[None, :]
    meta = {"type": "wks", "k": basis.k, "sample_count": int(n_energies)}
    return DescriptorField(values, "wks", meta)


# ---------------------------------------------------------------------------
# file format: magic, version, counts, JSON metadata block, float64 rows

_MAGIC = b"MWDF"
_VERSION = 1


def save_descriptors(path, descriptor_field):
    values = np.ascontiguousarray(descriptor_field.values, dtype=np.float64)
    meta = dict(descriptor_field.metadata)
    meta.setdefault("type", descriptor_field.kind)
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    with atomic_write(path) as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<I", _VERSION))
        handle.write(struct.pack("<QQ", values.shape[0], values.shape[1]))
        handle.write(struct.pack("<Q", len(meta_bytes)))
        handle.write(meta_bytes)
        handle.write(values.tobytes())


def load_descriptors(path):
    with open(path, "rb") as handle:
        if handle.read(4) != _MAGIC:
            raise DataError(f"{path}: not a descriptor file")
        try:
            version, n, d, meta_len = struct.unpack("<IQQQ", handle.read(28))
        except struct.error as exc:
            raise DataError(f"{path}: truncated descriptor header") from exc
        if version != _VERSION:
            raise DataError(f"{path}: unsupported descriptor version {version}")
        if meta_len + n * d * 8 > os.fstat(handle.fileno()).st_size - handle.tell():
            raise DataError(f"{path}: truncated descriptor data ({n}x{d} in header)")
        try:
            meta = json.loads(handle.read(meta_len).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: corrupt metadata block") from exc
        if not isinstance(meta, dict):
            raise DataError(f"{path}: metadata block is not a JSON object")
        values = np.frombuffer(handle.read(n * d * 8), dtype=np.float64).reshape(n, d)
    if not np.isfinite(values).all():
        raise DataError(f"{path}: non-finite descriptor values")
    return DescriptorField(values.copy(), meta.get("type", "unknown"), meta)


def export_descriptors_csv(path, descriptor_field):
    """Plain CSV, one vertex per row, 17 significant digits."""
    values = descriptor_field.values
    header = ",".join(f"dim_{i}" for i in range(values.shape[1]))
    with atomic_write(path, "w") as handle:
        handle.write(header + "\n")
        for row in values:
            handle.write(",".join(f"{x:.17g}" for x in row) + "\n")
