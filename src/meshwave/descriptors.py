"""Per-vertex shape descriptors and their file format.

The central construction decomposes the Dirichlet energy of the
coordinate functions across wavelet scales and vertices, then collects
the per-scale energies with minmax-normalized wavelet weights into a
multiscale descriptor.  Heat- and wave-kernel signatures are provided
as spectral baselines, and every descriptor can be saved to a small
self-describing binary or exported as CSV.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .filters import bank_hash, filter_responses, select_scales
from .spectral import project
from .wavelets import atom_ranges

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
    """Energy table eps[m, v] given per-filter responses at the eigenvalues.

    The per-mode couplings omega[j, i] sum the analysis-times-mode terms
    over all filters and vertices; every sum over modes or vertices is
    one GEMM over a (k, n_filters * d) slab, laid out [j, m, i].
    """
    signals = np.asarray(signals, dtype=np.float64)
    if signals.ndim == 1:
        signals = signals[:, None]
    sigma = project(basis, signals)  # (k, d)
    # the constant mode carries no energy; dropping it from the analysis
    # (not just the outer mode sum) makes the table blind to translation
    sigma[0] = 0.0
    phi = basis.eigenvectors
    n, k = phi.shape
    g = responses.T[:, :, None]  # (k, n_filters, 1)
    # analysis tables W_i(m, v), then omega[j, i] = sum_m g_m(lambda_j) sum_v W_i(m, v) phi_j(v)
    tables = (phi @ (g * sigma[:, None, :]).reshape(k, -1)) * basis.areas[:, None]
    omega = (g * (phi.T @ tables).reshape(g.shape[:2] + (-1,))).sum(axis=1)  # (k, d)
    lam_pow = basis.eigenvalues ** power  # zero mode drops out (lambda_0 = 0)
    fields = phi @ (lam_pow[:, None, None] * g * omega[:, None, :]).reshape(k, -1)
    return (tables * fields).reshape(n, g.shape[1], -1).sum(axis=2).T


def energy_decomposition(basis, bank, signals, power=2):
    """eps[m, v]: signal energy attributed to filter m at vertex v.

    power=1 is the diagnostic mode whose total recovers the Dirichlet
    energy (exactly for a perfect frame, within the frame slack
    otherwise); power=2 makes the table invariant to uniform rescaling
    of the mesh.
    """
    if power not in (1, 2):
        raise DataError(f"power must be 1 or 2, got {power}")
    responses = filter_responses(bank, basis.eigenvalues)
    return _decompose_with_responses(basis, responses, signals, power)


def subsample_columns(n_total, n_keep):
    """Uniform stride over column indices, first column always kept."""
    if n_keep > n_total:
        raise DataError(f"cannot subsample {n_total} columns to {n_keep}")
    return (np.arange(n_keep, dtype=np.int64) * n_total) // n_keep


def weds(basis, bank, coords, n_dims=DEFAULT_DIMS, power=2):
    """Wavelet energy decomposition descriptor, one row per vertex.

    Cascades the energy table over a select_scales(n_dims) set of
    wavelet weightings (32 values each) and subsamples to n_dims.  The
    weighting of scale m is the atom matrix, column v = a(v) K_m[:, v]
    with K_m = Phi diag(g_m) Phi', minmax-normalized per column (the
    positive areas cancel; constant columns give 0.5).  By linearity
    that is (eps K_m - rowsum(eps) lo_m) / (hi_m - lo_m) with lo_m, hi_m
    the column ranges of K_m: no (n, n) array is ever allocated.
    """
    if n_dims > 1024:
        raise DataError("descriptor dimension is capped at 1024")
    eps = energy_decomposition(basis, bank, coords, power)  # (n_filters, n)
    phi = basis.eigenvectors
    responses = filter_responses(bank, basis.eigenvalues)[select_scales(n_dims)].T
    lo, hi = atom_ranges(phi, responses)  # (n, scales)
    slab = responses[:, :, None] * (eps @ phi).T[:, None, :]  # (k, scales, filters)
    values = (phi @ slab.reshape(phi.shape[1], -1)).reshape(lo.shape + (-1,))
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


# ---------------------------------------------------------------------------
# file format: magic, version, counts, JSON metadata block, float64 rows

_MAGIC = b"MWDF"
_VERSION = 1


def save_descriptors(path, descriptor_field):
    values = np.ascontiguousarray(descriptor_field.values, dtype=np.float64)
    meta = dict(descriptor_field.metadata)
    meta.setdefault("type", descriptor_field.kind)
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as handle:
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
    with open(path, "w") as handle:
        handle.write(header + "\n")
        for row in values:
            handle.write(",".join(f"{x:.17g}" for x in row) + "\n")
