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

from ._files import atomic_write, check_mesh_hash, json_object, open_read
from .errors import DataError, NumericalError
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


def check_settings(kind, num, power=2):
    """Refuse a descriptor type, a dimension, or a WEDS power that `weds`,
    `hks` or `wks` would refuse, before anything is computed."""
    if kind not in ("weds", "hks", "wks"):
        raise DataError(f"unknown descriptor type {kind!r}")
    if kind == "weds" and num > 1024:
        raise DataError("descriptor dimension is capped at 1024")
    if kind == "weds" and power not in (1, 2):
        raise DataError(f"power must be 1 or 2, got {power}")
    if num < 1:  # as ``select_scales`` refuses it
        raise DataError("descriptor dimension must be positive")


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
    check_settings("weds", n_dims, power)
    responses = filter_responses(bank, basis.eigenvalues).T  # (k, n_filters)
    eps = _decompose_with_responses(basis, responses, coords, power)  # (n_filters, n)
    phi = basis.eigenvectors
    scales = select_scales(n_dims)
    lo, hi = filter_atom_stats(basis, bank, scales, "range", atom_cache)
    values = _spectral_filter(phi, responses[:, scales], (eps @ phi).T)  # (n, scales, filters)
    totals = eps.sum(axis=1)
    flat = hi == lo
    values -= lo[:, :, None] * totals
    values /= np.where(flat, 1.0, hi - lo)[:, :, None]
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


def hks(basis, n_times=DEFAULT_DIMS):
    """Heat kernel signature over log-spaced diffusion times."""
    if basis.k < 2:
        raise DataError("heat kernel signature needs at least two eigenpairs")
    check_settings("hks", n_times)
    lam1 = basis.eigenvalues[1]
    lam_k = basis.eigenvalues[-1]
    times = np.exp(
        np.linspace(
            np.log(4.0 * np.log(10.0) / lam_k),
            np.log(4.0 * np.log(10.0) / lam1),
            n_times,
        )
    )
    decay = np.exp(-np.outer(basis.eigenvalues, times))
    values = (basis.eigenvectors ** 2) @ decay
    meta = {"type": "hks", "k": basis.k, "sample_count": len(times)}
    return DescriptorField(values, "hks", meta)


def wks(basis, n_energies=DEFAULT_DIMS):
    """Wave kernel signature: Gaussian band-passes in log-eigenvalue.

    Each band is normalized by its total weight over the spectrum; a band
    narrow enough to fall between eigenvalues has its weight underflow and
    raises NumericalError."""
    check_settings("wks", n_energies)
    if basis.k < 3:
        raise DataError("wave kernel signature needs at least three eigenpairs")
    log_ev = np.log(basis.eigenvalues[1:])
    spread = (log_ev[-1] - log_ev[0]) / n_energies
    sigma = 7.0 * spread  # Aubry et al. 2011: sigma = 7 delta
    if log_ev[-1] - 2 * sigma <= log_ev[0] + 2 * sigma:
        raise DataError("spectrum too narrow for the requested energy count")
    energies = np.linspace(log_ev[0] + 2 * sigma, log_ev[-1] - 2 * sigma, n_energies)
    band = np.exp(-((energies[None, :] - log_ev[:, None]) ** 2) / (2.0 * sigma ** 2))
    weight = band.sum(axis=0)
    lost = int((weight < np.finfo(np.float64).tiny).sum())
    if lost:
        raise NumericalError(
            f"wave kernel signature: {lost} of {n_energies} energy bands underflow "
            f"between the {basis.k} eigenvalues; lower the energy count or raise k")
    values = (basis.eigenvectors[:, 1:] ** 2) @ band
    values /= weight[None, :]
    meta = {"type": "wks", "k": basis.k, "sample_count": int(n_energies)}
    return DescriptorField(values, "wks", meta)


# ---------------------------------------------------------------------------
# file format: magic, version, counts, JSON metadata block, float64 rows

_MAGIC = b"MWDF"
_VERSION = 1


def save_descriptors(path, descriptor_field):
    """Write the field to `path`; non-finite values raise NumericalError and
    write nothing, as ``load_descriptors`` would refuse the file."""
    values = np.ascontiguousarray(descriptor_field.values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise NumericalError(f"cannot write {path}: non-finite descriptor values")
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


def load_descriptors(path, mesh=None):
    """The descriptor file at `path`; given the `mesh` it serves, one recorded
    for no other mesh with a row per vertex, checked before the values are read."""
    with open_read(path, "descriptor file") as handle:
        if handle.read(4) != _MAGIC:
            raise DataError(f"{path}: not a descriptor file")
        try:
            version, n, d, meta_len = struct.unpack("<IQQQ", handle.read(28))
        except struct.error as exc:
            raise DataError(f"{path}: truncated descriptor header") from exc
        if version != _VERSION:
            raise DataError(f"{path}: unsupported descriptor version {version}")
        if not n or not d:
            raise DataError(f"{path}: empty descriptor field ({n}x{d} in header)")
        spare = os.fstat(handle.fileno()).st_size - handle.tell() - meta_len - n * d * 8
        if spare < 0:
            raise DataError(f"{path}: truncated descriptor data ({n}x{d} in header)")
        if spare:
            raise DataError(f"{path}: {spare} bytes past the descriptor data ({n}x{d} in header)")
        meta = json_object(handle.read(meta_len), path, "descriptor metadata")
        check_mesh_hash(path, meta.get("mesh_hash"), "descriptor file", mesh)
        if mesh is not None and n != mesh.n_vertices:
            raise DataError(f"{path}: descriptor rows ({n}) do not match "
                            f"mesh vertices ({mesh.n_vertices})")
        values = np.empty((n, d), dtype=np.float64)
        if handle.readinto(values) != values.nbytes:
            raise DataError(f"{path}: truncated descriptor data ({n}x{d} in header)")
    if not np.isfinite(values).all():
        raise DataError(f"{path}: non-finite descriptor values")
    return DescriptorField(values, meta.get("type", "unknown"), meta)


def export_descriptors_csv(path, descriptor_field):
    """Plain CSV, one vertex per row, 17 significant digits."""
    values = descriptor_field.values
    header = ",".join(f"dim_{i}" for i in range(values.shape[1]))
    with atomic_write(path, "w") as handle:
        np.savetxt(handle, values, fmt="%.17g", delimiter=",", header=header, comments="")
