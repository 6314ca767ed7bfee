"""Mexican-hat filter bank forming a near-Parseval frame on [0, lambda_max].

The bank holds one low-pass scaling filter h and K band-pass wavelet
filters g(t_m *), with log-spaced scales t_m chosen so the coarsest
wavelet peaks near the bottom of the spectrum and the finest beyond the
top.  The squared responses sum to 1 within FRAME_TOL.  The constants
are fixed (STOCK): responses depend on lambda / lambda_max only, so one
set serves every mesh, and it is a narrow optimum (a 1% change to most
constants breaks the tolerance).  Responses below _RESPONSE_FLOOR = 2^-900
are exact zeros, so the filter GEMMs form no subnormal products (slow on
x86).  Outputs keep their bytes: a dropped g adds under 2^-900 |Phi||c| to
a sum led by |Phi||c| times its scale's peak response, far below half an
ulp, and g^2 (the frame) already underflows to 0 for g < 2^-537.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, NumericalError

STOCK = {
    "n_scales": 31,  # K; select_scales assumes K + 1 = 32 filters
    "amplitude": 0.443,  # peak value of each wavelet filter
    "scaling_amplitude": 1.004,  # h(0)
    "scaling_decay": 38.462,  # cubic-exponential decay rate of h
    "span_coarse": 46.0,  # t_1 * lambda_max
    "span_fine": 0.2,  # t_K * lambda_max
}
FRAME_TOL = 0.01
_RESIDUAL_GRID = 256
_RESPONSE_FLOOR = 2.0**-900  # smaller responses are 0 (module docstring)


@dataclass(frozen=True)
class FilterBank:
    """Scaling filter plus K wavelet scales over (0, lambda_max]."""

    lambda_max: float
    scales: np.ndarray  # t_m, descending, shape (K,)
    amplitude: float
    scaling_amplitude: float
    scaling_decay: float
    span_coarse: float
    span_fine: float
    residual: float = float("nan")  # achieved max |G - 1| at build time

    @property
    def n_scales(self):
        return len(self.scales)

    @property
    def n_filters(self):
        return len(self.scales) + 1


def g_of(bank, m, lam):
    """Filter m evaluated at lam, shaped like lam; m = 0 is the scaling filter."""
    if not 0 <= m <= bank.n_scales:
        raise ValueError(f"filter index {m} out of range 0..{bank.n_scales}")
    return filter_responses(bank, lam)[m].reshape(np.shape(lam))[()]


def filter_responses(bank, lam):
    """All filters at lam, shape (K + 1, *lam.shape), a scalar lam read as (1,):
    row 0 the low-pass h = B exp(-(C lambda / lambda_max)^3), rows 1..K the
    band-pass g = amp * x^2 exp(1 - x^2) with x = t_m lambda."""
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    x = np.multiply.outer(bank.scales, lam)
    h = bank.scaling_amplitude * np.exp(-((bank.scaling_decay * lam / bank.lambda_max) ** 3))
    table = np.concatenate([h[None], bank.amplitude * x * x * np.exp(1.0 - x * x)])
    table[table < _RESPONSE_FLOOR] = 0.0
    return table


def _residual_grid(lambda_max, eigenvalues=None):
    grid = np.linspace(0.0, lambda_max, _RESIDUAL_GRID + 1)[1:]
    if eigenvalues is not None:
        grid = np.concatenate([np.asarray(eigenvalues, dtype=np.float64), grid])
    return grid


def frame_residual(bank, eigenvalues=None):
    """(max |G(lambda) - 1|, offending lambda) over the evaluation grid."""
    grid = _residual_grid(bank.lambda_max, eigenvalues)
    energy = (filter_responses(bank, grid) ** 2).sum(axis=0)
    dev = np.abs(energy - 1.0)
    worst = int(np.argmax(dev))
    return float(dev[worst]), float(grid[worst])


def build_filter_bank(lambda_max, eigenvalues=None):
    """The stock bank on [0, lambda_max]; raises NumericalError if its
    frame misses FRAME_TOL on the grid plus the given eigenvalues."""
    if lambda_max <= 0:
        raise DataError(f"lambda_max must be positive, got {lambda_max}")
    constants = dict(STOCK)
    n_scales = constants.pop("n_scales")
    scales = np.exp(np.linspace(np.log(constants["span_coarse"] / lambda_max),
                                np.log(constants["span_fine"] / lambda_max), n_scales))
    bank = FilterBank(float(lambda_max), scales, **constants)
    dev, where = frame_residual(bank, eigenvalues)
    if not dev <= FRAME_TOL:  # a NaN lambda_max gives a NaN residual
        raise NumericalError(
            f"filter bank is not a tight enough frame: |G-1| = {dev:.4f} > {FRAME_TOL}"
            f" at lambda = {where:.6g}"
        )
    return replace(bank, residual=dev)


def select_scales(n_dims):
    """Wavelet scale indices for an n_dims-dimensional cascade.

    Interior floor(linspace) samples of the scale range; the endpoints
    (the out-of-range coarse slot and the finest wavelet) are dropped.
    At least three scales are used below 96 dims; duplicates that the
    floor produces at high dim counts are kept so 32 * len == n_dims.
    """
    if n_dims < 1:
        raise DataError("descriptor dimension must be positive")
    n_pts = int(np.ceil(max(n_dims, 96) / 32.0)) + 2
    pts = np.floor(np.linspace(32.0, 1.0, n_pts)).astype(np.int64)
    return pts[1:-1]


def serialize_bank(bank):
    """Key-value text block: lambda_max and the STOCK keys, at full precision."""
    lines = [f"{key} = {getattr(bank, key):.17g}" for key in ("lambda_max", *STOCK)]
    return "\n".join(lines) + "\n"


def bank_hash(bank):
    return hashlib.sha256(serialize_bank(bank).encode()).hexdigest()
