"""Chebyshev polynomial operators for the comparison baseline.

Applies T_m of the rescaled random-walk Laplacian through the sparse
three-term recursion (Defferrard et al., NeurIPS 2016), behind the same
operator interface as the wavelet network's layers; no T_m is formed.  They
serve ``[model] kind = chebyshev`` in `train` and `infer`, the baseline of
the resolution ordering experiment.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from .errors import DataError, NumericalError
from .spectral import standard_form


def spectral_max(laplacian, areas) -> float:
    """Largest generalized eigenvalue of (L, diag(areas)), from ARPACK.

    The Chebyshev rescaling needs the top of the full spectrum; a truncated
    basis only knows lambda_k, and values above it push the recursion outside
    [-1, 1] where T_m grows exponentially.
    """
    areas = np.asarray(areas, dtype=np.float64)
    sym = standard_form(laplacian, areas)[0]
    rng = np.random.default_rng(0x5EED)  # fixed start vector: reruns identical
    try:
        top = float(eigsh(sym.tocsc(), k=1, which="LA", v0=rng.standard_normal(len(areas)),
                          return_eigenvectors=False)[0])
    except Exception as exc:
        raise NumericalError(f"spectral max estimation failed: {exc}")
    if not np.isfinite(top) or top <= 0:
        raise NumericalError("spectral max came out non-positive")
    return top


class ChebyshevOperator:
    """Polynomial filters T_m(M) of a sparse M, one per entry of orders.

    The layer interface is the one ``wavelets.WaveletOperator`` documents:
    forward runs T_m X = 2 M T_{m-1} X - T_{m-2} X up to the highest order,
    does one GEMM and keeps the terms T_m X for the weight gradients;
    backward gets the input gradient from a Clenshaw pass with M'.
    """

    def __init__(self, base, orders):
        self.base = base
        self.orders = list(orders)

    @property
    def n_scales(self) -> int:
        return len(self.orders)

    def select(self, keys) -> "ChebyshevOperator":
        missing = [k for k in keys if k not in self.orders]
        if missing:
            raise KeyError(missing[0])
        return ChebyshevOperator(self.base, keys)

    def _terms(self, x):
        """[T_0 X, ..., T_top X] for the highest order in use."""
        terms = [x]
        if max(self.orders) > 0:
            terms.append(self.base @ x)
        for _ in range(2, max(self.orders) + 1):
            terms.append(2.0 * (self.base @ terms[-1]) - terms[-2])
        return terms

    def forward(self, x, weights):
        terms = self._terms(x)
        return np.hstack([terms[m] for m in self.orders]) @ np.vstack(weights), terms

    def backward(self, terms, ds, weights, input_grad=True):
        dws = [terms[m].T @ ds for m in self.orders]
        if not input_grad:
            return None, dws
        x = terms[0]
        # dX = sum_m T_m(M') C_m with C_m = sum of dS W_j' over j of order m
        coeffs = [np.zeros_like(x) for _ in terms]
        for m, w in zip(self.orders, weights):
            coeffs[m] += ds @ w.T
        after, later = np.zeros_like(x), np.zeros_like(x)  # b_{m+1}, b_{m+2}
        for m in range(len(coeffs) - 1, 0, -1):
            after, later = coeffs[m] + 2.0 * (self.base.T @ after) - later, after
        dx = coeffs[0] + self.base.T @ after - later
        return dx, dws


def chebyshev_operators(laplacian, areas, keys) -> ChebyshevOperator:
    """T_m(rescaled A^-1 L) for the orders m in keys, as a ``ChebyshevOperator``.

    It is rescaled by ``spectral_max`` to 2*(A^-1 L)/lambda_max - I so its
    spectrum lies in [-1, 1] where the recursion is stable; it stays sparse.
    """
    keys = [int(m) for m in keys]
    if min(keys, default=0) < 0:
        raise DataError(f"polynomial order must be non-negative, got {min(keys)}")
    areas = np.asarray(areas, dtype=np.float64)
    walk = sparse.diags(1.0 / areas) @ sparse.csr_matrix(laplacian)
    base = ((2.0 / spectral_max(laplacian, areas)) * walk - sparse.identity(len(areas))).tocsr()
    return ChebyshevOperator(base, keys)
