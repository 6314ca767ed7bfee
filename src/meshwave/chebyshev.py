"""Chebyshev polynomial operators for the comparison baseline.

Applies T_m of the rescaled random-walk Laplacian through the sparse
three-term recursion (Defferrard et al., NeurIPS 2016), behind the same
operator interface as the wavelet network's layers; no T_m is formed.  Test
fixture for the resolution ordering experiment, not a supported product
surface.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from .errors import DataError, NumericalError

_DENSE_LIMIT = 320


def spectral_max(laplacian, areas) -> float:
    """Largest generalized eigenvalue of (L, diag(areas)).

    The Chebyshev rescaling needs the top of the full spectrum; a truncated
    basis only knows lambda_k, and values above it push the recursion outside
    [-1, 1] where T_m grows exponentially.
    """
    areas = np.asarray(areas, dtype=np.float64)
    inv_sqrt = 1.0 / np.sqrt(areas)
    sym = sparse.csr_matrix(laplacian).multiply(inv_sqrt[:, None]).multiply(
        inv_sqrt[None, :])
    n = areas.shape[0]
    if n <= _DENSE_LIMIT:
        top = float(np.linalg.eigvalsh(sym.toarray())[-1])
    else:
        rng = np.random.default_rng(0x5EED)  # fixed start vector: reruns identical
        try:
            top = float(eigsh(sym.tocsc(), k=1, which="LA", v0=rng.standard_normal(n),
                              return_eigenvectors=False)[0])
        except Exception as exc:
            raise NumericalError(f"spectral max estimation failed: {exc}")
    if not np.isfinite(top) or top <= 0:
        raise NumericalError("spectral max came out non-positive")
    return top


class ChebyshevOperator:
    """Polynomial filters T_m(M) of a sparse M, one per entry of orders.

    The layer interface is the one ``layers.DenseOperator`` documents:
    forward runs T_m X = 2 M T_{m-1} X - T_{m-2} X up to the highest order
    and does one GEMM; backward recomputes the T_m X for the weight
    gradients and gets the input gradient from a Clenshaw pass with M'.
    """

    def __init__(self, base, orders):
        self.base = base
        self.orders = list(orders)

    def __contains__(self, key) -> bool:
        return key in self.orders

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
        return np.hstack([terms[m] for m in self.orders]) @ np.vstack(weights)

    def backward(self, x, ds, weights):
        terms = self._terms(x)
        dws = [terms[m].T @ ds for m in self.orders]
        # dX = sum_m T_m(M') C_m with C_m = sum of dS W_j' over j of order m
        coeffs = [np.zeros_like(x) for _ in terms]
        for m, w in zip(self.orders, weights):
            coeffs[m] += ds @ w.T
        after, later = np.zeros_like(x), np.zeros_like(x)  # b_{m+1}, b_{m+2}
        for m in range(len(coeffs) - 1, 0, -1):
            after, later = coeffs[m] + 2.0 * (self.base.T @ after) - later, after
        dx = coeffs[0] + self.base.T @ after - later
        return dx, dws


def chebyshev_operators(laplacian, areas, lambda_max: float, order: int):
    """T_m(rescaled A^-1 L) for m = 0..order-1, as a ``ChebyshevOperator``.

    The operator is rescaled to 2*(A^-1 L)/lambda_max - I so its spectrum
    lies in [-1, 1] where the recursion is stable; it stays sparse.
    """
    if order < 1:
        raise DataError("polynomial order must be at least 1")
    if lambda_max <= 0:
        raise DataError("lambda_max must be positive")
    areas = np.asarray(areas, dtype=np.float64)
    n = areas.shape[0]
    walk = sparse.diags(1.0 / areas) @ sparse.csr_matrix(laplacian)
    base = ((2.0 / lambda_max) * walk - sparse.identity(n)).tocsr()
    return ChebyshevOperator(base, range(order))
