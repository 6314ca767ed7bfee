"""Network layers: multiscale operator convolution, ELU, minmax Norm, affine.

Everything is float64 and comes in forward/backward pairs returning exact
analytic gradients; the test suite drives every op through central finite
differences.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def elu(s: np.ndarray) -> np.ndarray:
    return np.where(s > 0, s, np.expm1(s))


def elu_grad(s: np.ndarray) -> np.ndarray:
    return np.where(s > 0, 1.0, np.exp(s))


def minmax_forward(e: np.ndarray):
    """Per-column minmax to [0,1]; constant columns map to 0.5.

    Returns (z, mn, span); span carries 0 for constant columns so the
    backward pass can zero their gradient, and (mn, span) are the
    statistics the backward pass treats as constants.
    """
    mn = e.min(axis=0)
    span = e.max(axis=0) - mn
    return minmax_apply(e, mn, span), mn, span


def minmax_apply(e: np.ndarray, mn: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Minmax with externally fixed statistics (the frozen map whose exact
    derivative the backward pass computes)."""
    z = np.empty_like(e)
    const = span == 0.0
    np.divide(e - mn[None, :], span[None, :], out=z, where=~const[None, :])
    z[:, const] = 0.5
    return z


def minmax_backward(dz: np.ndarray, span: np.ndarray) -> np.ndarray:
    # min/max references are constants of the backward pass; constant
    # columns carry no gradient
    de = np.zeros_like(dz)
    live = span != 0.0
    de[:, live] = dz[:, live] / span[None, live]
    return de


class DenseOperator:
    """Adapter for explicit per-scale matrices: a list, or a dict keyed by
    scale index, of (n, n) arrays P_s.

    A layer's operator exposes ``forward(x, weights)`` returning
    sum_s P_s X W_s and ``backward(x, ds, weights)`` returning the input
    gradient and one weight gradient per scale; an operator set also
    answers ``key in ops`` and ``select(keys)``, the layer operator over
    those scale keys (a ``KeyError`` names a missing one).
    ``wavelets.WaveletOperator`` and ``chebyshev.ChebyshevOperator``
    implement the same interface without forming the matrices.
    """

    def __init__(self, mats):
        if isinstance(mats, dict):
            self.keys, self.mats = list(mats), list(mats.values())
        else:
            self.keys, self.mats = list(range(len(mats))), list(mats)

    @property
    def n_scales(self) -> int:
        return len(self.mats)

    def select(self, keys) -> "DenseOperator":
        index = dict(zip(self.keys, self.mats))
        return DenseOperator([index[k] for k in keys])

    def forward(self, x, weights):
        s = self.mats[0] @ (x @ weights[0])
        for w, p in zip(weights[1:], self.mats[1:]):
            s += p @ (x @ w)
        return s

    def backward(self, x, ds, weights):
        dx = np.zeros_like(x)
        dws = []
        for w, p in zip(weights, self.mats):
            u = p.T @ ds
            dx += u @ w.T
            dws.append(x.T @ u)
        return dx, dws


def as_operator(ops):
    """ops itself when it implements the operator interface, else the
    dense adapter over its matrices."""
    return ops if hasattr(ops, "select") else DenseOperator(ops)


def conv_forward(x: np.ndarray, weights: list, ops):
    """Z = Norm(ELU(sum_s P_s X W_s)) over the layer's operator."""
    op = as_operator(ops)
    if len(weights) != op.n_scales:
        raise DataError("one weight matrix per operator required")
    if x.shape[1] != weights[0].shape[0]:
        raise DataError(
            f"input dim {x.shape[1]} does not match weights {weights[0].shape[0]}"
        )
    s = op.forward(x, weights)
    e = elu(s)
    z, mn, span = minmax_forward(e)
    return z, (x, s, mn, span)


def conv_backward(cache, dz: np.ndarray, weights: list, ops):
    x, s, mn, span = cache
    de = minmax_backward(dz, span)
    ds = de * elu_grad(s)
    return as_operator(ops).backward(x, ds, weights)


def affine_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    if x.shape[1] != w.shape[0]:
        raise DataError(f"input dim {x.shape[1]} does not match weights {w.shape[0]}")
    return x @ w + b[None, :], x


def affine_backward(cache, dz: np.ndarray, w: np.ndarray):
    x = cache
    return dz @ w.T, x.T @ dz, dz.sum(axis=0)
