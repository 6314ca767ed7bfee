"""Network layers: multiscale operator convolution, ELU, minmax Norm, affine.

Everything is float64 and comes in forward/backward pairs returning exact
analytic gradients; the test suite drives every op through central finite
differences.  A conv layer calls its operator (``wavelets.WaveletOperator``
or ``chebyshev.ChebyshevOperator``) once each way; the forward pass keeps
the operator in its cache, so the backward pass runs the same one, reuses
what the forward pass kept and forms the input gradient only when asked.
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


def conv_forward(x: np.ndarray, weights: list, op):
    """Z = Norm(ELU(sum_s P_s X W_s)) over the layer operator `op` (the
    interface ``wavelets.WaveletOperator`` documents).  The cache holds the
    operator, the block it keeps for its backward pass, S, and the minmax
    statistics (mn, span); X itself is not kept."""
    if len(weights) != op.n_scales:
        raise DataError("one weight matrix per operator required")
    if x.shape[1] != weights[0].shape[0]:
        raise DataError(
            f"input dim {x.shape[1]} does not match weights {weights[0].shape[0]}"
        )
    s, kept = op.forward(x, weights)
    e = elu(s)
    z, mn, span = minmax_forward(e)
    return z, (op, kept, s, mn, span)


def conv_backward(cache, dz: np.ndarray, weights: list, input_grad: bool = True):
    """(dX, [dW_s]) by the cached operator; without `input_grad` dX is None, not formed."""
    op, kept, s, _, span = cache
    de = minmax_backward(dz, span)
    ds = de * elu_grad(s)
    return op.backward(kept, ds, weights, input_grad)


def affine_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    if x.shape[1] != w.shape[0]:
        raise DataError(f"input dim {x.shape[1]} does not match weights {w.shape[0]}")
    return x @ w + b[None, :], x


def affine_backward(cache, dz: np.ndarray, w: np.ndarray):
    x = cache
    return dz @ w.T, x.T @ dz, dz.sum(axis=0)
