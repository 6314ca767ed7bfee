"""Training losses with analytic gradients: softmax cross-entropy (alone,
or fused with the affine classification head) and the hardest-in-batch
triplet margin loss over corresponding descriptor pairs."""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .wavelets import _blocks

# distances below this are treated as zero-length for gradient purposes
_DIST_FLOOR = 1e-12


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy over rows; returns (loss, dlogits)."""
    dlogits = np.array(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    _check_labels(labels, *dlogits.shape)
    loss = -_softmax_xent(dlogits, labels, dlogits.shape[0]).mean()
    return float(loss), dlogits


def _check_labels(labels: np.ndarray, n: int, classes: int):
    if labels.shape != (n,):
        raise DataError("one label per logit row required")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise DataError(f"label out of range for {classes} classes")


def _softmax_xent(z: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    """Turns a block of logit rows into their share of d(mean loss over n
    rows) in place; returns each row's log-softmax at its label."""
    z -= z.max(axis=1, keepdims=True)
    at = np.arange(z.shape[0]), labels
    shifted = z[at]
    np.exp(z, out=z)
    total = z.sum(axis=1)
    z /= total[:, None]
    z[at] -= 1.0
    z /= n
    return shifted - np.log(total)


def _head_logits(desc: np.ndarray, w: np.ndarray, b: np.ndarray, rows: slice):
    logits = desc[rows] @ w
    logits += b
    return logits


def head_cross_entropy(desc: np.ndarray, w: np.ndarray, b: np.ndarray,
                       labels: np.ndarray):
    """Mean softmax cross-entropy of the affine head desc @ w + b, fused
    with the head's backward pass; returns (loss, ddesc, dw, db).

    The logits are formed, turned into their gradient in place and used
    up one block of rows at a time, at most 2**20 entries a block, so the
    (n, classes) matrix is never held whole.  With one block every step
    runs in the order of ``layers.affine_forward``, ``cross_entropy`` and
    ``layers.affine_backward``, and the results are bitwise theirs.
    """
    desc = np.asarray(desc, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, classes = desc.shape[0], w.shape[1]
    _check_labels(labels, n, classes)
    picked = np.empty(n)
    ddesc = np.empty((n, w.shape[0]))
    dw = db = None
    for rows in _blocks(n, classes):
        z = _head_logits(desc, w, b, rows)
        picked[rows] = _softmax_xent(z, labels[rows], n)
        ddesc[rows] = z @ w.T
        if dw is None:
            dw, db = desc[rows].T @ z, z.sum(axis=0)
        else:
            dw += desc[rows].T @ z
            db += z.sum(axis=0)
        del z  # before the next block's logits
    return float(-picked.mean()), ddesc, dw, db


def head_predictions(desc: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, the class whose head logit desc @ w + b is largest, over
    the row blocks of ``head_cross_entropy``."""
    desc = np.asarray(desc, dtype=np.float64)
    pred = np.empty(desc.shape[0], dtype=np.int64)
    for rows in _blocks(desc.shape[0], w.shape[1]):
        pred[rows] = _head_logits(desc, w, b, rows).argmax(axis=1)
    return pred


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a_sq = np.einsum("ij,ij->i", a, a)
    b_sq = np.einsum("ij,ij->i", b, b)
    sq = a_sq[:, None] + b_sq[None, :] - 2.0 * (a @ b.T)
    return np.sqrt(np.maximum(sq, 0.0))


def hardnet_loss(desc_a: np.ndarray, desc_b: np.ndarray, margin: float = 1.0):
    """Hardest-negative triplet margin loss; rows i of A and B correspond.

    For each anchor i the negative is the closest non-matching row in either
    direction: min over j != i of min(D_ij, D_ji). Returns (loss, dA, dB).
    """
    a = np.asarray(desc_a, dtype=np.float64)
    b = np.asarray(desc_b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError("corresponding descriptor blocks must have equal shape")
    m = a.shape[0]
    if m < 2:
        raise DataError("hardnet loss needs at least 2 pairs")
    dist = _pairwise_distances(a, b)
    sym = np.minimum(dist, dist.T)
    np.fill_diagonal(sym, np.inf)
    neg_idx = np.argmin(sym, axis=1)
    hardest = sym.min(axis=1)
    pos = np.diagonal(dist)
    per_anchor = margin + pos - hardest
    active = per_anchor > 0
    loss = float(np.maximum(per_anchor, 0.0).mean())

    # each active anchor's positive pair, then its negative routed through
    # whichever of D_ij / D_ji won the min (ties take the row direction);
    # ufunc.at adds the rows in this order, anchor by anchor
    act = np.flatnonzero(active)
    neg = neg_idx[act]
    row_dir = dist[act, neg] <= dist[neg, act]
    ia = np.stack([act, np.where(row_dir, act, neg)], axis=1).ravel()
    ib = np.stack([act, np.where(row_dir, neg, act)], axis=1).ravel()
    coef = np.tile([1.0 / m, -1.0 / m], act.size)
    # d/d a_i, d/d b_j of dist[i, j]
    g = coef[:, None] * (a[ia] - b[ib]) / np.maximum(dist[ia, ib], _DIST_FLOOR)[:, None]
    da = np.zeros_like(a)
    db = np.zeros_like(b)
    np.add.at(da, ia, g)
    np.subtract.at(db, ib, g)
    return loss, da, db
