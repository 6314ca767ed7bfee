"""Forward values and analytic-versus-numeric gradients for every layer
and loss.  The minmax statistics are constants of the backward map, so
all finite differences run through the frozen-statistics apply."""

import numpy as np
import pytest

from meshwave.errors import DataError
from meshwave.layers import (
    affine_backward,
    affine_forward,
    conv_backward,
    conv_forward,
    elu,
    elu_grad,
    minmax_apply,
    minmax_backward,
    minmax_forward,
)
from meshwave.losses import (
    _pairwise_distances,
    cross_entropy,
    hardnet_loss,
    head_cross_entropy,
    head_predictions,
)

import _shared


def test_normalize_columns_values():
    out = _shared.normalize_columns(np.array([[2.0], [-1.0]]))
    assert np.array_equal(out, [[2.0 / 3.0], [-1.0 / 3.0]])
    psi = np.array([[0.5, 3.0], [0.5, -1.0]])
    normed = _shared.normalize_columns(psi)
    assert np.allclose(np.abs(normed).sum(axis=0), 1.0, rtol=1e-15)


def test_normalize_columns_rejects_zero():
    with pytest.raises(DataError, match="column 1"):
        _shared.normalize_columns(np.array([[1.0, 0.0], [2.0, 0.0]]))


def test_elu_values():
    assert elu(np.array([0.0]))[0] == 0.0
    assert elu(np.array([2.5]))[0] == 2.5
    assert elu(np.array([-1.0]))[0] == pytest.approx(np.exp(-1.0) - 1.0, rel=1e-15)
    assert elu(np.array([-40.0]))[0] == pytest.approx(-1.0, rel=1e-15)
    # slope is continuous through zero
    assert elu_grad(np.array([1e-12]))[0] == 1.0
    assert elu_grad(np.array([-1e-12]))[0] == pytest.approx(1.0, abs=1e-10)


def test_elu_gradient(rng):
    for _ in range(20):
        s = rng.standard_normal(17) * 2.0
        s = s[np.abs(s) > 1e-4]  # keep clear of the hinge for the FD probe
        fd = np.array(
            [_shared.fd_grad(lambda v: float(elu(v).sum()), s[i : i + 1])[0] for i in range(s.size)]
        )
        assert _shared.grads_close(elu_grad(s), fd)


def test_minmax_forward_values():
    e = np.array([[2.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
    z, mn, span = minmax_forward(e)
    assert np.array_equal(z[:, 0], [1.0, 0.0, 0.5])
    assert np.array_equal(z[:, 1], [0.5, 0.5, 0.5])
    assert mn[0] == 0.0 and span[0] == 2.0 and span[1] == 0.0
    assert z.min() >= 0.0 and z.max() <= 1.0


def test_minmax_zero_input_maps_to_half():
    z, _, _ = minmax_forward(np.zeros((4, 3)))
    assert (z == 0.5).all()


def test_minmax_gradient_frozen_statistics(rng):
    for _ in range(20):
        e = rng.standard_normal((6, 4))
        _, mn, span = minmax_forward(e)
        dz = rng.standard_normal((6, 4))

        def loss(v):
            return float((minmax_apply(v, mn, span) * dz).sum())

        fd = _shared.fd_grad(loss, e.copy())
        assert _shared.grads_close(minmax_backward(dz, span), fd)


def test_minmax_constant_column_gets_zero_gradient():
    e = np.ones((5, 2))
    e[:, 1] = np.arange(5.0)
    _, _, span = minmax_forward(e)
    de = minmax_backward(np.ones((5, 2)), span)
    assert (de[:, 0] == 0.0).all()
    assert (de[:, 1] != 0.0).all()


def _random_conv(rng, n=11, c=3, o=2, n_ops=3):
    x = rng.standard_normal((n, c))
    weights = [rng.standard_normal((c, o)) for _ in range(n_ops)]
    ops = [rng.standard_normal((n, n)) / np.sqrt(n) for _ in range(n_ops)]
    return x, weights, ops


def test_conv_forward_matches_loop_oracle(rng):
    x, weights, ops = _random_conv(rng)
    z, _ = conv_forward(x, weights, _shared.DenseOperator(ops))
    n, o = x.shape[0], weights[0].shape[1]
    s = np.zeros((n, o))
    for w, p in zip(weights, ops):
        for r in range(n):
            for q in range(o):
                acc = 0.0
                for v in range(n):
                    for c in range(x.shape[1]):
                        acc += p[r, v] * x[v, c] * w[c, q]
                s[r, q] += acc
    e = np.where(s > 0, s, np.expm1(s))
    lo, hi = e.min(axis=0), e.max(axis=0)
    expect = (e - lo[None, :]) / (hi - lo)[None, :]
    assert np.abs(z - expect).max() <= 1e-10


def test_conv_zero_weights_give_constant_half(rng):
    x, weights, ops = _random_conv(rng)
    zeroed = [np.zeros_like(w) for w in weights]
    z, _ = conv_forward(x, zeroed, _shared.DenseOperator(ops))
    assert (z == 0.5).all()
    z2, _ = conv_forward(np.zeros_like(x), weights, _shared.DenseOperator(ops))
    assert (z2 == 0.5).all()


def test_conv_gradients(rng):
    for _ in range(20):
        x, weights, ops = _random_conv(rng)
        z, cache = conv_forward(x, weights, _shared.DenseOperator(ops))
        dz = rng.standard_normal(z.shape)
        dx, dws = conv_backward(cache, dz, weights)
        mn, span = cache[-2:]

        def frozen(xv, wv):
            s = np.zeros((xv.shape[0], wv[0].shape[1]))
            for w, p in zip(wv, ops):
                s += p @ (xv @ w)
            return float((minmax_apply(elu(s), mn, span) * dz).sum())

        fd_x = _shared.fd_grad(lambda v: frozen(v, weights), x.copy())
        assert _shared.grads_close(dx, fd_x)
        for i in range(len(weights)):
            def loss_w(wv, i=i):
                trial = [wv if j == i else weights[j] for j in range(len(weights))]
                return frozen(x, trial)

            fd_w = _shared.fd_grad(loss_w, weights[i].copy())
            assert _shared.grads_close(dws[i], fd_w)


def test_conv_backward_linearity(rng):
    x, weights, ops = _random_conv(rng)
    _, cache = conv_forward(x, weights, _shared.DenseOperator(ops))
    dz = rng.standard_normal((x.shape[0], weights[0].shape[1]))
    dx1, dws1 = conv_backward(cache, dz, weights)
    dx2, dws2 = conv_backward(cache, 2.0 * dz, weights)
    assert np.allclose(dx2, 2.0 * dx1, rtol=1e-12)
    for a, b in zip(dws1, dws2):
        assert np.allclose(b, 2.0 * a, rtol=1e-12)
    dx0, dws0 = conv_backward(cache, np.zeros_like(dz), weights)
    assert np.abs(dx0).max() == 0.0
    assert all(np.abs(d).max() == 0.0 for d in dws0)


def test_conv_shape_validation(rng):
    x, weights, ops = _random_conv(rng)
    with pytest.raises(DataError, match="one weight matrix per operator"):
        conv_forward(x, weights[:-1], _shared.DenseOperator(ops))
    with pytest.raises(DataError, match="input dim"):
        conv_forward(x[:, :2], weights, _shared.DenseOperator(ops))


def test_conv_permutation_equivariance(rng):
    x, weights, ops = _random_conv(rng)
    n = x.shape[0]
    perm = rng.permutation(n)
    p_ops = [op[np.ix_(perm, perm)] for op in ops]
    base, _ = conv_forward(x, weights, _shared.DenseOperator(ops))
    moved, _ = conv_forward(x[perm], weights, _shared.DenseOperator(p_ops))
    # reductions (column min/max) see a different order, so allow rounding
    assert np.allclose(moved, base[perm], rtol=1e-12, atol=1e-14)


def test_affine_forward_and_gradients(rng):
    for _ in range(20):
        x = rng.standard_normal((7, 4))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        z, cache = affine_forward(x, w, b)
        assert np.allclose(z, x @ w + b, rtol=1e-15)
        dz = rng.standard_normal(z.shape)
        dx, dw, db = affine_backward(cache, dz, w)
        fd_x = _shared.fd_grad(lambda v: float(((v @ w + b) * dz).sum()), x.copy())
        assert _shared.grads_close(dx, fd_x)
        fd_w = _shared.fd_grad(lambda v: float(((x @ v + b) * dz).sum()), w.copy())
        assert _shared.grads_close(dw, fd_w)
        fd_b = _shared.fd_grad(lambda v: float(((x @ w + v) * dz).sum()), b.copy())
        assert _shared.grads_close(db, fd_b)


def test_affine_shape_validation(rng):
    with pytest.raises(DataError, match="input dim"):
        affine_forward(np.zeros((3, 5)), np.zeros((4, 2)), np.zeros(2))


def test_cross_entropy_uniform_logits():
    for d in (2, 7, 31):
        logits = np.zeros((5, d))
        loss, _ = cross_entropy(logits, np.zeros(5, dtype=np.int64))
        assert loss == pytest.approx(np.log(d), rel=1e-15)


def test_cross_entropy_confident_prediction():
    logits = np.array([[40.0, 0.0], [0.0, 40.0]])
    loss, _ = cross_entropy(logits, np.array([0, 1]))
    assert loss <= 1e-15


def test_cross_entropy_gradient(rng):
    for _ in range(20):
        logits = rng.standard_normal((6, 5)) * 3.0
        labels = rng.integers(0, 5, size=6)
        _, dlogits = cross_entropy(logits, labels)
        fd = _shared.fd_grad(lambda v: cross_entropy(v, labels)[0], logits.copy())
        assert _shared.grads_close(dlogits, fd, tol=1e-5)
        # rows of the softmax gradient sum to zero
        assert np.abs(dlogits.sum(axis=1)).max() <= 1e-15


def test_cross_entropy_validation():
    with pytest.raises(DataError, match="label out of range"):
        cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(DataError, match="one label per"):
        cross_entropy(np.zeros((2, 3)), np.array([0]))


def _unfused_head(desc, w, b, labels):
    """The head and its loss as separate layers: the fused loss's oracle."""
    logits, cache = affine_forward(desc, w, b)
    loss, dlogits = cross_entropy(logits, labels)
    ddesc, dw, db = affine_backward(cache, dlogits, w)
    return loss, ddesc, dw, db


def _out_of_place_cross_entropy(logits, labels):
    """Softmax cross-entropy with a new array per step, the order the
    in-place block kernel must keep."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1)
    rows = np.arange(len(labels))
    loss = -(shifted - np.log(total)[:, None])[rows, labels].mean()
    dlogits = exp / total[:, None]
    dlogits[rows, labels] -= 1.0
    dlogits /= len(labels)
    return float(loss), dlogits


def _head_case(rng, n, d, classes):
    desc = rng.standard_normal((n, d))
    w = rng.standard_normal((d, classes)) / np.sqrt(d)
    b = 0.1 * rng.standard_normal(classes)
    return desc, w, b, rng.integers(0, classes, size=n)


# up to 2**20 logits the fused loss runs as one block; 1024 x 1024 is the edge
@pytest.mark.parametrize("n, d, classes", [(7, 3, 5), (420, 256, 420), (1024, 8, 1024)])
def test_head_cross_entropy_one_block_is_bitwise_the_unfused_head(rng, n, d, classes):
    desc, w, b, labels = _head_case(rng, n, d, classes)
    fused = head_cross_entropy(desc, w, b, labels)
    expect = _unfused_head(desc, w, b, labels)
    assert fused[0] == expect[0]
    for got, want in zip(fused[1:], expect[1:]):
        assert got.shape == want.shape and np.array_equal(got, want)
    logits, _ = affine_forward(desc, w, b)
    loss, dlogits = cross_entropy(logits, labels)
    ref_loss, ref_dlogits = _out_of_place_cross_entropy(logits, labels)
    assert loss == ref_loss and np.array_equal(dlogits, ref_dlogits)


def test_head_cross_entropy_across_row_blocks(rng):
    desc, w, b, labels = _head_case(rng, 1100, 16, 1100)  # 1.21M logits, two blocks
    fused = head_cross_entropy(desc, w, b, labels)
    expect = _unfused_head(desc, w, b, labels)
    assert fused[0] == pytest.approx(expect[0], rel=1e-12)
    for got, want in zip(fused[1:], expect[1:]):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n, classes", [(30, 7), (1100, 1100)])
def test_head_predictions_are_the_logit_argmax(rng, n, classes):
    desc, w, b, _ = _head_case(rng, n, 5, classes)
    logits, _ = affine_forward(desc, w, b)
    assert np.array_equal(head_predictions(desc, w, b), logits.argmax(axis=1))


def test_head_cross_entropy_validation():
    desc, w, b = np.zeros((2, 4)), np.zeros((4, 3)), np.zeros(3)
    with pytest.raises(DataError, match="label out of range"):
        head_cross_entropy(desc, w, b, np.array([0, 3]))
    with pytest.raises(DataError, match="label out of range"):
        head_cross_entropy(desc, w, b, np.array([-1, 0]))
    with pytest.raises(DataError, match="one label per"):
        head_cross_entropy(desc, w, b, np.array([0]))


def test_hardnet_hand_cases():
    # identical pairs separated farther than the margin: no loss
    a = np.array([[0.0, 0.0], [3.0, 0.0]])
    loss, da, db = hardnet_loss(a, a.copy())
    assert loss == 0.0
    assert np.abs(da).max() == 0.0 and np.abs(db).max() == 0.0
    # identical pairs at distance 0.5: both anchors violate by 0.5
    close = np.array([[0.0, 0.0], [0.5, 0.0]])
    loss2, _, _ = hardnet_loss(close, close.copy())
    assert loss2 == pytest.approx(0.5, rel=1e-15)


def test_hardnet_perfect_descriptors_pull_pos_to_zero(rng):
    a = rng.standard_normal((6, 4))
    b = a + 1e-3 * rng.standard_normal((6, 4))
    loss, da, _ = hardnet_loss(a, b)
    assert loss > 0.0  # margin dominates when negatives sit closer than 1
    assert np.isfinite(da).all()


def test_hardnet_needs_two_pairs():
    with pytest.raises(DataError, match="at least 2"):
        hardnet_loss(np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(DataError, match="equal shape"):
        hardnet_loss(np.zeros((3, 2)), np.zeros((3, 3)))


def _hardnet_grads_by_anchor(a, b, margin=1.0):
    """The gradients of ``hardnet_loss`` summed one active anchor at a time:
    its positive pair, then its negative in the direction that won the min."""
    dist = _pairwise_distances(a, b)
    sym = np.minimum(dist, dist.T)
    np.fill_diagonal(sym, np.inf)
    neg_idx = np.argmin(sym, axis=1)
    m = len(a)
    da, db = np.zeros_like(a), np.zeros_like(b)
    for i in range(m):
        if margin + dist[i, i] - sym[i, neg_idx[i]] <= 0:
            continue
        j = neg_idx[i]
        for r, c, coef in ((i, i, 1.0 / m),
                           (i, j, -1.0 / m) if dist[i, j] <= dist[j, i] else (j, i, -1.0 / m)):
            g = coef * (a[r] - b[c]) / max(dist[r, c], 1e-12)
            da[r] += g
            db[c] -= g
    return da, db


@pytest.mark.parametrize("m, d, scale", [(420, 128, 0.05), (512, 128, 0.04), (6, 4, 0.5),
                                         (40, 3, 0.2)])
def test_hardnet_gradients_are_the_loop_over_anchors_bit_for_bit(m, d, scale):
    rng = np.random.default_rng(m + d)
    a = scale * rng.standard_normal((m, d))
    b = a + 0.5 * scale * rng.standard_normal((m, d))
    _, da, db = hardnet_loss(a, b)
    ref_a, ref_b = _hardnet_grads_by_anchor(a, b)
    assert np.count_nonzero(np.abs(ref_a).sum(1)) > 2  # several active anchors
    assert np.array_equal(da, ref_a) and np.array_equal(db, ref_b)


def _well_separated_case(rng, m=5, d=4):
    # resample until no anchor sits near the hinge or a negative tie,
    # where the loss is not differentiable and FD would disagree
    while True:
        a = rng.standard_normal((m, d))
        b = rng.standard_normal((m, d))
        loss, _, _ = hardnet_loss(a, b)
        probe = []
        dist = np.sqrt(
            np.maximum(
                (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2 * a @ b.T, 0
            )
        )
        sym = np.minimum(dist, dist.T)
        np.fill_diagonal(sym, np.inf)
        order = np.sort(sym, axis=1)
        hinge = 1.0 + np.diag(dist) - order[:, 0]
        probe.append(np.abs(hinge).min() > 1e-2)  # clear of the hinge
        probe.append((order[:, 1] - order[:, 0]).min() > 1e-2)  # unique negative
        tie_gap = np.abs(dist - dist.T)[~np.eye(m, dtype=bool)].min()
        probe.append(tie_gap > 1e-2)  # min(D_ij, D_ji) has a clear winner
        if all(probe) and loss > 0:
            return a, b


def test_hardnet_gradient(rng):
    for _ in range(20):
        a, b = _well_separated_case(rng)
        _, da, db = hardnet_loss(a, b)
        fd_a = _shared.fd_grad(lambda v: hardnet_loss(v, b)[0], a.copy())
        fd_b = _shared.fd_grad(lambda v: hardnet_loss(a, v)[0], b.copy())
        assert _shared.grads_close(da, fd_a)
        assert _shared.grads_close(db, fd_b)
