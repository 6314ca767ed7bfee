import json

import numpy as np
import pytest

from meshwave import layers
from meshwave.chebyshev import chebyshev_operators, spectral_max
from meshwave.errors import DataError, NumericalError
from meshwave.filters import build_filter_bank
from meshwave.mesh import cotangent_laplacian, lumped_areas
from meshwave.model import (
    DEFAULT_ARCHITECTURE,
    Model,
    backward,
    build_model,
    build_wavelet_operators,
    forward,
    format_architecture,
    head_forward,
    load_checkpoint,
    parse_architecture,
    required_operator_keys,
    save_checkpoint,
)
from meshwave.synthetic import bent_bar
from meshwave.training import (
    ShapeData,
    TrainConfig,
    adam_init,
    adam_step,
    classification_accuracy,
    train,
)

import _shared


def test_architecture_round_trip():
    for text in (DEFAULT_ARCHITECTURE, "MGCONV8(3)+FC16", "FC4", "MGCONV32(16)"):
        specs = parse_architecture(text)
        assert format_architecture(specs) == text


def test_architecture_rejects_malformed():
    for bad in (
        "MGCONV96",
        "FC",
        "MGCONV(16)",
        "96(16)",
        "MGCONV96(16)++FC1",
        "",
        "MGCONV0(3)",
        "FC0",
        "MGCONV8(0)",
        "CONV8(3)",
    ):
        with pytest.raises(DataError):
            parse_architecture(bad)


def test_build_model_shapes():
    net = build_model("MGCONV8(3)+MGCONV4(3)+FC6", input_dim=5, head_dim=11)
    assert net.params["conv0.w0"].shape == (5, 8)
    assert net.params["conv0.w2"].shape == (5, 8)
    assert net.params["conv1.w0"].shape == (8, 4)
    assert net.params["fc2.w"].shape == (4, 6)
    assert net.params["fc2.b"].shape == (6,)
    assert net.params["head.w"].shape == (6, 11)
    assert net.output_dim == 6
    assert net.head_dim == 11
    # wavelet scale sets follow the dimension budget of each conv layer
    assert net.scale_sets[0] == [24, 16, 8]
    assert required_operator_keys(net) == [8, 16, 24]


@pytest.mark.parametrize("n_scales", [1, 2])
def test_wavelet_conv_needs_three_scales(n_scales):
    arch = f"MGCONV8({n_scales})+FC4"
    with pytest.raises(DataError, match="at least 3 scales"):
        build_model(arch, input_dim=3)
    # a Chebyshev layer takes any polynomial order count
    assert build_model(arch, input_dim=3, kind="chebyshev").scale_sets == [
        list(range(n_scales))
    ]


def test_build_model_chebyshev_scale_sets():
    net = build_model("MGCONV8(5)+FC4", input_dim=3, kind="chebyshev")
    assert net.scale_sets == [[0, 1, 2, 3, 4]]
    with pytest.raises(DataError, match="unknown model kind"):
        build_model(kind="mystery")


def test_build_model_seed_determinism():
    a = build_model("MGCONV8(3)+FC6", input_dim=4, seed=3)
    b = build_model("MGCONV8(3)+FC6", input_dim=4, seed=3)
    c = build_model("MGCONV8(3)+FC6", input_dim=4, seed=4)
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


def _toy_ops(rng, n, keys):
    ops = {}
    for s in keys:
        raw = rng.standard_normal((n, n))
        ops[s] = _shared.normalize_columns(raw).T
    return ops


def _toy_model_and_shape(rng, n=20, head=None):
    net = build_model("MGCONV6(3)+FC5", input_dim=4, head_dim=head, seed=1)
    ops = _toy_ops(rng, n, required_operator_keys(net))
    x = rng.standard_normal((n, 4))
    return net, x, ops


def test_forward_matches_manual_composition(rng):
    net, x, ops = _toy_model_and_shape(rng)
    out, _ = forward(net, x, ops)
    ws = [net.params[f"conv0.w{j}"] for j in range(3)]
    layer_ops = [ops[s] for s in net.scale_sets[0]]
    h, _ = layers.conv_forward(x, ws, layer_ops)
    expect, _ = layers.affine_forward(h, net.params["fc1.w"], net.params["fc1.b"])
    assert np.array_equal(out, expect)


def test_forward_validates_input(rng):
    net, x, ops = _toy_model_and_shape(rng)
    with pytest.raises(DataError, match="expected input"):
        forward(net, x[:, :3], ops)
    with pytest.raises(DataError, match="missing operator"):
        forward(net, x, {24: ops[24]})


def test_zero_weights_collapse_rows(rng):
    net, x, ops = _toy_model_and_shape(rng)
    for k, v in net.params.items():
        net.params[k] = np.zeros_like(v)
    out, _ = forward(net, x, ops)
    # conv emits 0.5 everywhere, the affine head adds only its zero bias
    assert np.abs(out - out[0][None, :]).max() == 0.0


def test_backward_matches_frozen_finite_differences(rng):
    # freeze every layer's minmax statistics at the base point, then the
    # whole network is differentiable and FD must agree with backward
    net, x, ops = _toy_model_and_shape(rng, n=12)
    out, caches = forward(net, x, ops)
    dout = rng.standard_normal(out.shape)
    _, grads = backward(net, caches, dout, ops)
    _, _, mn, span = caches[0]
    layer_ops = [ops[s] for s in net.scale_sets[0]]

    def frozen_loss(params):
        ws = [params[f"conv0.w{j}"] for j in range(3)]
        s = sum(p @ (x @ w) for w, p in zip(ws, layer_ops))
        h = layers.minmax_apply(layers.elu(s), mn, span)
        z = h @ params["fc1.w"] + params["fc1.b"][None, :]
        return float((z * dout).sum())

    for name in ("conv0.w1", "fc1.w", "fc1.b"):
        def f(v, name=name):
            trial = dict(net.params)
            trial[name] = v
            return frozen_loss(trial)

        fd = _shared.fd_grad(f, net.params[name].copy())
        assert _shared.grads_close(grads[name], fd), name


def test_model_permutation_equivariance(rng):
    net, x, ops = _toy_model_and_shape(rng)
    perm = rng.permutation(x.shape[0])
    p_ops = {s: op[np.ix_(perm, perm)] for s, op in ops.items()}
    base, _ = forward(net, x, ops)
    moved, _ = forward(net, x[perm], p_ops)
    assert np.allclose(moved, base[perm], rtol=1e-12, atol=1e-14)


def test_build_wavelet_operators():
    basis = _shared.bar_basis(0.3, 15)
    bank = _shared.bank_for(basis.lambda_max)
    ops = build_wavelet_operators(basis, bank, [8, 16])
    assert 8 in ops and 16 in ops and 24 not in ops
    dense = _shared.dense_wavelet_operators(basis, bank, [8, 16])
    n = basis.n_vertices
    eye = np.eye(n)
    for keys in ([8], [16], [16, 8, 16]):
        # P_s applied to the identity reproduces the oracle matrix
        applied = ops.select(keys).forward(eye, [eye] * len(keys))
        expect = sum(dense[s] for s in keys)
        assert np.abs(applied - expect).max() <= 1e-12 * np.abs(expect).max()
        if len(keys) == 1:
            # rows of the transposed matrix are L1-normalized atom columns
            assert np.allclose(np.abs(applied).sum(axis=1), 1.0, rtol=1e-12)


def test_chebyshev_operators_match_eigen_oracle():
    mesh = _shared.bar(0.3, nu=8, nv=4)
    lap = cotangent_laplacian(mesh)
    areas = lumped_areas(mesh)
    lmax = spectral_max(lap, areas)
    order = 5
    ops = chebyshev_operators(lap, areas, lmax, order)
    assert all(m in ops for m in range(order)) and order not in ops
    dense = _shared.dense_chebyshev(lap, areas, lmax, order)
    n = mesh.n_vertices
    eye = np.eye(n)
    assert np.array_equal(ops.select([0]).forward(eye, [eye]), eye)
    # generalized eigenvectors diagonalize the rescaled operator, so
    # T_m(base) = V diag(cos(m arccos(mu))) V^-1 with mu in [-1, 1]
    import scipy.linalg

    vals, vecs = scipy.linalg.eigh(lap.toarray(), np.diag(areas))
    mu = 2.0 * vals / lmax - 1.0
    assert mu.min() >= -1.0 - 1e-9 and mu.max() <= 1.0 + 1e-9
    inv = np.linalg.inv(vecs)
    for m in range(order):
        tm = np.cos(m * np.arccos(np.clip(mu, -1.0, 1.0)))
        expect = vecs @ (tm[:, None] * inv)
        assert np.abs(ops.select([m]).forward(eye, [eye]) - expect).max() <= 1e-8
        assert np.abs(dense[m] - expect).max() <= 1e-8


def test_chebyshev_validation():
    mesh = _shared.bar(0.3, nu=6, nv=4)
    lap = cotangent_laplacian(mesh)
    areas = lumped_areas(mesh)
    with pytest.raises(DataError):
        chebyshev_operators(lap, areas, 10.0, 0)
    with pytest.raises(DataError):
        chebyshev_operators(lap, areas, 0.0, 3)


def test_spectral_max_dense_and_iterative():
    import scipy.linalg

    small = _shared.bar(0.3, nu=8, nv=4)  # dense path
    big = bent_bar(0.3, nu=32, nv=14)  # 448 vertices, iterative path
    for mesh in (small, big):
        lap = cotangent_laplacian(mesh)
        areas = lumped_areas(mesh)
        top = spectral_max(lap, areas)
        dense = scipy.linalg.eigh(lap.toarray(), np.diag(areas), eigvals_only=True)[-1]
        assert top == pytest.approx(dense, rel=1e-8)
        # a rerun is bitwise identical, so the Chebyshev baseline is deterministic
        assert all(spectral_max(lap, areas) == top for _ in range(5))
    basis = _shared.bar_basis(0.3, 20, nu=8, nv=4)
    lap = cotangent_laplacian(small)
    assert spectral_max(lap, lumped_areas(small)) >= basis.lambda_max


def test_adam_single_step_hand_computed():
    params = {"w": np.array([2.0])}
    grads = {"w": np.array([0.5])}
    state = adam_init(params)
    lr, wd = 0.1, 0.01
    adam_step(params, grads, state, lr, wd)
    # decoupled decay first, then the bias-corrected moment update
    m_hat = 0.5  # (0.1 * 0.5) / (1 - 0.9)
    v_hat = 0.25  # (0.001 * 0.25) / (1 - 0.999)
    expect = 2.0 - lr * wd * 2.0 - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert params["w"][0] == pytest.approx(expect, rel=1e-12)
    assert state["step"] == 1


def test_adam_skips_missing_grads():
    params = {"a": np.ones(2), "b": np.ones(2)}
    state = adam_init(params)
    adam_step(params, {"a": np.ones(2)}, state, 0.1, 0.0)
    assert np.array_equal(params["b"], np.ones(2))
    assert not np.array_equal(params["a"], np.ones(2))


def _labeled_shape(rng, net, n, name=""):
    ops = _toy_ops(rng, n, required_operator_keys(net))
    features = rng.standard_normal((n, net.input_dim))
    return ShapeData(features, np.arange(n, dtype=np.int64), ops, name=name)


def test_train_config_validation():
    with pytest.raises(DataError):
        TrainConfig(phase1_epochs=-1)
    with pytest.raises(DataError):
        TrainConfig(lr_phase1=0.0)
    with pytest.raises(DataError):
        TrainConfig(pairs_per_step=1)
    with pytest.raises(DataError):
        TrainConfig(weight_decay_phase1=-0.1)


def test_train_dataset_validation(rng):
    net = build_model("MGCONV6(3)+FC5", input_dim=4, head_dim=20, seed=1)
    cfg = TrainConfig(phase1_epochs=1, phase2_epochs=0)
    with pytest.raises(DataError, match="empty"):
        train(net, [], cfg)
    shape = _labeled_shape(rng, net, 20)
    bad_dim = ShapeData(shape.features[:, :3], shape.labels, shape.ops)
    with pytest.raises(DataError, match="feature dim"):
        train(net, [bad_dim], cfg)
    missing_ops = ShapeData(shape.features, shape.labels, {8: shape.ops[8]})
    with pytest.raises(DataError, match="missing operators"):
        train(net, [missing_ops], cfg)
    unlabeled = ShapeData(shape.features, None, shape.ops)
    with pytest.raises(DataError, match="labels"):
        train(net, [unlabeled], cfg)
    headless = build_model("MGCONV6(3)+FC5", input_dim=4, seed=1)
    with pytest.raises(DataError, match="classification head"):
        train(headless, [shape], cfg)


def test_phase2_needs_two_shapes(rng):
    net = build_model("MGCONV6(3)+FC5", input_dim=4, head_dim=20, seed=1)
    shape = _labeled_shape(rng, net, 20)
    with pytest.raises(DataError, match="at least 2 shapes"):
        train(net, [shape], TrainConfig(phase1_epochs=0, phase2_epochs=1))


def test_zero_epochs_is_identity(rng):
    net = build_model("MGCONV6(3)+FC5", input_dim=4, head_dim=20, seed=1)
    before = {k: v.copy() for k, v in net.params.items()}
    shape = _labeled_shape(rng, net, 20)
    _, history = train(net, [shape], TrainConfig(phase1_epochs=0, phase2_epochs=0))
    assert history == {"phase1": [], "phase2": []}
    for k in before:
        assert np.array_equal(net.params[k], before[k])


def test_training_is_deterministic(rng):
    cfg = TrainConfig(phase1_epochs=3, phase2_epochs=2, pairs_per_step=8)
    runs = []
    for _ in range(2):
        r = np.random.default_rng(11)
        net = build_model("MGCONV6(3)+FC5", input_dim=4, head_dim=18, seed=2)
        shapes = [_labeled_shape(r, net, 18, name=f"s{i}") for i in range(2)]
        _, history = train(net, shapes, cfg)
        runs.append((history, {k: v.copy() for k, v in net.params.items()}))
    assert runs[0][0] == runs[1][0]
    for k in runs[0][1]:
        assert np.array_equal(runs[0][1][k], runs[1][1][k])


def test_phase1_overfits_tiny_shape(rng):
    net = build_model("MGCONV8(3)+FC8", input_dim=6, head_dim=16, seed=0)
    shape = _labeled_shape(rng, net, 16)
    cfg = TrainConfig(phase1_epochs=150, phase2_epochs=0, lr_phase1=5e-3)
    _, history = train(net, [shape], cfg)
    assert history["phase1"][-1] < history["phase1"][0]
    assert classification_accuracy(net, shape) >= 0.9


def test_phase2_reduces_loss(rng):
    net = build_model("MGCONV6(3)+FC6", input_dim=4, head_dim=14, seed=3)
    shapes = [_labeled_shape(rng, net, 14, name=f"s{i}") for i in range(2)]
    cfg = TrainConfig(
        phase1_epochs=20, phase2_epochs=30, lr_phase1=3e-3, lr_phase2=2e-3,
        pairs_per_step=14,
    )
    _, history = train(net, shapes, cfg)
    assert history["phase2"][-1] < history["phase2"][0]


def test_checkpoint_round_trip(tmp_path, rng):
    net = build_model("MGCONV6(3)+FC5", input_dim=4, head_dim=9, seed=5)
    state = adam_init(net.params)
    adam_step(net.params, {k: np.ones_like(v) for k, v in net.params.items()}, state, 1e-3, 0.0)
    p = tmp_path / "model.npz"
    save_checkpoint(
        p, net, opt_state=state, rng_state={"x": 1}, metadata={"note": "t"}
    )
    loaded, opt, rng_state, meta = load_checkpoint(p)
    assert loaded.kind == net.kind
    assert loaded.architecture == net.architecture
    assert loaded.input_dim == net.input_dim
    assert loaded.scale_sets == net.scale_sets
    assert loaded.head_dim == net.head_dim
    for k in net.params:
        assert np.array_equal(loaded.params[k], net.params[k])
    assert opt["step"] == state["step"]
    for k in state["m"]:
        assert np.array_equal(opt["m"][k], state["m"][k])
        assert np.array_equal(opt["v"][k], state["v"][k])
    assert rng_state == {"x": 1}
    assert meta == {"note": "t"}


def test_checkpoint_without_optimizer(tmp_path):
    net = build_model("FC4", input_dim=3, seed=0)
    p = tmp_path / "bare.npz"
    save_checkpoint(p, net)
    loaded, opt, rng_state, meta = load_checkpoint(p)
    assert opt is None and rng_state is None and meta == {}
    assert loaded.head_dim is None


def test_checkpoint_rejects_foreign_files(tmp_path):
    p = tmp_path / "foreign.npz"
    np.savez(p, data=np.arange(3))
    with pytest.raises(DataError, match="not a checkpoint"):
        load_checkpoint(p)
    q = tmp_path / "junk.npz"
    q.write_bytes(b"garbage")
    with pytest.raises(DataError):
        load_checkpoint(q)


def _tampered_checkpoint(tmp_path, edit_meta=None, edit_params=None):
    """A valid checkpoint rewritten with its metadata or parameters edited."""
    net = build_model("MGCONV6(3)+FC5", input_dim=4, head_dim=9, seed=5)
    good = tmp_path / "good.npz"
    save_checkpoint(good, net)
    with np.load(good) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    if edit_meta:
        edit_meta(meta)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    if edit_params:
        edit_params(arrays)
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    return bad


_MISSING = object()


@pytest.mark.parametrize("field, value", [
    ("architecture", _MISSING),
    ("architecture", 7),
    ("kind", _MISSING),
    ("kind", "transformer"),
    ("input_dim", _MISSING),
    ("input_dim", "4"),
    ("input_dim", 0),
    ("scale_sets", _MISSING),
    ("scale_sets", [[8, 16]]),
    ("scale_sets", [["8", 16, 24]]),
    ("head_dim", "9"),
    ("head_dim", 0),
], ids=lambda v: "missing" if v is _MISSING else None)
def test_checkpoint_rejects_bad_metadata(tmp_path, field, value):
    def edit(meta):
        if value is _MISSING:
            del meta[field]
        else:
            meta[field] = value

    with pytest.raises(DataError, match=field):
        load_checkpoint(_tampered_checkpoint(tmp_path, edit_meta=edit))


@pytest.mark.parametrize("edit, match", [
    (lambda a: a.update({"param/fc1.w": np.zeros((2, 2))}), "fc1.w"),
    (lambda a: a.update({"param/conv0.w2": np.zeros((4, 6), dtype=np.int64)}),
     "conv0.w2"),
    (lambda a: a.pop("param/head.b"), "missing"),
    (lambda a: a.update({"param/extra": np.zeros(3)}), "unexpected"),
], ids=["wrong-shape", "wrong-dtype", "missing", "unexpected"])
def test_checkpoint_rejects_mismatched_parameters(tmp_path, edit, match):
    with pytest.raises(DataError, match=match):
        load_checkpoint(_tampered_checkpoint(tmp_path, edit_params=edit))


def test_train_stops_on_non_finite_loss(rng):
    net = build_model("MGCONV6(3)+FC5", input_dim=4, head_dim=20, seed=1)
    shape = _labeled_shape(rng, net, 20)
    shape.features[3, 1] = np.nan
    before = {k: v.copy() for k, v in net.params.items()}
    state = adam_init(net.params)
    with pytest.raises(NumericalError, match="not finite"):
        train(net, [shape], TrainConfig(phase1_epochs=1, phase2_epochs=0),
              opt_state=state)
    # raised before the optimizer step touched anything
    assert state["step"] == 0
    for k in before:
        assert np.array_equal(net.params[k], before[k])


def test_head_requires_head(rng):
    net = build_model("FC4", input_dim=3, seed=0)
    with pytest.raises(DataError, match="no classification head"):
        head_forward(net, rng.standard_normal((5, 4)))
