import json
import tracemalloc

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
    load_checkpoint,
    parse_architecture,
    required_operator_keys,
    save_checkpoint,
)
from meshwave.synthetic import bent_bar, icosphere
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
        "MGCONV8(1000000000)",  # ten digits and more; int() raised ValueError past 4,300
        "FC" + "9" * 5000,
        "MGCONV" + "1" * 5000 + "(3)",
        # Unicode digits, which a \d pattern and int() both take
        "MGCONV٣٢(٣)+FC１６",
        "FC１６",
        "MGCONV8(٣)",
        "MGCONV٨(3)",
        "FC1_6",
    ):
        with pytest.raises(DataError):
            parse_architecture(bad)
    # an empty string splits into one empty term, which matches no layer
    with pytest.raises(DataError, match="cannot parse architecture term ''"):
        parse_architecture(" ")


def test_build_model_shapes():
    net = build_model("MGCONV8(3)+MGCONV4(3)+FC6", input_dim=5, head_dim=11)
    assert net.params["conv0.w0"].shape == (5, 8)
    assert net.params["conv0.w2"].shape == (5, 8)
    assert net.params["conv1.w0"].shape == (8, 4)
    assert net.params["fc2.w"].shape == (4, 6)
    assert net.params["fc2.b"].shape == (6,)
    assert net.params["head.w"].shape == (6, 11)
    assert net.specs[-1].out_dim == 6
    assert net.head_dim == 11
    # wavelet scale sets follow the dimension budget of each conv layer
    assert net.scale_sets[0] == [24, 16, 8]
    assert required_operator_keys(net) == [8, 16, 24]


def test_parameter_names_order_and_shapes_are_the_checkpoint_layout(tmp_path):
    # the checkpoint stores its parameter arrays under these names, in this order
    net = build_model("MGCONV8(3)+FC4+MGCONV8(3)+FC2", input_dim=5, head_dim=3)
    layout = [("conv0.w0", (5, 8)), ("conv0.w1", (5, 8)), ("conv0.w2", (5, 8)),
              ("fc1.w", (8, 4)), ("fc1.b", (4,)),
              ("conv2.w0", (4, 8)), ("conv2.w1", (4, 8)), ("conv2.w2", (4, 8)),
              ("fc3.w", (8, 2)), ("fc3.b", (2,)), ("head.w", (2, 3)), ("head.b", (3,))]
    assert [(name, p.shape) for name, p in net.params.items()] == layout
    save_checkpoint(tmp_path / "net.npz", net)
    with np.load(tmp_path / "net.npz") as data:
        stored = [(key[len("param/"):], data[key].shape) for key in data.files
                  if key.startswith("param/")]
    assert stored == layout


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
    return _shared.DenseOperator(ops)


def _toy_model_and_shape(rng, n=20, head=None):
    net = build_model("MGCONV6(3)+FC5", input_dim=4, head_dim=head, seed=1)
    ops = _toy_ops(rng, n, required_operator_keys(net))
    x = rng.standard_normal((n, 4))
    return net, x, ops


def test_forward_matches_manual_composition(rng):
    net, x, ops = _toy_model_and_shape(rng)
    out, _ = forward(net, x, ops)
    ws = [net.params[f"conv0.w{j}"] for j in range(3)]
    h, _ = layers.conv_forward(x, ws, ops.select(net.scale_sets[0]))
    expect, _ = layers.affine_forward(h, net.params["fc1.w"], net.params["fc1.b"])
    assert np.array_equal(out, expect)


def test_forward_validates_input(rng):
    net, x, ops = _toy_model_and_shape(rng)
    with pytest.raises(DataError, match="expected input"):
        forward(net, x[:, :3], ops)
    with pytest.raises(DataError, match="missing operator"):
        forward(net, x, _shared.DenseOperator({24: ops[24]}))


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
    grads = backward(net, caches, dout)
    mn, span = caches[0][-2:]
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


def test_backward_forms_no_input_gradient_at_the_first_layer(rng, monkeypatch):
    net = build_model("MGCONV6(3)+MGCONV5(3)+FC5", input_dim=4, seed=1)
    ops = _toy_ops(rng, 20, required_operator_keys(net))
    out, caches = forward(net, rng.standard_normal((20, 4)), ops)
    formed, conv_backward = [], layers.conv_backward

    def watch(*args, **kwargs):
        dx, dws = conv_backward(*args, **kwargs)
        formed.append(dx is not None)
        return dx, dws

    monkeypatch.setattr(layers, "conv_backward", watch)
    grads = backward(net, caches, rng.standard_normal(out.shape))
    assert formed == [True, False]  # the second conv layer first
    assert sorted(grads) == sorted(net.params)


def test_model_permutation_equivariance(rng):
    net, x, ops = _toy_model_and_shape(rng)
    perm = rng.permutation(x.shape[0])
    p_ops = _shared.DenseOperator({s: op[np.ix_(perm, perm)] for s, op in ops.mats.items()})
    base, _ = forward(net, x, ops)
    moved, _ = forward(net, x[perm], p_ops)
    assert np.allclose(moved, base[perm], rtol=1e-12, atol=1e-14)


def test_build_wavelet_operators():
    basis = _shared.bar_basis(0.3, 15)
    bank = _shared.bank_for(basis.lambda_max)
    ops = build_wavelet_operators(basis, bank, [8, 16])
    assert ops.keys == [8, 16]
    with pytest.raises(KeyError):
        ops.select([24])
    dense = _shared.dense_wavelet_operators(basis, bank, [8, 16])
    n = basis.n_vertices
    eye = np.eye(n)
    for keys in ([8], [16], [16, 8, 16]):
        # P_s applied to the identity reproduces the oracle matrix
        applied, _ = ops.select(keys).forward(eye, [eye] * len(keys))
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
    ops = chebyshev_operators(lap, areas, range(order))
    assert ops.orders == list(range(order))
    with pytest.raises(KeyError):
        ops.select([order])
    dense = _shared.dense_chebyshev(lap, areas, lmax, order)
    n = mesh.n_vertices
    eye = np.eye(n)
    assert np.array_equal(ops.select([0]).forward(eye, [eye])[0], eye)
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
        assert np.abs(ops.select([m]).forward(eye, [eye])[0] - expect).max() <= 1e-8
        assert np.abs(dense[m] - expect).max() <= 1e-8


def test_chebyshev_validation():
    mesh = _shared.bar(0.3, nu=6, nv=4)
    lap = cotangent_laplacian(mesh)
    areas = lumped_areas(mesh)
    with pytest.raises(DataError, match="non-negative, got -1"):
        chebyshev_operators(lap, areas, [2, -1, 0])
    # a network with no conv layer asks for no order, and gets an empty set
    assert chebyshev_operators(lap, areas, []).orders == []
    # exactly the orders asked for, in their order
    assert chebyshev_operators(lap, areas, [3, 1]).orders == [3, 1]


def test_spectral_max_matches_lapack_and_reruns_bitwise():
    import scipy.linalg

    # ARPACK at every size: from one triangle up past the 320 vertices
    # where a dense solve once ran
    small = _shared.bar(0.3, nu=8, nv=4)  # 32 vertices
    big = bent_bar(0.3, nu=32, nv=14)  # 448 vertices
    for mesh in (_shared.equilateral_triangle(), small, icosphere(2), big):
        lap = cotangent_laplacian(mesh)
        areas = lumped_areas(mesh)
        top = spectral_max(lap, areas)
        dense = scipy.linalg.eigh(lap.toarray(), np.diag(areas), eigvals_only=True)[-1]
        assert top == pytest.approx(dense, rel=1e-12)
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


def _adam_reference(params, grads, state, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
    """adam_step's whole-array formula, as it was before the row slabs."""
    state["step"] += 1
    bc1, bc2 = 1.0 - beta1 ** state["step"], 1.0 - beta2 ** state["step"]
    for name, p in params.items():
        g, m, v = grads[name], state["m"][name], state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        if weight_decay:
            p -= lr * weight_decay * p
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def _adam_params(rng):
    # the 7,000-class head at a 96-wide descriptor is several slabs; the rest fit in one
    shapes = {"head.w": (96, 7000), "head.b": (7000,), "fc0.w": (16, 128), "fc0.b": (128,),
              "odd.w": (3, 100_000)}
    return {name: rng.standard_normal(shape) for name, shape in shapes.items()}


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_adam_slabs_are_bit_identical_to_the_whole_array_formula(rng, weight_decay):
    params = _adam_params(rng)
    expect = {name: p.copy() for name, p in params.items()}
    state, expect_state = adam_init(params), adam_init(expect)
    for _ in range(3):
        grads = {name: rng.standard_normal(p.shape) for name, p in params.items()}
        adam_step(params, grads, state, 1e-3, weight_decay)
        _adam_reference(expect, grads, expect_state, 1e-3, weight_decay)
    for name in params:
        assert np.array_equal(params[name], expect[name])
        assert np.array_equal(state["m"][name], expect_state["m"][name])
        assert np.array_equal(state["v"][name], expect_state["v"][name])


def test_adam_step_peak_is_within_twice_the_largest_parameter(rng):
    params = _adam_params(rng)
    grads = {name: rng.standard_normal(p.shape) for name, p in params.items()}
    state = adam_init(params)
    largest = max(p.nbytes for p in params.values())
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        adam_step(params, grads, state, 1e-3, 1e-4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * largest


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
    missing_ops = ShapeData(shape.features, shape.labels, _shared.DenseOperator({8: shape.ops[8]}))
    with pytest.raises(DataError, match="missing operator for scale index 24"):
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
    save_checkpoint(p, net, metadata={"note": "t"})
    with np.load(p) as data:
        assert sorted(data.files) == sorted(["__meta__", *(f"param/{k}" for k in net.params)])
        assert "rng_state" not in json.loads(bytes(data["__meta__"]).decode())
    loaded, opt, rng_state, meta = load_checkpoint(p)
    assert loaded.kind == net.kind
    assert loaded.architecture == net.architecture
    assert loaded.input_dim == net.input_dim
    assert loaded.scale_sets == net.scale_sets
    assert loaded.head_dim == net.head_dim
    for k in net.params:
        assert np.array_equal(loaded.params[k], net.params[k])
    assert opt is None and rng_state is None
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


def test_checkpoint_rejects_deeply_nested_metadata(tmp_path):
    # json.loads raised RecursionError out of load_checkpoint
    p = tmp_path / "deep.npz"
    np.savez(p, __meta__=np.frombuffer(b"[" * 100_000 + b"]" * 100_000, dtype=np.uint8))
    with pytest.raises(DataError, match="not valid JSON"):
        load_checkpoint(p)


def _tampered_checkpoint(tmp_path, edit_meta=None, edit_params=None, kind="mgcn"):
    """A valid checkpoint rewritten with its metadata or arrays edited."""
    net = build_model("MGCONV6(3)+FC5", input_dim=4, head_dim=9, kind=kind, seed=5)
    return _shared.edited_checkpoint(tmp_path / "bad.npz", net, edit_meta, edit_params)


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


@pytest.mark.parametrize("kind, stored", [
    ("mgcn", [[1, 2, 3]]),
    ("mgcn", [[8, 16, 24]]),
    ("chebyshev", [[0, 1, 3000]]),
    ("chebyshev", [[0, 1]]),
    ("mgcn", [[24.0, 16, 8]]),  # equal in Python, not as stored text
    ("chebyshev", [[False, True, 2]]),
], ids=["other-scales", "reordered", "huge-order", "short", "float-scale", "bool-order"])
def test_checkpoint_scale_sets_must_be_the_derived_ones(tmp_path, kind, stored):
    # the stored copy was checked for shape only, so a MGCONV6(3) layer ran
    # scales 1, 2, 3, and a Chebyshev one built 3,001 polynomial terms
    def edit(meta):
        meta["scale_sets"] = stored

    with pytest.raises(DataError, match="scale_sets"):
        load_checkpoint(_tampered_checkpoint(tmp_path, edit_meta=edit, kind=kind))


@pytest.mark.parametrize("kind", ["mgcn", "chebyshev"])
def test_checkpoint_scale_count_is_bounded_by_its_arrays(tmp_path, kind):
    # the scale sets were derived from a stored count before any array was
    # compared, so a few bytes of metadata could ask for any allocation
    def edit(meta):
        meta["architecture"] = "MGCONV6(1000000)+FC5"

    bad = _tampered_checkpoint(tmp_path, edit_meta=edit, kind=kind)
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="fewer parameter arrays than conv scales"):
            load_checkpoint(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, f"peak {peak / 1e6:.1f} MB"


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
    net = build_model("MGCONV6(3)+FC5", input_dim=4, seed=1)
    shape = _labeled_shape(rng, net, 20)
    with pytest.raises(DataError, match="no classification head"):
        classification_accuracy(net, shape)


def test_backward_adds_into_given_gradients_bitwise(rng):
    net, x, ops = _toy_model_and_shape(rng)
    _, _, ops_b = _toy_model_and_shape(rng)
    x_b = rng.standard_normal(x.shape)
    runs = []
    for features, shape_ops in ((x, ops), (x_b, ops_b)):
        out, caches = forward(net, features, shape_ops)
        runs.append((caches, rng.standard_normal(out.shape)))
    separate = [backward(net, *run) for run in runs]
    grads = backward(net, *runs[0])
    same = backward(net, *runs[1], grads=grads)
    assert same is grads and list(grads) == list(separate[0])
    for name, g in grads.items():
        assert np.array_equal(g, separate[0][name] + separate[1][name]), name


def test_phase1_epoch_holds_no_n_by_n_logits():
    # 1,300 vertices: 1.69M logits, so the fused head runs in two row
    # blocks of at most 2**20, and holding both at once would also fail;
    # the unfused head held several n x n arrays at once
    basis = _shared.bar_basis(0.3, 20, nu=50, nv=26)
    n = basis.n_vertices
    net = build_model("MGCONV8(3)+FC16", input_dim=4, head_dim=n, seed=0)
    ops = build_wavelet_operators(basis, _shared.bank_for(basis.lambda_max),
                                  required_operator_keys(net))
    features = np.random.default_rng(0).standard_normal((n, 4))
    shape = ShapeData(features, np.arange(n, dtype=np.int64), ops)
    state = adam_init(net.params)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, history = train(net, [shape], TrainConfig(phase1_epochs=1, phase2_epochs=0),
                           opt_state=state)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert np.isfinite(history["phase1"][0])
    assert peak < n * n * 8, f"phase-1 epoch traced {peak / 1e6:.1f} MB"
