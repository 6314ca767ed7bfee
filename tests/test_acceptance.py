"""End-to-end acceptance gates.

Each test prints exactly one line:

    [criterion N] PASS <label> (12.3s / budget 60s)

Run `pytest tests/test_acceptance.py -s` to see the lines as they land.
Every artifact is built inside its own criterion so the reported wall
time is the honest cost of that check.
"""

import time

import numpy as np

from meshwave.chebyshev import chebyshev_operators
from meshwave.descriptors import dirichlet_energy, hks, weds, wks
from meshwave.evaluation import (
    CorrespondenceMap,
    GroundTruth,
    cmc_curve,
    evaluate_map,
    nn_match,
)
from meshwave.filters import build_filter_bank
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
from meshwave.losses import cross_entropy, hardnet_loss
from meshwave.mesh import TriMesh, cotangent_laplacian, lumped_areas
from meshwave.model import (
    build_model,
    build_wavelet_operators,
    forward,
    required_operator_keys,
)
from meshwave.spectral import eig_generalized
from meshwave.synthetic import (
    bent_bar,
    icosphere,
)
from meshwave.training import (
    ShapeData,
    TrainConfig,
    adam_init,
    classification_accuracy,
    train,
)
from meshwave.wavelets import reconstruct, wavelet_coeffs

import _shared


def _gate(num, label, budget, started, checks):
    elapsed = time.perf_counter() - started
    ok = all(bool(v) for _, v in checks) and elapsed < budget
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {label} "
          f"({elapsed:.1f}s / budget {budget:.0f}s)")
    for name, value in checks:
        assert value, f"criterion {num} failed: {name}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def _basis(mesh, k):
    lap = cotangent_laplacian(mesh)
    areas = lumped_areas(mesh)
    return eig_generalized(lap, areas, k, mesh_hash=mesh.content_hash())


def _bank(basis):
    return build_filter_bank(basis.lambda_max, eigenvalues=basis.eigenvalues)


def test_criterion_1_frame_residual():
    t0 = time.perf_counter()
    checks = []
    for lam_max in (1.0, 20.0, 537.0):
        bank = build_filter_bank(lam_max)
        checks.append((f"residual at lambda_max={lam_max}", bank.residual <= 0.01))
    _gate(1, "tight frame with stock constants", 1.0, t0, checks)


def test_criterion_2_energy_identity():
    t0 = time.perf_counter()
    checks = []
    meshes = {
        "triangle": _shared.equilateral_triangle(),
        "flat bar": bent_bar(0.0),
        "bent bar": bent_bar(0.6),
        "sphere 642": icosphere(3),
        "sphere 2562": icosphere(4),
    }
    energies = {}
    for name, mesh in meshes.items():
        lap = cotangent_laplacian(mesh)
        total = dirichlet_energy(lap, mesh.vertices).sum()
        target = 2.0 * lumped_areas(mesh).sum()
        energies[name] = total
        checks.append((f"E={target:.6g} on {name}",
                       abs(total - target) <= 1e-8 * target))
    drift = abs(energies["sphere 642"] - energies["sphere 2562"])
    checks.append(("cross-tessellation drift <= 1%",
                   drift <= 0.01 * energies["sphere 2562"]))
    _gate(2, "coordinate energy = twice the surface area", 5.0, t0, checks)


def test_criterion_3_reconstruction():
    t0 = time.perf_counter()
    checks = []
    for name, mesh in (("triangle", _shared.equilateral_triangle()),
                       ("sphere 162", icosphere(2)),
                       ("bar 220", bent_bar(0.3))):
        basis = _basis(mesh, mesh.n_vertices)
        bank = _bank(basis)
        rec = np.column_stack([
            reconstruct(basis, bank, wavelet_coeffs(basis, bank, x))
            for x in mesh.vertices.T
        ])
        rel = (np.linalg.norm(rec - mesh.vertices)
               / np.linalg.norm(mesh.vertices))
        checks.append((f"round trip on {name} (rel {rel:.2e})", rel <= 0.02))
    _gate(3, "full-basis analysis/synthesis round trip", 10.0, t0, checks)


def test_criterion_4_sphere_spectrum():
    t0 = time.perf_counter()
    mesh = icosphere(4)
    basis = _basis(mesh, 16)
    vals = basis.eigenvalues
    checks = [("vertex count >= 2562", mesh.n_vertices >= 2562),
              ("zero mode", vals[0] <= 1e-8)]
    for degree, (lo, hi) in zip((1, 2, 3), ((1, 4), (4, 9), (9, 16))):
        target = degree * (degree + 1)
        band = vals[lo:hi]
        dev = np.abs(band - target).max() / target
        checks.append(
            (f"band l={degree}: {hi - lo} values near {target} (dev {dev:.3f})",
             dev <= 0.05))
    _gate(4, "Laplacian bands match the round sphere", 30.0, t0, checks)


def _fd_suite_trials(rng, n_trials=20):
    """Yields one bool per operation per trial; FD tolerance 1e-4."""
    results = {"elu": True, "norm": True, "conv": True, "fc": True,
               "xent": True, "hardnet": True}

    def close(analytic, fd):
        return _shared.grads_close(analytic, fd, tol=1e-4)

    for _ in range(n_trials):
        s = rng.standard_normal(15) * 2.0
        s = s[np.abs(s) > 1e-4]
        fd = np.array([_shared.fd_grad(lambda v: float(elu(v).sum()), s[i:i + 1])[0]
                       for i in range(s.size)])
        results["elu"] &= close(elu_grad(s), fd)

        e = rng.standard_normal((6, 4))
        _, mn, span = minmax_forward(e)
        dz = rng.standard_normal((6, 4))
        fd = _shared.fd_grad(
            lambda v: float((minmax_apply(v, mn, span) * dz).sum()), e.copy())
        results["norm"] &= close(minmax_backward(dz, span), fd)

        x = rng.standard_normal((9, 3))
        weights = [rng.standard_normal((3, 2)) for _ in range(3)]
        ops = [rng.standard_normal((9, 9)) / 3.0 for _ in range(3)]
        z, cache = conv_forward(x, weights, _shared.DenseOperator(ops))
        dz = rng.standard_normal(z.shape)
        dx, dws = conv_backward(cache, dz, weights)
        mn, span = cache[-2:]

        def frozen(xv, wv):
            acc = sum(p @ (xv @ w) for w, p in zip(wv, ops))
            return float((minmax_apply(elu(acc), mn, span) * dz).sum())

        ok = close(dx, _shared.fd_grad(lambda v: frozen(v, weights), x.copy()))
        for i in range(3):
            fd = _shared.fd_grad(
                lambda v, i=i: frozen(x, [v if j == i else weights[j]
                                          for j in range(3)]),
                weights[i].copy())
            ok = ok and close(dws[i], fd)
        results["conv"] &= ok

        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        xa = rng.standard_normal((7, 4))
        za, cache = affine_forward(xa, w, b)
        dza = rng.standard_normal(za.shape)
        dxa, dw, db = affine_backward(cache, dza, w)
        loss_w = lambda v: float((affine_forward(xa, v, b)[0] * dza).sum())
        loss_x = lambda v: float((affine_forward(v, w, b)[0] * dza).sum())
        loss_b = lambda v: float((affine_forward(xa, w, v)[0] * dza).sum())
        results["fc"] &= (close(dw, _shared.fd_grad(loss_w, w.copy()))
                          and close(dxa, _shared.fd_grad(loss_x, xa.copy()))
                          and close(db, _shared.fd_grad(loss_b, b.copy())))

        logits = rng.standard_normal((6, 5)) * 3.0
        labels = rng.integers(0, 5, size=6)
        _, dlogits = cross_entropy(logits, labels)
        fd = _shared.fd_grad(lambda v: cross_entropy(v, labels)[0], logits.copy())
        results["xent"] &= close(dlogits, fd)

        a, bb = _hardnet_case(rng)
        _, da, db2 = hardnet_loss(a, bb)
        results["hardnet"] &= (
            close(da, _shared.fd_grad(lambda v: hardnet_loss(v, bb)[0], a.copy()))
            and close(db2, _shared.fd_grad(lambda v: hardnet_loss(a, v)[0], bb.copy())))
    return results


def _hardnet_case(rng, m=5, d=4):
    # resample until no anchor sits on the hinge or a distance tie, where
    # the loss is not differentiable and FD would disagree by construction
    while True:
        a = rng.standard_normal((m, d))
        b = rng.standard_normal((m, d))
        loss, _, _ = hardnet_loss(a, b)
        dist = np.sqrt(np.maximum(
            (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2 * a @ b.T, 0))
        sym = np.minimum(dist, dist.T)
        np.fill_diagonal(sym, np.inf)
        order = np.sort(sym, axis=1)
        hinge = 1.0 + np.diag(dist) - order[:, 0]
        clear = (np.abs(hinge).min() > 1e-2
                 and (order[:, 1] - order[:, 0]).min() > 1e-2
                 and np.abs(dist - dist.T)[~np.eye(m, dtype=bool)].min() > 1e-2)
        if clear and loss > 0:
            return a, b


def test_criterion_5_gradient_suite():
    t0 = time.perf_counter()
    results = _fd_suite_trials(np.random.default_rng(5), n_trials=20)
    checks = [(f"{name}: 20 randomized trials", ok)
              for name, ok in results.items()]
    _gate(5, "finite differences confirm every backward pass", 60.0, t0, checks)


def test_criterion_6_descriptor_invariances():
    t0 = time.perf_counter()
    checks = []
    mesh = bent_bar(0.4)
    basis = _basis(mesh, 60)
    base = weds(basis, _bank(basis), mesh.vertices).values

    rng = np.random.default_rng(6)
    rot = _shared.random_rotation(rng)
    moved = TriMesh(mesh.vertices @ rot.T + np.array([1.0, 2.0, -0.5]),
                    mesh.triangles)
    mb = _basis(moved, 60)
    moved_field = weds(mb, _bank(mb), moved.vertices).values
    rigid = np.abs(moved_field - base).max() / np.abs(base).max()
    checks.append((f"rigid motion (rel {rigid:.1e})", rigid <= 1e-8))

    perm = rng.permutation(mesh.n_vertices)
    pb = _shared.permute_basis(basis, perm)
    permuted = weds(pb, _bank(basis), mesh.vertices[np.argsort(perm)]).values
    perm_err = np.abs(permuted[perm] - base).max() / np.abs(base).max()
    checks.append((f"permutation equivariance (rel {perm_err:.1e})",
                   perm_err <= 1e-10))

    sphere = icosphere(4)
    sb = _basis(sphere, 36)
    for field in (hks(sb, n_times=64), wks(sb, n_energies=64)):
        col_mean = field.values.mean(axis=0)
        rel = (np.abs(field.values - col_mean[None, :]).max(axis=0)
               / np.abs(col_mean)).max()
        checks.append((f"{field.kind} homogeneity on the sphere "
                       f"(dev {rel:.4f})", rel <= 0.02))
    _gate(6, "rigid / relabeling / homogeneity invariances", 60.0, t0, checks)


def _learning_shapes(poses, nu, nv, k, needed):
    shapes = {}
    for curv in poses:
        mesh = bent_bar(curv, nu, nv)
        basis = _basis(mesh, k)
        bank = _bank(basis)
        field = weds(basis, bank, mesh.vertices, n_dims=128, power=2)
        ops = build_wavelet_operators(basis, bank, needed)
        labels = np.arange(mesh.n_vertices, dtype=np.int64)
        shapes[curv] = ShapeData(field.values, labels, ops, name=f"bar{curv}")
    return shapes


_SCALED_SCHEDULE = dict(lr_phase1=4e-3, lr_phase2=2e-3)


def test_criterion_7_desk_scale_learning():
    t0 = time.perf_counter()
    n = 220
    net = build_model(input_dim=128, head_dim=n, seed=0)
    shapes = _learning_shapes((0.25, 0.9, 0.55), 22, 10, 100,
                              required_operator_keys(net))
    trainers = [shapes[0.25], shapes[0.9]]
    opt = adam_init(net.params)
    rng = np.random.default_rng(0)
    net, _ = train(net, trainers,
                   TrainConfig(phase1_epochs=50, phase2_epochs=0,
                               **_SCALED_SCHEDULE),
                   opt_state=opt, rng=rng)
    accs = [classification_accuracy(net, s) for s in trainers]
    net, _ = train(net, trainers,
                   TrainConfig(phase1_epochs=0, phase2_epochs=25,
                               **_SCALED_SCHEDULE),
                   opt_state=opt, rng=rng)
    held, _ = forward(net, shapes[0.55].features, shapes[0.55].ops)
    ref, _ = forward(net, shapes[0.25].features, shapes[0.25].ops)
    exact = float((nn_match(held, ref).indices == np.arange(n)).mean())
    checks = [(f"phase-1 accuracy {accs[0]:.3f}/{accs[1]:.3f} >= 0.95",
               min(accs) >= 0.95),
              (f"held-out exact-match {exact:.3f} >= 0.80", exact >= 0.80)]
    _gate(7, "two-pose training generalizes to a held-out pose", 600.0, t0,
          checks)


def _xyz_shapes(kind, poses, nu, nv, k, needed):
    shapes = {}
    for curv in poses:
        mesh = bent_bar(curv, nu, nv)
        if kind == "chebyshev":
            lap = cotangent_laplacian(mesh)
            areas = lumped_areas(mesh)
            ops = chebyshev_operators(lap, areas, needed)
        else:
            basis = _basis(mesh, k)
            bank = _bank(basis)
            ops = build_wavelet_operators(basis, bank, needed)
        labels = np.arange(mesh.n_vertices, dtype=np.int64)
        shapes[curv] = ShapeData(mesh.vertices.copy(), labels, ops,
                                 name=f"{kind}{curv}")
    return shapes


def _exact_rate(net, shapes):
    held, _ = forward(net, shapes[0.55].features, shapes[0.55].ops)
    ref, _ = forward(net, shapes[0.25].features, shapes[0.25].ops)
    n = shapes[0.25].features.shape[0]
    return float((nn_match(held, ref).indices == np.arange(n)).mean())


def test_criterion_8_resolution_robustness_ordering():
    t0 = time.perf_counter()
    # tessellation A trains, tessellation B (~2.5x vertices) evaluates
    grids = {"A": (32, 14), "B": (50, 22)}
    rates = {}
    for kind in ("mgcn", "chebyshev"):
        net = build_model(input_dim=3, kind=kind, head_dim=448, seed=0)
        needed = required_operator_keys(net)
        shapes_a = _xyz_shapes(kind, (0.25, 0.9, 0.55), *grids["A"], 60, needed)
        net, _ = train(net, [shapes_a[0.25], shapes_a[0.9]],
                       TrainConfig(phase1_epochs=50, phase2_epochs=25,
                                   **_SCALED_SCHEDULE),
                       opt_state=adam_init(net.params),
                       rng=np.random.default_rng(0))
        exact_a = _exact_rate(net, shapes_a)
        del shapes_a
        shapes_b = _xyz_shapes(kind, (0.25, 0.55), *grids["B"], 60, needed)
        exact_b = _exact_rate(net, shapes_b)
        del shapes_b
        rates[kind] = (exact_a, exact_b, (exact_a - exact_b) / exact_a)
    mg, ch = rates["mgcn"], rates["chebyshev"]
    checks = [
        (f"wavelet net degrades {mg[2]:.3f} <= 0.30 "
         f"(exact {mg[0]:.3f} -> {mg[1]:.3f})", mg[2] <= 0.30),
        (f"polynomial baseline degrades {ch[2]:.3f} > 0.60 "
         f"(exact {ch[0]:.3f} -> {ch[1]:.3f})", ch[2] > 0.60),
        (f"wavelet net wins on the finer mesh ({mg[1]:.3f} > {ch[1]:.3f})",
         mg[1] > ch[1]),
    ]
    _gate(8, "wavelet filters survive retessellation, polynomials do not",
          1200.0, t0, checks)


def test_criterion_9_metric_sanity():
    t0 = time.perf_counter()
    mesh = icosphere(2)
    n = mesh.n_vertices
    identity = np.arange(n)
    radii = np.linspace(0.0, 0.25, 26)
    report = evaluate_map(CorrespondenceMap(identity), GroundTruth(identity),
                          mesh, radii)
    checks = [
        ("identity map: zero error", report.age_direct == 0.0),
        ("identity map: CGE == 1 everywhere",
         np.all(np.asarray(report.cge_fractions) == 1.0)),
    ]
    _, cmc = cmc_curve(mesh.vertices, mesh.vertices, identity, kmax=10)
    checks.append(("identity descriptors: CMC(1) == 1", cmc[0] == 1.0))
    checks.append(("CMC curve monotone", np.all(np.diff(cmc) >= 0)))

    sym = _shared.antipodal_permutation(mesh)
    rng = np.random.default_rng(9)
    sym_ok, monotone_ok = True, True
    for _ in range(20):
        pred = rng.integers(0, n, size=n)
        rep = evaluate_map(CorrespondenceMap(pred),
                           GroundTruth(identity, sym), mesh, radii)
        sym_ok &= rep.age_symmetric <= rep.age_direct
        monotone_ok &= bool(np.all(np.diff(rep.cge_fractions) >= 0))
    checks.append(("symmetric error <= direct error on 20 random maps", sym_ok))
    checks.append(("CGE curves monotone", monotone_ok))
    _gate(9, "evaluation metrics behave on known maps", 5.0, t0, checks)
