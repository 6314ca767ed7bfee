import numpy as np
import pytest

from meshwave.errors import DataError
from meshwave.evaluation import (
    CorrespondenceMap,
    GroundTruth,
    cmc_curve,
    evaluate_map,
    match_ranks,
    nn_match,
    normalized_errors,
    read_correspondence,
    report_csv_text,
    report_summary_text,
    write_correspondence,
)
from meshwave.geodesics import geodesic_multi
from meshwave.mesh import TriMesh, lumped_areas
from meshwave.synthetic import icosphere

import _shared


def test_nn_match_against_brute_force(rng):
    a = rng.standard_normal((41, 7))
    b = rng.standard_normal((53, 7))
    got = nn_match(a, b).indices
    for i in range(41):
        d = ((a[i][None, :] - b) ** 2).sum(axis=1)
        assert got[i] == int(np.argmin(d))


def test_nn_match_tie_takes_lowest_index():
    b = np.zeros((9, 3))
    b[3] = [1.0, 0.0, 0.0]
    b[7] = [1.0, 0.0, 0.0]  # exact duplicate of row 3
    a = np.array([[1.0, 0.0, 0.0]])
    assert nn_match(a, b).indices[0] == 3
    # equidistant between two distinct rows also resolves low
    b2 = np.array([[2.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    a2 = np.array([[1.0, 0.0]])
    # rows 0 and 1 are at squared distance 1, row 2 at 1: threefold tie
    assert nn_match(a2, b2).indices[0] == 0


def test_nn_match_shape_errors():
    with pytest.raises(DataError, match="dimension mismatch"):
        nn_match(np.zeros((3, 4)), np.zeros((3, 5)))
    with pytest.raises(DataError, match="2-D"):
        nn_match(np.zeros(3), np.zeros((3, 1)))


def test_match_ranks_hand_case():
    b = np.array([[0.0], [0.0], [1.0]])
    a = np.array([[0.0]])
    # true target is row 1; row 0 ties at distance 0 and has lower index
    assert match_ranks(a, b, np.array([1]))[0] == 2
    assert match_ranks(a, b, np.array([0]))[0] == 1
    assert match_ranks(a, b, np.array([2]))[0] == 3


def test_match_ranks_random_consistency(rng):
    a = rng.standard_normal((30, 5))
    b = rng.standard_normal((40, 5))
    gt = rng.integers(0, 40, size=30)
    ranks = match_ranks(a, b, gt)
    nn = nn_match(a, b).indices
    assert ((ranks == 1) == (nn == gt)).all()
    assert (1 <= ranks).all() and (ranks <= 40).all()


def test_cmc_curve_identity(rng):
    desc = rng.standard_normal((25, 6))
    ks, fractions = cmc_curve(desc, desc, np.arange(25), kmax=5)
    assert np.array_equal(ks, [1, 2, 3, 4, 5])
    assert fractions[0] == 1.0
    assert (np.diff(fractions) >= 0).all()


def test_cmc_curve_random_baseline(rng):
    # with unrelated descriptors the true target lands uniformly in the
    # ranking, so CMC(1) concentrates around 1/n
    n, trials = 25, 400
    hits = 0
    for _ in range(trials):
        a = rng.standard_normal((n, 4))
        b = rng.standard_normal((n, 4))
        hits += (nn_match(a, b).indices == np.arange(n)).sum()
    rate = hits / (n * trials)
    assert abs(rate - 1.0 / n) <= 0.015


def test_cmc_kmax_validation(rng):
    desc = rng.standard_normal((10, 3))
    with pytest.raises(DataError):
        cmc_curve(desc, desc, np.arange(10), kmax=11)
    with pytest.raises(DataError):
        cmc_curve(desc, desc, np.arange(10), kmax=0)


def test_identity_map_zero_error():
    mesh = _shared.bar(0.3, nu=10, nv=5)
    n = mesh.n_vertices
    map_ = CorrespondenceMap(np.arange(n))
    gt = GroundTruth(np.arange(n))
    direct, symmetric = normalized_errors(map_, gt, mesh)
    assert np.abs(direct).max() == 0.0
    assert symmetric is None
    age, age_sym = _shared.average_geodesic_error(map_, gt, mesh)
    assert age == 0.0 and age_sym is None
    curve = _shared.cge_curve(map_, gt, mesh, np.array([0.0, 0.1]))
    assert np.array_equal(curve, [1.0, 1.0])


def test_constant_map_against_geodesic_oracle():
    mesh = _shared.bar(0.3, nu=10, nv=5)
    n = mesh.n_vertices
    map_ = CorrespondenceMap(np.zeros(n, dtype=np.int64))
    gt = GroundTruth(np.arange(n))
    direct, _ = normalized_errors(map_, gt, mesh)
    scale = np.sqrt(lumped_areas(mesh).sum())
    expect = geodesic_multi(mesh, [0])[0] / scale  # distance from each true target to 0
    assert np.allclose(np.sort(direct), np.sort(expect), rtol=1e-12)
    assert direct[0] == 0.0


def test_symmetric_error_never_exceeds_direct(rng):
    mesh = icosphere(2)
    n = mesh.n_vertices
    pred = CorrespondenceMap(rng.integers(0, n, size=n))
    gt = GroundTruth(np.arange(n), symmetric=rng.permutation(n))
    direct, symmetric = normalized_errors(pred, gt, mesh)
    assert (symmetric <= direct + 1e-15).all()
    curve_d = _shared.cge_curve(pred, gt, mesh, np.linspace(0, 2, 9))
    curve_s = _shared.cge_curve(pred, gt, mesh, np.linspace(0, 2, 9), symmetric=True)
    assert (curve_s >= curve_d).all()
    assert curve_d[-1] == 1.0  # radius 2 x sqrt(area) swallows the sphere


def test_cge_at_zero_radius_is_exact_rate(rng):
    mesh = _shared.bar(0.3, nu=8, nv=4)
    n = mesh.n_vertices
    pred = rng.integers(0, n, size=n)
    map_ = CorrespondenceMap(pred)
    gt = GroundTruth(np.arange(n))
    curve = _shared.cge_curve(map_, gt, mesh, np.array([0.0]))
    assert curve[0] == (pred == np.arange(n)).mean()


def test_metrics_invariant_to_target_scaling(rng):
    mesh = _shared.bar(0.4, nu=10, nv=5)
    n = mesh.n_vertices
    pred = CorrespondenceMap(rng.integers(0, n, size=n))
    gt = GroundTruth(np.arange(n))
    base, _ = normalized_errors(pred, gt, mesh)
    scaled = TriMesh(mesh.vertices * 3.0, mesh.triangles)
    big, _ = normalized_errors(pred, gt, scaled)
    assert np.allclose(base, big, rtol=1e-8)


def test_metrics_invariant_to_rigid_motion(rng):
    mesh = _shared.bar(0.4, nu=10, nv=5)
    n = mesh.n_vertices
    pred = CorrespondenceMap(rng.integers(0, n, size=n))
    gt = GroundTruth(np.arange(n))
    base, _ = normalized_errors(pred, gt, mesh)
    rot = _shared.random_rotation(rng)
    moved = TriMesh(mesh.vertices @ rot.T + 1.5, mesh.triangles)
    got, _ = normalized_errors(pred, gt, moved)
    assert np.allclose(base, got, rtol=1e-10)


def test_out_of_range_validation():
    mesh = _shared.bar(0.3, nu=8, nv=4)
    n = mesh.n_vertices
    with pytest.raises(DataError, match="outside the target"):
        normalized_errors(
            CorrespondenceMap(np.full(n, n, dtype=np.int64)),
            GroundTruth(np.arange(n)),
            mesh,
        )
    with pytest.raises(DataError, match="different source sizes"):
        normalized_errors(
            CorrespondenceMap(np.arange(n - 1)), GroundTruth(np.arange(n)), mesh
        )
    with pytest.raises(DataError, match="symmetric"):
        _shared.cge_curve(
            CorrespondenceMap(np.arange(n)),
            GroundTruth(np.arange(n)),
            mesh,
            np.array([0.1]),
            symmetric=True,
        )


def test_evaluate_end_to_end(rng):
    mesh = _shared.bar(0.35, nu=10, nv=5)
    basis = _shared.basis_of(mesh, 30)
    bank = _shared.bank_for(basis.lambda_max)
    from meshwave.descriptors import weds

    desc = weds(basis, bank, mesh.vertices, n_dims=96).values
    noisy = desc + 1e-9 * rng.standard_normal(desc.shape)
    gt = GroundTruth(np.arange(mesh.n_vertices))
    report = evaluate_map(nn_match(noisy, desc), gt, mesh)
    _, cmc = cmc_curve(noisy, desc, gt.direct, kmax=10)
    assert report.age_direct <= 1e-6
    assert report.extra["exact_match_rate"] >= 0.99
    assert cmc[0] == report.extra["exact_match_rate"]
    assert report.cge_fractions[-1] == 1.0
    assert report.n_source == report.n_target == mesh.n_vertices
    assert report.cmc_ranks.size == 0


def test_report_text_formats(rng):
    mesh = _shared.bar(0.3, nu=8, nv=4)
    n = mesh.n_vertices
    gt = GroundTruth(np.arange(n), symmetric=np.arange(n))
    report = evaluate_map(CorrespondenceMap(np.arange(n)), gt, mesh)
    text = report_summary_text(report)
    assert "age_direct = 0\n" in text
    assert "age_symmetric = 0\n" in text
    assert "exact_match_rate = 1\n" in text
    assert f"n_source = {n}" in text
    csv = report_csv_text(report)
    lines = csv.strip().split("\n")
    assert lines[0] == "curve,x,fraction"
    assert lines[1] == "cge,0,1"
    assert len(lines) == 1 + report.cge_radii.size


def test_correspondence_file_round_trip(tmp_path):
    p = tmp_path / "map.txt"
    idx = np.array([4, 0, 17, 3])
    write_correspondence(p, idx, comment="made by a test\nsecond line")
    text = p.read_text()
    assert text.startswith("# made by a test\n# second line\n")
    back = read_correspondence(p)
    assert np.array_equal(back, idx)
    back_checked = read_correspondence(p, n_target=18)
    assert np.array_equal(back_checked, idx)


def test_correspondence_file_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3\nfour\n")
    with pytest.raises(DataError, match=r"bad.txt:2"):
        read_correspondence(p)
    q = tmp_path / "range.txt"
    q.write_text("3\n99\n")
    with pytest.raises(DataError, match="out of range"):
        read_correspondence(q, n_target=10)
    r = tmp_path / "neg.txt"
    r.write_text("-2\n")
    with pytest.raises(DataError, match="negative"):
        read_correspondence(r)
    s = tmp_path / "empty.txt"
    s.write_text("# only comments\n")
    with pytest.raises(DataError, match="no indices"):
        read_correspondence(s)
    with pytest.raises(DataError, match="cannot read correspondence"):
        read_correspondence(tmp_path / "missing.txt")


def test_correspondence_target_hash(tmp_path):
    p = tmp_path / "map.txt"
    write_correspondence(p, [1, 0], comment="source_mesh = aa\ntarget_mesh = bb")
    assert read_correspondence(p, expect_target_hash="bb").tolist() == [1, 0]
    with pytest.raises(DataError, match="different mesh"):
        read_correspondence(p, expect_target_hash="aa")
    # a file without the comment (hand-written ground truth) carries no claim
    write_correspondence(p, [1, 0])
    assert read_correspondence(p, expect_target_hash="aa").tolist() == [1, 0]


def _adversarial_pairs(seed):
    """(name, desc_a, desc_b) cases built to sit on the screen's edges:
    exact duplicates and copies, near-ties at every relative scale, a
    large common offset, one dimension, single rows, and magnitudes whose
    squares overflow or underflow."""
    rng = np.random.default_rng(seed)
    d = 9
    b = rng.standard_normal((70, d))
    b[40:50] = b[10:20]  # duplicated target rows
    b[60] = b[3]
    src = rng.integers(0, 70, size=60)
    cases = [("copies", b[src].copy(), b)]
    for eps in (1e-16, 1e-14, 1e-12, 1e-8, 1e-4, 1.0):
        a = b[src] * (1.0 + eps * rng.standard_normal((60, d)))
        cases.append((f"perturbed {eps:g}", a, b))
    cases.append(("offset 1e6", b[src] + 1e6 + 1e-10 * rng.standard_normal((60, d)), b + 1e6))
    b1 = np.round(rng.standard_normal((50, 1)), 2)  # d = 1, many exact ties
    cases.append(("d=1", np.round(rng.standard_normal((40, 1)), 2), b1))
    cases.append(("single row", b[src[:1]] * (1 + 1e-15), b))
    cases.append(("single target", b[src], b[:1]))
    cases.append(("overflow", b[src] * 1e160, b * 1e160))
    near = b[src] * (1.0 + 1e-3 * rng.standard_normal((60, d)))
    cases.append(("underflow", near * 1e-162, b * 1e-162))  # subnormal squares
    many = rng.standard_normal((1100, 3))  # crosses the 512-row chunks
    cases.append(("chunks", np.round(many, 1), np.round(many[::-1][:300], 1)))
    return cases


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_screened_match_and_ranks_equal_cdist(seed):
    rng = np.random.default_rng(100 + seed)
    for name, a, b in _adversarial_pairs(seed):
        assert np.array_equal(nn_match(a, b).indices, _shared.cdist_match(a, b)), name
        gt = rng.integers(0, b.shape[0], size=a.shape[0])
        nearest = _shared.cdist_match(a, b)
        for truth in (gt, nearest):
            got = match_ranks(a, b, truth)
            assert np.array_equal(got, _shared.cdist_ranks(a, b, truth)), name


def test_match_rejects_non_finite(rng):
    a = rng.standard_normal((5, 2))
    for bad in (np.nan, np.inf, -np.inf):
        poisoned = a.copy()
        poisoned[3, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            nn_match(poisoned, a)
        with pytest.raises(DataError, match="non-finite"):
            nn_match(a, poisoned)
        with pytest.raises(DataError, match="non-finite"):
            match_ranks(a, poisoned, np.arange(5))


@pytest.mark.parametrize("symmetric", [False, True])
def test_normalized_errors_match_table_oracle(rng, symmetric):
    mesh = _shared.bar(0.4, nu=12, nv=6)
    n = mesh.n_vertices
    pred = rng.integers(0, n, size=n)
    pred[::3] = np.arange(n)[::3]  # a third are exact
    gt = GroundTruth(np.arange(n), rng.permutation(n) if symmetric else None)
    map_ = CorrespondenceMap(pred)
    direct, sym = normalized_errors(map_, gt, mesh)
    ref_direct, ref_sym = _shared.table_errors(map_, gt, mesh)
    scale = np.abs(ref_direct).max()
    assert np.abs(direct - ref_direct).max() <= 1e-12 * scale
    assert (direct[::3] == 0.0).all()
    if symmetric:
        assert np.abs(sym - ref_sym).max() <= 1e-12 * scale
    else:
        assert sym is None


def test_normalized_errors_memory_below_quarter_table(rng):
    import tracemalloc

    mesh = _shared.sphere(4)
    n = mesh.n_vertices
    assert n == 2562
    map_ = CorrespondenceMap(rng.integers(0, n, size=n))
    gt = GroundTruth(np.arange(n), rng.permutation(n))
    tracemalloc.start()
    try:
        normalized_errors(map_, gt, mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4
