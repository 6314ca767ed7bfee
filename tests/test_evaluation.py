import re

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
    expect = _shared.geodesic_multi(mesh, [0])[0] / scale  # distance from each true target to 0
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
    assert report.exact_match_rate >= 0.99
    assert cmc[0] == report.exact_match_rate
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
    back_checked = read_correspondence(p, _shared.bar(0.3, nu=6, nv=3))  # 18 vertices
    assert np.array_equal(back_checked, idx)


@pytest.mark.parametrize("comment", [None, "", "\n", "one line", "made by a test\r\nsecond\n",
                                     "a\x0bb\u2028c", "lone \ud800 surrogate\n\nlast"],
                         ids=["none", "empty", "newline", "one", "crlf", "vt-ls", "surrogate"])
def test_write_correspondence_matches_loop_oracle(tmp_path, comment):
    idx = np.array([0, 7, 2**63 - 1, 123456789012, 3])
    write_correspondence(tmp_path / "new.txt", idx, comment=comment)
    _shared.loop_write_correspondence(tmp_path / "old.txt", idx, comment=comment)
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


def test_correspondence_file_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3\nfour\n")
    with pytest.raises(DataError, match=r"bad.txt:2"):
        read_correspondence(p)
    q = tmp_path / "range.txt"
    q.write_text("3\n99\n")
    with pytest.raises(DataError, match="out of range"):
        read_correspondence(q, _shared.bar(0.3, nu=5, nv=2))  # 10 vertices
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


@pytest.mark.parametrize("line", ["1_0", "٣", "１２", "+1_2"],
                         ids=["underscore", "arabic-indic", "fullwidth", "signed-underscore"])
def test_a_correspondence_index_is_ascii_digits_without_underscores(tmp_path, line):
    # int() reads "1_0" as 10 and the Arabic-Indic "٣" as 3
    p = tmp_path / "map.txt"
    p.write_text(f"0\n{line}\n2\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"map.txt:2: not an integer: '{line}'")):
        read_correspondence(p)
    p.write_text("0\n1_0\n٣\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"map.txt:2: not an integer: '1_0'$"):
        read_correspondence(p)
    p.write_text(" +3 \n0\n", encoding="utf-8")  # a sign and blanks stay as int() reads them
    assert read_correspondence(p).tolist() == [3, 0]


def test_correspondence_target_hash(tmp_path):
    p = tmp_path / "map.txt"
    a, b = (_shared.bar(curvature, nu=6, nv=4) for curvature in (0.0, 0.3))  # two poses
    write_correspondence(p, [1, 0], comment=f"source_mesh = {a.content_hash()}\n"
                                            f"target_mesh = {b.content_hash()}")
    assert read_correspondence(p, b).tolist() == [1, 0]
    with pytest.raises(DataError, match="different mesh"):
        read_correspondence(p, a)
    # a file without the comment (hand-written ground truth) carries no claim
    write_correspondence(p, [1, 0])
    assert read_correspondence(p, a).tolist() == [1, 0]


def _adversarial_pairs(seed):
    """(name, desc_a, desc_b) cases built to sit on the screen's edges:
    exact duplicates and copies, near-ties at every relative scale and at
    the edge of the tolerance, a large common offset, one dimension,
    single rows, targets so wide that a chunk holds few rows or one,
    sources much shorter or longer than targets, and magnitudes whose
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
    # wide targets: two rows a chunk with 9 rows, then one row wider than a chunk
    wide = np.round(rng.standard_normal((100_003, 3)), 1)  # many exact ties
    cases.append(("wide target", np.round(rng.standard_normal((9, 3)), 1), wide))
    wider = np.round(rng.standard_normal((2**18 + 5, 2)), 2)
    cases.append(("wider than a chunk", np.round(rng.standard_normal((3, 2)), 2), wider))
    # the screen drops |a|^2 and weighs |a|^2 and |b|^2 differently
    cases.append(("|a| << |b|", b[src] * 1e-7, b))
    unit = b / np.linalg.norm(b, axis=1, keepdims=True)
    unit *= 1.0 + 2.0**-52 * rng.integers(0, 4, size=(70, 1))  # norms a few ulps apart
    cases.append(("|a| << |b|, ties in |b|", 1e-16 * rng.standard_normal((60, d)), unit))
    for ratio in (1e7, 1e16):  # at 1e16, cdist rounds most columns to one value
        jitter = 1.0 + 1e-12 * rng.standard_normal((60, d))
        cases.append((f"|a| >> |b| {ratio:g}", b[src] * ratio**0.5 * jitter, b / ratio**0.5))
    mixed_a = b[src] * (1.0 + 1e-9 * rng.standard_normal((60, d)))
    mixed_a[::3] *= 1e-5
    mixed_a[1::3] *= 1e5
    mixed_b = b.copy()
    mixed_b[::2] *= 1e-3
    mixed_b[1::2] *= 1e3
    cases.append(("mixed magnitudes", mixed_a, mixed_b))
    # row k of a has two targets, base_k + e and base_k + (1 + delta_k) e,
    # whose squared distances differ by about 2 delta_k: from 0.05 to 20
    # times the screen's tolerance, on either side
    base = rng.standard_normal((40, d))
    e = rng.standard_normal(d)
    e /= np.linalg.norm(e)
    tol = 10 * (d + 3) * 2.0**-53 * 2 * (base**2).sum(axis=1).max()
    delta = np.geomspace(0.05, 20, 40) * tol / 2 * rng.choice([-1.0, 1.0], 40)
    edge_b = np.concatenate([base + e, base + np.outer(1.0 + delta, e)])
    cases.append(("edge of tol", base, edge_b))
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


def test_match_ranks_refuses_a_ground_truth_of_another_length(rng):
    a, b = rng.standard_normal((5, 2)), rng.standard_normal((6, 2))
    with pytest.raises(DataError, match="ground truth length differs from source descriptor"):
        match_ranks(a, b, np.arange(4))


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
