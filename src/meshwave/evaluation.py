"""Correspondence metrics: nearest-neighbor matching, geodesic error, CGE, CMC.

All geodesic quantities are normalized by the square root of the target
surface area, which makes every metric invariant to rigid motion and uniform
scaling of the target mesh. Scaled (x1e3) values are emitted alongside for
reporting.

Matching and ranks are decided by scipy's ``cdist`` squared distances, the
direct sums of (a - b)^2, so exact ties stay exact and go to the lowest
index. They are not computed for every pair: each chunk of rows, at most
2**18 table entries (2 MB), is first screened with one GEMM of [A, 1]
against [-2B, |b|^2]', which gives |b|^2 - 2 a.b: the squared distance
less the row's constant |a|^2. Its rounding error against ``cdist`` has a
rigorous bound (derived at `_screened`). Only the columns the bound cannot
decide are recomputed with ``cdist``, which gives each entry
bit-identical to the full table, so the outputs are those of the full
``cdist`` table.

Geodesic errors run Dijkstra from the predicted vertices of the wrong
matches only (a correct match has error exactly 0) and gather the entries
at the ground-truth vertices, through `geodesics.geodesic_pairs`; one run
serves both the direct and the symmetric ground truth, and no n x n table
is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

from ._files import atomic_write, check_mesh_hash, numeric_rows, read_text
from .errors import DataError
from .geodesics import geodesic_pairs
from .mesh import TriMesh, lumped_areas

_CHUNK_ENTRIES = 2**18  # screen entries per chunk: 2 MB of float64
_U = 2.0**-53  # unit roundoff of float64
_ETA = float(np.finfo(np.float64).smallest_subnormal)


@dataclass(frozen=True)
class CorrespondenceMap:
    indices: np.ndarray  # per-source-vertex target index

    def __post_init__(self):
        idx = np.ascontiguousarray(self.indices, dtype=np.int64)
        if idx.ndim != 1:
            raise DataError("correspondence map must be a 1-D index array")
        object.__setattr__(self, "indices", idx)

    @property
    def n_source(self) -> int:
        return self.indices.shape[0]


@dataclass(frozen=True)
class GroundTruth:
    direct: np.ndarray
    symmetric: Optional[np.ndarray] = None

    def __post_init__(self):
        d = np.ascontiguousarray(self.direct, dtype=np.int64)
        if d.ndim != 1:
            raise DataError("ground truth must be a 1-D index array")
        object.__setattr__(self, "direct", d)
        if self.symmetric is not None:
            s = np.ascontiguousarray(self.symmetric, dtype=np.int64)
            if s.shape != d.shape:
                raise DataError("symmetric map length differs from direct map")
            object.__setattr__(self, "symmetric", s)


@dataclass(frozen=True)
class EvalReport:
    age_direct: float
    age_symmetric: Optional[float]
    cge_radii: np.ndarray
    cge_fractions: np.ndarray
    n_source: int
    n_target: int
    exact_match_rate: float
    # rank curve is present only when descriptors (not just a map) were given
    cmc_ranks: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    cmc_fractions: np.ndarray = field(default_factory=lambda: np.empty(0))


def read_correspondence(path, target=None, source=None) -> np.ndarray:
    """One 0-based index per line; '#' lines are comments. Given the mesh
    `target`, a '# target_mesh = HASH' comment (as `match` writes) is
    checked against it (``_files.check_mesh_hash``), as is each index.
    Given `source`, the (path, recorded mesh hash) of the source's descriptor
    file, that file is checked against a '# source_mesh = HASH' comment."""
    # the text holds only "\n" newlines, so these are the lines a file iterates
    lines = list(map(str.strip, read_text(path, "correspondence").split("\n")))
    recorded = {key.strip(): val.strip() for key, eq, val in  # the last of each key
                (line[1:].partition("=") for line in lines if line[:1] == "#") if eq}
    rows = [line for line in lines if line and line[0] != "#"]
    try:
        idx = numeric_rows(path, rows, None, np.int64, "correspondence")
    except DataError:  # name the first row refused; no line above it has its text
        for line in rows:
            try:
                numeric_rows(path, [line], None, np.int64, "correspondence")
            except DataError:
                ln = lines.index(line) + 1
                raise DataError(f"{path}:{ln}: not an integer: {line!r}") from None
        raise
    check_mesh_hash(path, recorded.get("target_mesh"), "correspondence", target)
    if source is not None:
        source_hash = recorded.get("source_mesh")
        check_mesh_hash(path, source_hash, "correspondence")
        check_mesh_hash(*source, "descriptor file", source_hash)
    if idx.size == 0:
        raise DataError(f"{path}: no indices found")
    if idx.min() < 0:
        raise DataError(f"{path}: negative index {idx.min()}")
    if target is not None and idx.max() >= target.n_vertices:
        raise DataError(f"{path}: index {idx.max()} out of range for "
                        f"{target.n_vertices} target vertices")
    return idx


def write_correspondence(path, indices, comment: Optional[str] = None):
    indices = np.asarray(indices, dtype=np.int64)
    header = "".join(f"# {line}\n" for line in (comment or "").splitlines())
    # a comment can carry lone surrogates from JSON escapes or file names
    with atomic_write(path, "w", encoding="utf-8", errors="backslashreplace") as fh:
        fh.write(header + "".join(f"{i}\n" for i in indices.tolist()))


def _descriptor_pair(desc_a, desc_b) -> tuple[np.ndarray, np.ndarray]:
    desc_a = np.asarray(desc_a, dtype=np.float64)
    desc_b = np.asarray(desc_b, dtype=np.float64)
    if desc_a.ndim != 2 or desc_b.ndim != 2:
        raise DataError("descriptor fields must be 2-D (vertices x dims)")
    if desc_a.shape[1] != desc_b.shape[1]:
        raise DataError(
            f"descriptor dimension mismatch: {desc_a.shape[1]} vs {desc_b.shape[1]}"
        )
    if not (np.isfinite(desc_a).all() and np.isfinite(desc_b).all()):
        raise DataError("descriptor fields contain non-finite values")
    return desc_a, desc_b


def _screened(desc_a: np.ndarray, desc_b: np.ndarray):
    """Yield (rows, approx, tol) for each chunk of rows of A.

    approx[i, j] = |b_j|^2 - 2 a_i.b_j, from one GEMM of [a_i, 1] against
    [-2 b_j, |b_j|^2], and it lies within tol[i] / 2 of cdist's value for
    (a_i, b_j) minus the row's constant |a_i|^2. Every decision of
    `nn_match` and `match_ranks` compares columns within one row, so the
    constant never needs adding. A chunk holds at most _CHUNK_ENTRIES
    entries (a whole row when B is wider); the array yielded is reused by
    the next chunk.

    The bound.  Let u = 2**-53, g_n = n u / (1 - n u) and S = |a|^2 + |b|^2.
    A dot product of length n, in any summation order, with or without
    FMA, is off by at most g_n sum |x_k y_k| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1). The norm
    |b|^2 is off by g_d |b|^2; scaling by -2 and by 1 is exact. The GEMM
    is a dot product of length d + 1 with sum |x_k y_k| = 2 sum |a_k b_k|
    + fl(|b|^2) <= |a|^2 + 2 |b|^2 (as 2 |a_k b_k| <= a_k^2 + b_k^2), so,
    to first order in u, the screen is within (d + 1) u |a|^2 + (3d + 2) u
    |b|^2 <= (3d + 2) u S of the exact |b|^2 - 2 a.b = |a - b|^2 - |a|^2.
    cdist sums fl(a_k - b_k)^2, each term off by 3u relative, within
    (d + 3) u |a - b|^2 <= 2 (d + 3) u S of the exact value. The screen
    and cdist minus |a|^2 therefore differ by at most E' = (5d + 8) u S,
    plus 2d subnormal spacings eta when products underflow (3d rounded
    products, each off by at most eta / 2; sums in the subnormal range
    are exact). tol = 10 (d + 3) (u (|a|^2 + max |b|^2) + eta) is at least
    2E' + 14 u S + 4d eta for every column. The spare 14 u S covers the
    rounding of the sums against tol (at most u (2S + tol) each, as
    |approx| <= |b|^2 + 2 |a| |b| <= 2S) and the second-order terms. If
    4 (|a|^2 + max |b|^2) overflows, the chunk's approx is cdist itself
    and tol is 0.
    """
    n_b, d = desc_b.shape
    a_sq = np.einsum("ij,ij->i", desc_a, desc_a)
    b_sq = np.einsum("ij,ij->i", desc_b, desc_b)
    b_max = b_sq.max(initial=0.0)
    step = max(1, _CHUNK_ENTRIES // max(n_b, 1))
    if not np.isfinite(4.0 * (a_sq.max(initial=0.0) + b_max)):
        for lo in range(0, desc_a.shape[0], step):
            block = desc_a[lo : lo + step]
            yield slice(lo, lo + step), cdist(block, desc_b, "sqeuclidean"), np.zeros(len(block))
        return
    slack = 10.0 * (d + 3)
    b_aug = np.empty((d + 1, n_b))
    np.multiply(desc_b.T, -2.0, out=b_aug[:d])
    b_aug[d] = b_sq
    a_aug = np.empty((min(step, desc_a.shape[0]), d + 1))
    a_aug[:, d] = 1.0
    screen = np.empty((a_aug.shape[0], n_b))
    for lo in range(0, desc_a.shape[0], step):
        rows = slice(lo, lo + step)
        block = desc_a[rows]
        m = len(block)
        a_aug[:m, :d] = block
        approx = np.matmul(a_aug[:m], b_aug, out=screen[:m])
        yield rows, approx, slack * (_U * (a_sq[rows] + b_max) + _ETA)


def _exact(row: np.ndarray, desc_b: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """cdist of one source row against some target rows; each entry is
    bit-identical to the same entry of the full cdist table."""
    return cdist(row[None, :], desc_b[cols], "sqeuclidean")[0]


def nn_match(desc_a: np.ndarray, desc_b: np.ndarray) -> CorrespondenceMap:
    """For each row of A, the index of the L2-nearest row of B.

    Ties resolve to the lowest index (argmin keeps the first minimum).
    Non-finite values are a `DataError`.

    With E' the screen's error (tol >= 2E', see `_screened`), the cdist
    minimiser j* satisfies approx[j*] <= cdist[j*] - |a|^2 + E' <= cdist[j']
    - |a|^2 + E' <= approx[j'] + 2E' for the screen's minimiser j', so every
    column within tol of the screen's minimum is a candidate and j* is
    among them. A row whose second-smallest screen value is beyond tol
    has one candidate and is decided; the others take the first cdist
    argmin over their candidates, in index order.
    """
    desc_a, desc_b = _descriptor_pair(desc_a, desc_b)
    out = np.empty(desc_a.shape[0], dtype=np.int64)
    for rows, approx, tol in _screened(desc_a, desc_b):
        at = np.arange(approx.shape[0])
        best = approx.argmin(axis=1)
        lowest = approx[at, best]
        limit = lowest + tol
        approx[at, best] = np.inf
        open_rows = np.flatnonzero(approx.min(axis=1) <= limit)
        approx[at, best] = lowest
        block = desc_a[rows]
        for i in open_rows:
            cols = np.flatnonzero(approx[i] <= limit[i])
            best[i] = cols[_exact(block[i], desc_b, cols).argmin()]
        out[rows] = best
    return CorrespondenceMap(out)


def _check_against_target(indices: np.ndarray, n_target: int, what: str):
    if indices.size and (indices.min() < 0 or indices.max() >= n_target):
        raise DataError(f"{what} references vertices outside the target mesh")


def normalized_errors(
    map_: CorrespondenceMap, gt: GroundTruth, target_mesh: TriMesh
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-source geodesic error on the target, divided by sqrt(target area).

    Returns (direct, symmetric); symmetric is None when the ground truth has
    no symmetric map. A correct match has error exactly 0; every other
    error is the graph distance from the predicted vertex to the true one,
    from one Dijkstra run per distinct predicted vertex shared by both
    ground truths (`geodesics.geodesic_pairs`).
    """
    pred = map_.indices
    if pred.shape != gt.direct.shape:
        raise DataError("map and ground truth cover different source sizes")
    n_t = target_mesh.n_vertices
    _check_against_target(pred, n_t, "correspondence map")
    _check_against_target(gt.direct, n_t, "ground truth")
    truths = [gt.direct]
    if gt.symmetric is not None:
        _check_against_target(gt.symmetric, n_t, "symmetric ground truth")
        truths.append(gt.symmetric)
    truths = np.stack(truths)  # (T, n): the direct map, then the symmetric one
    which, wrong = np.nonzero(pred != truths)
    errors = np.zeros(truths.shape)
    errors[which, wrong] = geodesic_pairs(target_mesh, pred[wrong], truths[which, wrong])
    errors *= 1.0 / np.sqrt(lumped_areas(target_mesh).sum())
    direct = errors[0]
    symmetric = None if gt.symmetric is None else errors.min(axis=0)
    return direct, symmetric


def match_ranks(
    desc_a: np.ndarray, desc_b: np.ndarray, gt_direct: np.ndarray
) -> np.ndarray:
    """1-based rank of each source's true target among its sorted neighbors.

    Ordering is by squared distance with index as the tie-breaker, so the
    rank of a tied true target counts only tied rows with a lower index.
    Non-finite values are a `DataError`.

    A column whose screened value is more than tol below the true target's
    is surely closer in cdist, one more than tol above surely farther (see
    `_screened`). Only the band in between, which holds the true target
    and every column tied with it, is recomputed with cdist and counted by
    the closer-plus-tied-before rule.
    """
    desc_a, desc_b = _descriptor_pair(desc_a, desc_b)
    gt_direct = np.asarray(gt_direct, dtype=np.int64)
    if gt_direct.shape[0] != desc_a.shape[0]:
        raise DataError("ground truth length differs from source descriptor count")
    _check_against_target(gt_direct, desc_b.shape[0], "ground truth")
    ranks = np.empty(desc_a.shape[0], dtype=np.int64)
    for rows, approx, tol in _screened(desc_a, desc_b):
        g = gt_direct[rows]
        at_true = approx[np.arange(g.size), g]
        low = (at_true - tol)[:, None]
        high = (at_true + tol)[:, None]
        closer = np.count_nonzero(approx < low, axis=1)
        band = np.count_nonzero(approx <= high, axis=1) - closer
        block = desc_a[rows]
        for i in np.flatnonzero(band > 1):
            cols = np.flatnonzero((approx[i] >= low[i]) & (approx[i] <= high[i]))
            d = _exact(block[i], desc_b, cols)
            d_true = d[np.searchsorted(cols, g[i])]
            closer[i] += np.count_nonzero(d < d_true)
            closer[i] += np.count_nonzero((d == d_true) & (cols < g[i]))
        ranks[rows] = closer + 1
    return ranks


def cmc_curve(
    desc_a: np.ndarray,
    desc_b: np.ndarray,
    gt_direct: np.ndarray,
    kmax: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Fraction of sources whose true target is within the k nearest rows."""
    n_target = np.asarray(desc_b).shape[0]
    if not 1 <= kmax <= n_target:
        raise DataError(f"kmax must be in [1, {n_target}], got {kmax}")
    ranks = match_ranks(desc_a, desc_b, gt_direct)
    ks = np.arange(1, kmax + 1, dtype=np.int64)
    fractions = (ranks[None, :] <= ks[:, None]).mean(axis=1)
    return ks, fractions


def evaluate_map(
    map_: CorrespondenceMap,
    gt: GroundTruth,
    target_mesh: TriMesh,
    radii: Optional[np.ndarray] = None,
) -> EvalReport:
    """Benchmark from a precomputed correspondence (no rank curve)."""
    if radii is None:
        radii = np.linspace(0.0, 0.25, 51)
    direct, symmetric = normalized_errors(map_, gt, target_mesh)
    fractions = (direct[None, :] <= np.asarray(radii)[:, None]).mean(axis=1)
    return EvalReport(
        age_direct=float(direct.mean()),
        age_symmetric=None if symmetric is None else float(symmetric.mean()),
        cge_radii=np.asarray(radii, dtype=np.float64),
        cge_fractions=fractions,
        n_source=int(map_.n_source),
        n_target=int(target_mesh.n_vertices),
        exact_match_rate=float((map_.indices == gt.direct).mean()),
    )


def report_summary_text(report: EvalReport) -> str:
    lines = [
        f"n_source = {report.n_source}",
        f"n_target = {report.n_target}",
        f"age_direct = {report.age_direct:.17g}",
        f"age_direct_x1e3 = {report.age_direct * 1e3:.17g}",
    ]
    if report.age_symmetric is not None:
        lines.append(f"age_symmetric = {report.age_symmetric:.17g}")
        lines.append(f"age_symmetric_x1e3 = {report.age_symmetric * 1e3:.17g}")
    lines.append(f"exact_match_rate = {report.exact_match_rate:.17g}")
    return "\n".join(lines) + "\n"


def report_csv_text(report: EvalReport) -> str:
    rows = ["curve,x,fraction"]
    for r, f in zip(report.cge_radii, report.cge_fractions):
        rows.append(f"cge,{r:.17g},{f:.17g}")
    for k, f in zip(report.cmc_ranks, report.cmc_fractions):
        rows.append(f"cmc,{k},{f:.17g}")
    return "\n".join(rows) + "\n"
