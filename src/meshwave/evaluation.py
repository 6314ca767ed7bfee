"""Correspondence metrics: nearest-neighbor matching, geodesic error, CGE, CMC.

All geodesic quantities are normalized by the square root of the target
surface area, which makes every metric invariant to rigid motion and uniform
scaling of the target mesh. Scaled (x1e3) values are emitted alongside for
reporting.

Matching and ranks are decided by scipy's ``cdist`` squared distances, the
direct sums of (a - b)^2, so exact ties stay exact and go to the lowest
index. They are not computed for every pair: each 512-row chunk is first
screened with one GEMM, |a|^2 + |b|^2 - 2 A B', whose rounding error
against ``cdist`` has a rigorous bound (derived at `_screened`). Only the
columns the bound cannot decide are recomputed with ``cdist``, which gives
each entry bit-identical to the full table, so the outputs are those of the
full ``cdist`` table.

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

from ._files import atomic_write
from .errors import DataError
from .geodesics import geodesic_pairs
from .mesh import TriMesh, lumped_areas

_CHUNK = 512  # rows of the source block held against the full target table
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
    # rank curve is present only when descriptors (not just a map) were given
    cmc_ranks: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    cmc_fractions: np.ndarray = field(default_factory=lambda: np.empty(0))
    extra: dict = field(default_factory=dict)


def read_correspondence(path, n_target: Optional[int] = None,
                        expect_target_hash: Optional[str] = None) -> np.ndarray:
    """One 0-based target index per line; '#' lines are comments, and a
    '# target_mesh = HASH' comment (as `match` writes) must equal
    expect_target_hash when that is given."""
    out = []
    target_hash = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line.startswith("#"):
                    key, eq, val = line[1:].partition("=")
                    if eq and key.strip() == "target_mesh":
                        target_hash = val.strip()
                    continue
                if not line:
                    continue
                try:
                    val = int(line)
                except ValueError:
                    raise DataError(f"{path}:{ln}: not an integer: {line!r}") from None
                out.append(val)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read correspondence {path}: {exc}") from None
    if expect_target_hash is not None and target_hash not in (None, expect_target_hash):
        raise DataError(
            f"{path}: correspondence targets a different mesh "
            "(content hash mismatch); refusing stale artifact"
        )
    idx = np.asarray(out, dtype=np.int64)
    if idx.size == 0:
        raise DataError(f"{path}: no indices found")
    if idx.min() < 0:
        raise DataError(f"{path}: negative index {idx.min()}")
    if n_target is not None and idx.max() >= n_target:
        raise DataError(
            f"{path}: index {idx.max()} out of range for {n_target} target vertices"
        )
    return idx


def write_correspondence(path, indices, comment: Optional[str] = None):
    indices = np.asarray(indices, dtype=np.int64)
    with atomic_write(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        for v in indices:
            fh.write(f"{v}\n")


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

    approx[i, j] = |a_i|^2 + |b_j|^2 - 2 a_i.b_j, from one GEMM, and every
    entry lies within tol[i] / 2 of cdist's value for (a_i, b_j).

    The bound.  Let u = 2**-53, g_d = d u / (1 - d u) and S = |a|^2 + |b|^2.
    A dot product of length d, in any summation order, with or without
    FMA, is off by at most g_d sum |x_k y_k| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1). So the two
    norms are off by g_d |a|^2 and g_d |b|^2, a.b by g_d S / 2 (as
    2|a_k b_k| <= a_k^2 + b_k^2); the multiply-by-2 is exact and the two
    additions, with results bounded by 2S, add at most 4 u S: the screen
    is within (2d + 4) u S of the exact |a - b|^2, to first order in u.
    cdist sums fl(a_k - b_k)^2, each term off by 3u relative, within
    (d + 3) u |a - b|^2 <= 2 (d + 3) u S of the exact value. The two
    therefore differ by at most E = (4d + 10) u S, plus 2d subnormal
    spacings eta when products underflow. tol = 8 (d + 4) (u (|a|^2 +
    max |b|^2) + eta) is at least 2E + 12 u S for every column; the spare
    12 u S covers the rounding of the comparisons against tol (2 u S) and
    the second-order terms. If 4 (|a|^2 + max |b|^2) overflows, the
    chunk's approx is cdist itself and tol is 0.
    """
    a_sq = np.einsum("ij,ij->i", desc_a, desc_a)
    b_sq = np.einsum("ij,ij->i", desc_b, desc_b)
    b_max = b_sq.max(initial=0.0)
    slack = 8.0 * (desc_a.shape[1] + 4)
    overflow = not np.isfinite(4.0 * (a_sq.max(initial=0.0) + b_max))
    for lo in range(0, desc_a.shape[0], _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        if overflow:
            block = desc_a[rows]
            yield rows, cdist(block, desc_b, "sqeuclidean"), np.zeros(block.shape[0])
            continue
        approx = desc_a[rows] @ desc_b.T
        approx *= -2.0
        approx += a_sq[rows, None]
        approx += b_sq
        yield rows, approx, slack * (_U * (a_sq[rows] + b_max) + _ETA)


def _exact(row: np.ndarray, desc_b: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """cdist of one source row against some target rows; each entry is
    bit-identical to the same entry of the full cdist table."""
    return cdist(row[None, :], desc_b[cols], "sqeuclidean")[0]


def nn_match(desc_a: np.ndarray, desc_b: np.ndarray) -> CorrespondenceMap:
    """For each row of A, the index of the L2-nearest row of B.

    Ties resolve to the lowest index (argmin keeps the first minimum).
    Non-finite values are a `DataError`.

    With E the screen's error (tol >= 2E, see `_screened`), the cdist
    minimiser j* satisfies approx[j*] <= cdist[j*] + E <= cdist[j'] + E <=
    approx[j'] + 2E for the screen's minimiser j', so every column within
    tol of the screen's minimum is a candidate and j* is among them. A row
    with one candidate is decided; the others take the first cdist argmin
    over their candidates, in index order.
    """
    desc_a, desc_b = _descriptor_pair(desc_a, desc_b)
    out = np.empty(desc_a.shape[0], dtype=np.int64)
    for rows, approx, tol in _screened(desc_a, desc_b):
        best = approx.argmin(axis=1)
        lowest = approx[np.arange(best.size), best]
        near = approx <= (lowest + tol)[:, None]
        block = desc_a[rows]
        for i in np.flatnonzero(np.count_nonzero(near, axis=1) > 1):
            cols = np.flatnonzero(near[i])
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
    wrong = [np.flatnonzero(pred != truth) for truth in truths]
    dist = geodesic_pairs(
        target_mesh,
        pred[np.concatenate(wrong)],
        np.concatenate([truth[w] for truth, w in zip(truths, wrong)]),
    )
    scale = 1.0 / np.sqrt(lumped_areas(target_mesh).sum())
    errors, at = [], 0
    for w in wrong:
        err = np.zeros(pred.shape[0])
        err[w] = dist[at : at + w.size] * scale
        errors.append(err)
        at += w.size
    direct = errors[0]
    symmetric = None
    if gt.symmetric is not None:
        symmetric = np.minimum(direct, errors[1])
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
    exact = float((map_.indices == gt.direct).mean())
    return EvalReport(
        age_direct=float(direct.mean()),
        age_symmetric=None if symmetric is None else float(symmetric.mean()),
        cge_radii=np.asarray(radii, dtype=np.float64),
        cge_fractions=fractions,
        n_source=int(map_.n_source),
        n_target=int(target_mesh.n_vertices),
        extra={"exact_match_rate": exact},
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
    for key in sorted(report.extra):
        lines.append(f"{key} = {report.extra[key]:.17g}")
    return "\n".join(lines) + "\n"


def report_csv_text(report: EvalReport) -> str:
    rows = ["curve,x,fraction"]
    for r, f in zip(report.cge_radii, report.cge_fractions):
        rows.append(f"cge,{r:.17g},{f:.17g}")
    for k, f in zip(report.cmc_ranks, report.cmc_fractions):
        rows.append(f"cmc,{k},{f:.17g}")
    return "\n".join(rows) + "\n"
