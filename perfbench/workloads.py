"""The benchmark's three workloads: describe, correspond and learn.

Each workload draws its inputs from the seed alone and has four steps:

- ``setup``: write the inputs into the work directory (timed as set-up);
- ``reference``: compute the values every op's outputs are checked
  against, once per run and outside the set-up timing;
- ``open``: load what the ops need into this process (untimed);
- ``op``: one op, which raises ``CheckFailed`` when an output is wrong and
  returns its detail figures.

``describe`` and ``correspond`` drive ``meshwave.cli.main`` in-process;
``learn`` calls the library.  All calls go through module attributes
(``cli.main``, ``model.forward``) so the traced run's hooks see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import struct
import time
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import cdist

from meshwave import (
    cli,
    descriptors,
    evaluation,
    filters,
    mesh,
    model,
    spectral,
    synthetic,
    training,
)

K = 100  # eigenpairs, the CLI default
DIMS = 128  # WEDS dimension, the CLI default
CURVATURES = (0.2, 0.95)  # bent-bar curvature range poses are drawn from
_ROWS = 512  # distance-table rows per block in the reference matcher


class CheckFailed(Exception):
    """An op's output is missing, malformed or off its reference."""


def check(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def run_cli(argv):
    """meshwave.cli.main in-process, output captured; non-zero exit fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    check(code == 0, f"meshwave {argv[0]} exited {code}: {err.getvalue().strip()}")


def write_off(path, vertices, triangles):
    lines = [f"OFF\n{len(vertices)} {len(triangles)} 0"]
    lines += [f"{x!r} {y!r} {z!r}" for x, y, z in vertices.tolist()]
    lines += [f"3 {a} {b} {c}" for a, b, c in triangles.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_mwd(path) -> np.ndarray:
    """Rows of a .mwd descriptor file, parsed without meshwave's reader."""
    data = Path(path).read_bytes()
    check(data[:4] == b"MWDF", f"{path}: bad magic")
    n, d, meta_len = struct.unpack_from("<QQQ", data, 8)
    payload = data[32 + meta_len :]
    check(len(payload) == n * d * 8, f"{path}: payload is not {n}x{d} float64")
    return np.frombuffer(payload, dtype="<f8").reshape(n, d)


def check_field(values, shape, what: str):
    check(values.shape == shape, f"{what}: shape {values.shape}, expected {shape}")
    check(np.isfinite(values).all(), f"{what}: non-finite values")


def check_close(values, reference, what: str, rtol=1e-9):
    scale = max(float(np.abs(reference).max()), 1e-300)
    err = float(np.abs(values - reference).max()) / scale
    check(err <= rtol, f"{what}: off its reference by {err:.3e} (tolerance {rtol})")


def nearest_rows(desc_a, desc_b) -> np.ndarray:
    """Reference matcher: lowest-index nearest row of B for each row of A."""
    out = np.empty(len(desc_a), dtype=np.int64)
    for lo in range(0, len(desc_a), _ROWS):
        out[lo : lo + _ROWS] = cdist(desc_a[lo : lo + _ROWS], desc_b, "sqeuclidean").argmin(1)
    return out


def bank_for(basis):
    """The CLI's default filter bank for a basis."""
    return filters.build_filter_bank(basis.lambda_max, eigenvalues=basis.eigenvalues)


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def dense_forward(net, basis, bank, x):
    """Oracle for the network's output, independent of meshwave's layers:
    each conv layer is Norm(ELU(sum_s P_s X W_s)), with P_s the transposed,
    L1-normalised dense atom matrix of Phi diag(g_s) Phi' A."""
    phi = basis.eigenvectors
    ops = {}
    for s in {s for scales in net.scale_sets for s in scales}:
        atoms = (phi * filters.g_of(bank, s, basis.eigenvalues)) @ phi.T * basis.areas
        ops[s] = (atoms / np.abs(atoms).sum(axis=0)).T
    conv = 0
    for li, spec in enumerate(net.specs):
        if spec.kind == "conv":
            s = sum(ops[k] @ (x @ net.params[f"conv{li}.w{j}"])
                    for j, k in enumerate(net.scale_sets[conv]))
            e = np.where(s > 0, s, np.expm1(s))
            lo, span = e.min(axis=0), np.ptp(e, axis=0)
            x = np.where(span > 0, (e - lo) / np.where(span > 0, span, 1.0), 0.5)
            conv += 1
        else:
            x = x @ net.params[f"fc{li}.w"] + net.params[f"fc{li}.b"]
    return x


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = Path(work)
        self.seed = seed

    def path(self, name: str) -> Path:
        return self.work / name


class Describe(Workload):
    """One op: ``meshwave basis -k 100`` then ``meshwave descriptor --type
    weds --num 128 --basis ...`` on a randomly rotated icosphere."""

    name = "describe"
    SUBDIVISIONS = 4  # 2,562 vertices

    def setup(self):
        rng = np.random.default_rng(self.seed)
        sphere = synthetic.icosphere(self.SUBDIVISIONS)
        rotated = sphere.vertices @ random_rotation(rng).T
        write_off(self.path("sphere.off"), rotated, sphere.triangles)

    def reference(self):
        """The library's basis and WEDS on the unrotated sphere: WEDS is
        rotation invariant, and k = 100 holds the l <= 9 clusters whole."""
        shape = synthetic.icosphere(self.SUBDIVISIONS)
        basis = spectral.eig_generalized(
            mesh.cotangent_laplacian(shape), mesh.lumped_areas(shape), K
        )
        field = descriptors.weds(basis, bank_for(basis), shape.vertices, n_dims=DIMS)
        np.savez(self.path("reference.npz"), eigenvalues=basis.eigenvalues, values=field.values)

    def open(self):
        with np.load(self.path("reference.npz")) as ref:
            self.ref_eigenvalues = ref["eigenvalues"]
            self.ref_values = ref["values"]
        self.n = self.ref_values.shape[0]

    def op(self) -> dict:
        off, cache, out = (self.path(p) for p in ("sphere.off", "basis.npz", "weds.mwd"))
        run_cli(["basis", off, "-k", K, "-o", cache, "--force"])
        run_cli(["descriptor", off, "--type", "weds", "--num", DIMS, "--basis", cache, "-o", out])
        with np.load(cache) as data:
            lam, vecs, areas = data["eigenvalues"], data["eigenvectors"], data["areas"]
        check_field(lam, (K,), "basis eigenvalues")
        check_field(vecs, (self.n, K), "basis eigenvectors")
        check_field(areas, (self.n,), "basis areas")
        check(lam[0] == 0.0 and (np.diff(lam) >= 0).all(), "basis eigenvalues not ascending from 0")
        # unit sphere: l(l+1) with multiplicity 2l+1
        check(np.abs(lam[1:4] - 2.0).max() < 0.02, f"sphere l=1 cluster off 2: {lam[1:4]}")
        check(np.abs(lam[4:9] - 6.0).max() < 0.06, f"sphere l=2 cluster off 6: {lam[4:9]}")
        check_close(lam, self.ref_eigenvalues, "basis eigenvalues")
        values = read_mwd(out)
        check_field(values, (self.n, DIMS), "weds descriptor")
        check_close(values, self.ref_values, "weds descriptor")
        return {}


class Correspond(Workload):
    """One op: ``meshwave match`` then ``meshwave eval --desc-a --desc-b``
    on two poses of a bent bar whose ground truth is the identity."""

    name = "correspond"
    GRID = (60, 29)  # 1,740 vertices

    def poses(self):
        rng = np.random.default_rng(self.seed)
        return [synthetic.bent_bar(c, *self.GRID) for c in rng.uniform(*CURVATURES, 2)]

    def setup(self):
        for tag, pose in zip("ab", self.poses()):
            off = self.path(f"{tag}.off")
            write_off(off, pose.vertices, pose.triangles)
            run_cli(["descriptor", off, "--type", "weds", "--num", DIMS, "-k", K,
                     "-o", self.path(f"{tag}.mwd")])
        n = self.GRID[0] * self.GRID[1]
        self.path("gt.txt").write_text("".join(f"{i}\n" for i in range(n)))

    def reference(self):
        """Exact-match rate and mean geodesic error of the nearest-neighbour
        map, from scipy's matcher and Dijkstra rather than meshwave's."""
        pred = nearest_rows(read_mwd(self.path("a.mwd")), read_mwd(self.path("b.mwd")))
        target = self.poses()[1]
        n = target.n_vertices
        truth = np.arange(n)
        i, j = target.edges().T
        lengths = np.linalg.norm(target.vertices[i] - target.vertices[j], axis=1)
        graph = coo_matrix((lengths, (i, j)), shape=(n, n)).tocsr()
        wrong = np.flatnonzero(pred != truth)
        errors = np.zeros(n)
        if wrong.size:
            table = dijkstra(graph, directed=False, indices=wrong)
            errors[wrong] = table[np.arange(wrong.size), pred[wrong]]
        corners = target.vertices[target.triangles]
        area = 0.5 * np.linalg.norm(
            np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]), axis=1
        ).sum()
        np.save(self.path("reference_map.npy"), pred)
        ref = {"exact_rate": float((pred == truth).mean()),
               "age_x1e3": float(errors.mean() / np.sqrt(area) * 1e3)}
        self.path("reference.json").write_text(json.dumps(ref))

    def open(self):
        self.ref = json.loads(self.path("reference.json").read_text())
        self.ref_map = np.load(self.path("reference_map.npy"))

    def op(self) -> dict:
        corr, prefix = self.path("map.txt"), self.path("report")
        run_cli(["match", self.path("a.mwd"), self.path("b.mwd"), "-o", corr])
        run_cli(["eval", corr, self.path("gt.txt"), self.path("b.off"),
                 "--desc-a", self.path("a.mwd"), "--desc-b", self.path("b.mwd"), "-o", prefix])
        rows = [ln for ln in corr.read_text().splitlines() if ln and not ln.startswith("#")]
        check(np.array_equal(np.array(rows, dtype=np.int64), self.ref_map),
              "match: correspondence differs from the reference matcher")
        summary = {}
        for line in prefix.with_suffix(".summary.txt").read_text().splitlines():
            key, _, value = line.partition("=")
            summary[key.strip()] = float(value)
        exact = summary.get("exact_match_rate", float("nan"))
        age = summary.get("age_direct_x1e3", float("nan"))
        check(abs(exact - self.ref["exact_rate"]) <= 1e-12,
              f"eval: exact_rate {exact} vs reference {self.ref['exact_rate']}")
        check(abs(age - self.ref["age_x1e3"]) <= 1e-9 * max(1.0, self.ref["age_x1e3"]),
              f"eval: age_x1e3 {age} vs reference {self.ref['age_x1e3']}")
        cmc = [float(ln.split(",")[2]) for ln in
               prefix.with_suffix(".curves.csv").read_text().splitlines()
               if ln.startswith("cmc,")]
        check(len(cmc) == 100 and (np.diff(cmc) >= 0).all() and cmc[-1] <= 1.0,
              "eval: rank curve missing or not monotone")
        return {"exact_rate": exact, "age_x1e3": age}


class Learn(Workload):
    """One op is a round of three calls into the library: a phase-1 step on
    one training pose, a phase-2 epoch over both ordered training pairs, and
    inference on the held-out pose from the set-up checkpoint."""

    name = "learn"
    GRID = (30, 14)  # 420 vertices
    N_POSES = 3  # two training poses, then the held-out pose

    def _draws(self):
        rng = np.random.default_rng(self.seed)
        curvatures = rng.uniform(*CURVATURES, self.N_POSES)
        model_seed, train_seed = (int(s) for s in rng.integers(2**31, size=2))
        return curvatures, model_seed, train_seed

    def setup(self):
        curvatures, model_seed, _ = self._draws()
        n = self.GRID[0] * self.GRID[1]
        net = model.build_model(model.DEFAULT_ARCHITECTURE, input_dim=DIMS,
                                head_dim=n, seed=model_seed)
        keys = model.required_operator_keys(net)
        for i, c in enumerate(curvatures):
            pose = synthetic.bent_bar(c, *self.GRID)
            basis = spectral.eig_generalized(
                mesh.cotangent_laplacian(pose), mesh.lumped_areas(pose), K, pose.content_hash()
            )
            bank = bank_for(basis)
            field = descriptors.weds(basis, bank, pose.vertices, n_dims=DIMS)
            spectral.save_basis(self.path(f"pose{i}.basis.npz"), basis)
            descriptors.save_descriptors(self.path(f"pose{i}.mwd"), field)
            # built here to time them; the measuring process rebuilds its own
            ops = model.build_wavelet_operators(basis, bank, keys)
            if i == 0:
                template, _ = model.forward(net, field.values, ops)
        model.save_checkpoint(self.path("model.npz"), net)
        descriptors.save_descriptors(
            self.path("template.mwd"), descriptors.DescriptorField(template, "learned")
        )

    def _held_out(self):
        """The set-up checkpoint, and the held-out pose's cached basis."""
        net, _, _, _ = model.load_checkpoint(self.path("model.npz"))
        basis = spectral.load_basis(self.path(f"pose{self.N_POSES - 1}.basis.npz"))
        return net, basis

    def reference(self):
        net, basis = self._held_out()
        x = read_mwd(self.path(f"pose{self.N_POSES - 1}.mwd"))
        out = dense_forward(net, basis, bank_for(basis), x)
        pred = nearest_rows(out, read_mwd(self.path("template.mwd")))
        np.save(self.path("reference_out.npy"), out)
        exact = float((pred == np.arange(len(pred))).mean())
        self.path("reference.json").write_text(json.dumps({"exact_rate": exact}))

    def open(self):
        _, _, train_seed = self._draws()
        self.ref = json.loads(self.path("reference.json").read_text())
        self.ref_out = np.load(self.path("reference_out.npy"))
        self.net, _, _, _ = model.load_checkpoint(self.path("model.npz"))
        keys = model.required_operator_keys(self.net)
        labels = np.arange(self.GRID[0] * self.GRID[1])
        self.shapes = []
        for i in range(self.N_POSES - 1):
            basis = spectral.load_basis(self.path(f"pose{i}.basis.npz"))
            ops = model.build_wavelet_operators(basis, bank_for(basis), keys)
            field = descriptors.load_descriptors(self.path(f"pose{i}.mwd"))
            self.shapes.append(training.ShapeData(field.values, labels, ops, f"pose{i}"))
        self.opt_state = training.adam_init(self.net.params)
        self.rng = np.random.default_rng(train_seed)
        self.rounds = 0

    def _train(self, shapes, phase1, phase2):
        config = training.TrainConfig(phase1_epochs=phase1, phase2_epochs=phase2)
        _, history = training.train(self.net, shapes, config,
                                    opt_state=self.opt_state, rng=self.rng)
        loss = history["phase1" if phase1 else "phase2"]
        check(len(loss) == 1 and np.isfinite(loss[0]), f"training loss {loss}")
        check(all(np.isfinite(p).all() for p in self.net.params.values()),
              "non-finite parameters after a training step")

    def op(self) -> dict:
        t0 = time.perf_counter()
        self._train([self.shapes[self.rounds % 2]], 1, 0)
        t1 = time.perf_counter()
        self._train(self.shapes, 0, 1)
        t2 = time.perf_counter()
        net, basis = self._held_out()
        ops = model.build_wavelet_operators(
            basis, bank_for(basis), model.required_operator_keys(net)
        )
        field = descriptors.load_descriptors(self.path(f"pose{self.N_POSES - 1}.mwd"))
        out, _ = model.forward(net, field.values, ops)
        template = descriptors.load_descriptors(self.path("template.mwd"))
        pred = evaluation.nn_match(out, template.values).indices
        exact = float((pred == np.arange(len(pred))).mean())
        t3 = time.perf_counter()
        self.rounds += 1
        check_field(out, self.ref_out.shape, "learned field")
        check_close(out, self.ref_out, "learned field")
        # one vertex may flip on a near-tie between rounding-level outputs
        check(abs(exact - self.ref["exact_rate"]) <= 1.5 / len(pred),
              f"infer: exact_rate {exact} vs reference {self.ref['exact_rate']}")
        # the phase-2 epoch holds two steps, one per ordered training pair
        return {"p1_step_s": t1 - t0, "p2_step_s": (t2 - t1) / 2,
                "infer_s": t3 - t2, "exact_rate": exact}


WORKLOADS = {w.name: w for w in (Describe, Correspond, Learn)}
