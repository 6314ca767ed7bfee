"""README's reproducibility contract across BLAS thread counts: bytes may
differ, results may not.  Each thread count runs in its own process (a BLAS
reads its thread count once, when it loads).

``basis -k`` and then ``descriptor --basis`` run at 1 and at 2 threads on
icosphere(3) (642 vertices: the Krylov–Schur branch, and a spectrum of
multiplets) and on a 480-vertex bent bar (the dense branch).  Measured at
k = 100 on a 2-core host: the eigenvalues agree within 10 and 6 eps·λmax,
and WEDS within 50 eps·max|value| on the sphere but 891 on the bar, where
the dense solver's eigenvectors move by up to 1.6e-12 (the smallest
relative eigenvalue gap there is 1.1e-3).

``match``, ``eval --desc-a --desc-b`` and ``infer --basis`` then read the
same input files at both thread counts: two poses of that bar, their bases
and WEDS files at k = 60, and a default network.  Exact cdist and Dijkstra
decide the map and the reports, so they are byte-identical.  ``infer``'s
output was byte-identical too; on bent_bar(0.5, 60, 29) at k = 100 it moved
8.4 eps·max|value|.  The bounds allow about 5 times each figure."""

import filecmp
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meshwave.cli import main
from meshwave.descriptors import load_descriptors
from meshwave.evaluation import write_correspondence
from meshwave.meshio import write_ply
from meshwave.model import build_model, save_checkpoint
from meshwave.synthetic import bent_bar, icosphere

_SRC = Path(__file__).resolve().parents[1] / "src"
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_EPS = np.finfo(np.float64).eps
_EIG_ULPS = 64  # eigenvalues agree within 64·eps·λmax
_INFER_ULPS = 42  # infer's output agrees within 42·eps·max|value|
# each mesh and the multiple of eps·max|value| its WEDS values agree within
_MESHES = {"icosphere3-krylov": (icosphere(3), 256), "bar480-dense": (bent_bar(0.5, 30, 16), 4096)}
# one process per thread count runs basis and descriptor on every mesh it is
# given, then match, eval and infer on the inputs in its working directory
_SCRIPT = """
import sys
from meshwave.cli import main
for mesh in sys.argv[1:]:
    basis = mesh + ".basis.npz"
    for argv in (["basis", mesh, "-k", "100", "-o", basis],
                 ["descriptor", mesh, "--basis", basis, "-k", "100", "-o", mesh + ".mwd"]):
        if main(argv):
            sys.exit(1)
for argv in (["match", "a.mwd", "b.mwd", "-o", "map.txt"],
             ["eval", "map.txt", "gt.txt", "b.ply", "--desc-a", "a.mwd", "--desc-b", "b.mwd",
              "-o", "report"],
             ["infer", "net.npz", "a.ply", "a.mwd", "--basis", "a.basis.npz", "-k", "60",
              "-o", "a.learned.mwd"]):
    if main(argv):
        sys.exit(1)
"""
# files match and eval write, which exact cdist and Dijkstra decide
_DECIDED = ("map.txt", "report.summary.txt", "report.curves.csv")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Two poses of a bar, their bases and WEDS files, the identity ground
    truth and a default network, made once in this process."""
    root = tmp_path_factory.mktemp("inputs")
    for name, curvature in (("a", 0.5), ("b", 0.2)):
        mesh = bent_bar(curvature, 30, 16)
        mesh_path, basis, desc = (str(root / f"{name}.{ext}")
                                  for ext in ("ply", "basis.npz", "mwd"))
        write_ply(mesh_path, mesh.vertices, mesh.triangles)
        assert main(["basis", mesh_path, "-k", "60", "-o", basis]) == 0
        assert main(["descriptor", mesh_path, "--basis", basis, "-k", "60", "-o", desc]) == 0
    write_correspondence(root / "gt.txt", np.arange(mesh.n_vertices))
    net = build_model(input_dim=load_descriptors(root / "a.mwd").n_dims)
    save_checkpoint(root / "net.npz", net)
    return root


@pytest.fixture(scope="module")
def runs(tmp_path_factory, inputs):
    """Per thread count, the directory its run wrote each mesh's files to,
    beside its own copy of the inputs."""
    dirs = {}
    for threads in (1, 2):
        root = dirs[threads] = tmp_path_factory.mktemp(f"threads{threads}")
        shutil.copytree(inputs, root, dirs_exist_ok=True)
        for name, (mesh, _) in _MESHES.items():
            write_ply(root / f"{name}.ply", mesh.vertices, mesh.triangles)
        path = os.pathsep.join([str(_SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
        env = {**os.environ, **dict.fromkeys(_THREAD_VARS, str(threads)), "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", _SCRIPT,
                              *(str(root / f"{name}.ply") for name in _MESHES)],
                             capture_output=True, text=True, env=env, timeout=120, cwd=root)
        assert run.returncode == 0, run.stderr
    return dirs


@pytest.mark.parametrize("name", sorted(_MESHES))
def test_one_and_two_blas_threads_agree_within_rounding(runs, name):
    results = []
    for root in runs.values():
        with np.load(root / f"{name}.ply.basis.npz") as data:
            results.append((data["eigenvalues"],
                            load_descriptors(root / f"{name}.ply.mwd").values))
    (vals1, weds1), (vals2, weds2) = results
    assert vals1.shape == vals2.shape == (100,) and weds1.shape == weds2.shape
    eig_err = np.abs(vals1 - vals2).max() / (_EPS * vals1.max())
    weds_err = np.abs(weds1 - weds2).max() / (_EPS * np.abs(weds1).max())
    assert eig_err <= _EIG_ULPS and weds_err <= _MESHES[name][1], (eig_err, weds_err)


def test_match_and_eval_write_the_same_bytes_at_one_and_two_blas_threads(runs):
    for name in _DECIDED:
        assert filecmp.cmp(runs[1] / name, runs[2] / name, shallow=False), name


def test_infer_agrees_within_rounding_at_one_and_two_blas_threads(runs):
    out1, out2 = (load_descriptors(root / "a.learned.mwd").values for root in runs.values())
    assert out1.shape == out2.shape
    err = np.abs(out1 - out2).max() / (_EPS * np.abs(out1).max())
    assert err <= _INFER_ULPS, err
