"""README's reproducibility contract across BLAS thread counts: bytes may
differ, results may not.  ``basis -k`` and then ``descriptor --basis`` run
at 1 and at 2 threads, each in its own process (a BLAS reads its thread
count once, when it loads), on icosphere(3) (642 vertices: the Krylov–Schur
branch, and a spectrum of multiplets) and on a 480-vertex bent bar (the
dense branch).  Measured at k = 100 on a 2-core host: the eigenvalues
agree within 10 and 6 eps·λmax, and WEDS within 50 eps·max|value| on the
sphere but 891 on the bar, where the dense solver's eigenvectors move by
up to 1.6e-12 (the smallest relative eigenvalue gap there is 1.1e-3).  The
bounds allow about 5 times each figure."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meshwave.descriptors import load_descriptors
from meshwave.meshio import write_ply
from meshwave.synthetic import bent_bar, icosphere

_SRC = Path(__file__).resolve().parents[1] / "src"
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_EPS = np.finfo(np.float64).eps
_EIG_ULPS = 64  # eigenvalues agree within 64·eps·λmax
# each mesh and the multiple of eps·max|value| its WEDS values agree within
_MESHES = {"icosphere3-krylov": (icosphere(3), 256), "bar480-dense": (bent_bar(0.5, 30, 16), 4096)}
# one process per thread count runs both commands on every mesh it is given
_SCRIPT = """
import sys
from meshwave.cli import main
for mesh in sys.argv[1:]:
    basis = mesh + ".basis.npz"
    for argv in (["basis", mesh, "-k", "100", "-o", basis],
                 ["descriptor", mesh, "--basis", basis, "-k", "100", "-o", mesh + ".mwd"]):
        if main(argv):
            sys.exit(1)
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per thread count, the directory its run wrote each mesh's files to."""
    dirs = {}
    for threads in (1, 2):
        root = dirs[threads] = tmp_path_factory.mktemp(f"threads{threads}")
        for name, (mesh, _) in _MESHES.items():
            write_ply(root / f"{name}.ply", mesh.vertices, mesh.triangles)
        path = os.pathsep.join([str(_SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
        env = {**os.environ, **dict.fromkeys(_THREAD_VARS, str(threads)), "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", _SCRIPT,
                              *(str(root / f"{name}.ply") for name in _MESHES)],
                             capture_output=True, text=True, env=env, timeout=120)
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
