"""Property tests of the CLI's exit-code contract on mutated mesh files.

Each case writes a valid OFF mesh with one mutation (a token replaced, a
line deleted, duplicated, swapped or inserted, the text truncated, or the
coordinates scaled) and runs ``meshwave basis`` on it.  Whatever the
mutation, the command exits 0, 2 (bad data) or 3 (numerical failure), says
nothing on stderr that looks like a traceback, and leaves no new file when
it fails.  Draws are derandomized, so the cases repeat from run to run.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from meshwave.cli import main
from meshwave.synthetic import bent_bar


def _off_text(mesh):
    lines = ["OFF", f"{mesh.n_vertices} {len(mesh.triangles)} 0"]
    lines += [" ".join(f"{c:.17g}" for c in row) for row in mesh.vertices]
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    return lines


# a dense-branch mesh and one past the 512-vertex dense limit (Krylov branch)
_MESHES = {"small": _off_text(bent_bar(0.3, 6, 4)), "large": _off_text(bent_bar(0.3, 35, 20))}
_TOKENS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-1", "2.5", "x", "",
           "4294967296", "3 3", "1e200"]
_MUTATIONS = ["token", "delete", "duplicate", "swap", "insert", "truncate", "scale"]


def _mutate(lines, kind, i, j, token, factor):
    lines = list(lines)
    i %= len(lines)
    if kind == "token":
        words = lines[i].split() or [""]
        words[j % len(words)] = token
        lines[i] = " ".join(words)
    elif kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j %= len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "insert":
        lines.insert(i, token)
    elif kind == "truncate":
        return "\n".join(lines)[: j % (sum(map(len, lines)) + 1)]
    elif kind == "scale":
        n_vertices = int(lines[1].split()[0])
        lines[2:2 + n_vertices] = [" ".join(f"{float(c) * factor:.17g}" for c in line.split())
                                   for line in lines[2:2 + n_vertices]]
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mesh=st.sampled_from(sorted(_MESHES)), kind=st.sampled_from(_MUTATIONS),
       i=st.integers(0, 10_000), j=st.integers(0, 100_000), token=st.sampled_from(_TOKENS),
       factor=st.sampled_from([1e-200, 1e-8, 1e8, 1e150, 1e200]))
@example(mesh="large", kind="token", i=5, j=0, token="2.5", factor=1.0)
@example(mesh="large", kind="scale", i=0, j=0, token="", factor=1e-8)
@example(mesh="large", kind="swap", i=3, j=800, token="", factor=1.0)
def test_basis_on_mutated_off_keeps_the_exit_contract(mesh, kind, i, j, token, factor):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path, out = root / "mesh.off", root / "mesh.basis.npz"
        path.write_text(_mutate(_MESHES[mesh], kind, i, j, token, factor))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["basis", str(path), "-k", "8", "-o", str(out)])
        assert code in (0, 2, 3), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        assert set(root.iterdir()) == ({path, out} if code == 0 else {path})
