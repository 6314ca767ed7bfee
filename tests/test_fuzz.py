"""Property tests of the CLI's exit-code contract on mutated input files.

Each case writes a valid input with one mutation (a token replaced, a line
deleted, duplicated, swapped or inserted, the text truncated, or the
numbers scaled) and runs a command on it: ``meshwave basis`` on OFF and
OBJ meshes, ``meshwave eval`` on correspondence files.  Whatever the
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


def _obj_text(mesh):
    lines = ["# a bent bar", "o bar"]
    lines += ["v " + " ".join(f"{c:.17g}" for c in row) for row in mesh.vertices]
    lines += [f"f {a + 1} {b + 1}/{b + 1} {c + 1}//{c + 1}" for a, b, c in mesh.triangles]
    return lines


# a dense-branch mesh and one past the 512-vertex dense limit (Krylov branch)
_BARS = {"small": bent_bar(0.3, 6, 4), "large": bent_bar(0.3, 35, 20)}
_MESHES = {name: _off_text(bar) for name, bar in _BARS.items()}
_TOKENS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-1", "2.5", "x", "",
           "4294967296", "3 3", "1e200"]
_OBJ = _obj_text(_BARS["small"])
_OBJ_VERTICES = slice(2, 2 + _BARS["small"].n_vertices)
# beyond int64, and the keywords and index forms of OBJ files
_MORE_TOKENS = _TOKENS + [str(2**64), str(-2**64), "v", "f", "1/1/1", "#", "# target_mesh = 0"]
_MUTATIONS = ["token", "delete", "duplicate", "swap", "insert", "truncate", "scale"]


def _scaled(word, factor):
    try:
        return f"{float(word) * factor:.17g}"
    except ValueError:  # a keyword such as OBJ's "v"
        return word


def _mutate(lines, kind, i, j, token, factor, rows=None):
    """One mutation of the text lines; "scale" scales the numbers on the
    lines in `rows` (a slice; by default an OFF file's vertex lines)."""
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
        rows = rows or slice(2, 2 + int(lines[1].split()[0]))
        lines[rows] = [" ".join(_scaled(w, factor) for w in line.split()) for line in lines[rows]]
    return "\n".join(lines) + "\n"


def _check_contract(argv, root, outputs):
    """Run meshwave in the directory `root`: it exits 0, 2 or 3 with no
    traceback, and adds the files `outputs` on success and none otherwise."""
    inputs = set(root.iterdir())
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code in (0, 2, 3), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    assert set(root.iterdir()) == (inputs | outputs if code == 0 else inputs)


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
        _check_contract(["basis", path, "-k", "8", "-o", out], root, {out})


@settings(derandomize=True, max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(_MUTATIONS), i=st.integers(0, 10_000), j=st.integers(0, 100_000),
       token=st.sampled_from(_MORE_TOKENS),
       factor=st.sampled_from([1e-200, 1e-8, 1e8, 1e150, 1e200]))
@example(kind="token", i=40, j=3, token=str(2**64), factor=1.0)
def test_basis_on_mutated_obj_keeps_the_exit_contract(kind, i, j, token, factor):
    # the small bar only: the parser is under test, and the OFF cases
    # already reach the large bar's eigensolver branch
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path, out = root / "mesh.obj", root / "mesh.basis.npz"
        path.write_text(_mutate(_OBJ, kind, i, j, token, factor, rows=_OBJ_VERTICES))
        _check_contract(["basis", path, "-k", "8", "-o", out], root, {out})


_TARGET = _BARS["small"]
# the correspondence file `match` writes: comments, then one index per vertex
_MAP = ["# source = a.mwd", f"# target_mesh = {_TARGET.content_hash()}",
        *(str(v) for v in range(_TARGET.n_vertices - 1, -1, -1))]


@settings(derandomize=True, max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(which=st.sampled_from(["prediction", "truth"]), kind=st.sampled_from(_MUTATIONS),
       i=st.integers(0, 10_000), j=st.integers(0, 100_000),
       token=st.sampled_from(_MORE_TOKENS), factor=st.sampled_from([1e-8, 2.0, 1e8, 1e200]))
@example(which="prediction", kind="token", i=5, j=0, token=str(2**64), factor=1.0)
@example(which="truth", kind="token", i=7, j=0, token=str(-2**64), factor=1.0)
def test_eval_on_mutated_correspondence_keeps_the_exit_contract(which, kind, i, j, token,
                                                                factor):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        mesh, pred, truth = root / "target.off", root / "pred.txt", root / "truth.txt"
        mesh.write_text("\n".join(_off_text(_TARGET)) + "\n")
        for path in (pred, truth):
            path.write_text("\n".join(_MAP) + "\n")
        (pred if which == "prediction" else truth).write_text(
            _mutate(_MAP, kind, i, j, token, factor, rows=slice(2, len(_MAP))))
        _check_contract(["eval", pred, truth, mesh, "-o", root / "report"], root,
                        {root / "report.summary.txt", root / "report.curves.csv"})
