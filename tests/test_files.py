import ast
import gc
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import meshwave
from meshwave import _files
from meshwave.cli import main
from meshwave.descriptors import DescriptorField, export_descriptors_csv, save_descriptors
from meshwave.errors import DataError
from meshwave.evaluation import write_correspondence
from meshwave.meshio import write_ply
from meshwave.model import build_model, save_checkpoint
from meshwave.spectral import load_basis, save_basis

import _shared


class _FailingFile:
    """A file whose first write stores half of its data and then fails."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


def _eval(tmp_path, indices):
    mesh = _shared.bar(0.3, nu=10, nv=6)
    mesh_path = tmp_path / "bar.ply"
    if not mesh_path.exists():  # the inputs are written once, before any failing write
        write_ply(mesh_path, mesh.vertices, mesh.triangles)
        write_correspondence(tmp_path / "gt.txt", np.arange(60))
    write_correspondence(tmp_path / "pred.txt", indices)
    assert main(["eval", str(tmp_path / "pred.txt"), str(tmp_path / "gt.txt"),
                 str(mesh_path), "-o", str(tmp_path / "report")]) == 0


_WRITERS = {
    "basis.npz": lambda p, i: save_basis(p, _shared.bar_basis(0.3, 8 + i)),
    "field.mwd": lambda p, i: save_descriptors(p, DescriptorField(np.full((4, 2), i), "weds")),
    "model.npz": lambda p, i: save_checkpoint(p, build_model("FC4", input_dim=3, seed=i)),
    "map.txt": lambda p, i: write_correspondence(p, np.arange(5) + i, comment="made by a test"),
    "report.summary.txt": lambda p, i: _eval(p.parent, np.roll(np.arange(60), i)),
    "mesh.ply": lambda p, i: write_ply(p, np.eye(3) * (1 + i), [[0, 1, 2]],
                                       colors=np.full((3, 3), 9 * i)),
    "field.csv": lambda p, i: export_descriptors_csv(p, DescriptorField(np.full((4, 2), i), "weds")),
}


@pytest.mark.parametrize("name", _WRITERS)
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, name):
    path = tmp_path / name
    _WRITERS[name](path, 0)
    before = sorted(tmp_path.iterdir())
    old = path.read_bytes()
    monkeypatch.setattr(_files, "open", lambda *a, **k: _FailingFile(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        _WRITERS[name](path, 1)
    assert path.read_bytes() == old
    assert sorted(tmp_path.iterdir()) == before  # no temp file left behind


def test_basis_is_written_to_the_exact_path(tmp_path):
    basis = _shared.bar_basis(0.3, 8)
    path = tmp_path / "bar.cache"
    save_basis(path, basis)
    assert [p.name for p in tmp_path.iterdir()] == ["bar.cache"]
    assert np.array_equal(load_basis(path).eigenvectors, basis.eigenvectors)


@pytest.mark.parametrize("cut", [0.2, 0.9])
def test_a_truncated_archive_leaves_no_file_open(tmp_path, cut):
    # np.load kept the file it opened when the zip directory was missing,
    # which warned as unclosed when collected
    path = tmp_path / "bad.npz"
    np.savez(path, x=np.arange(100.0))
    data = path.read_bytes()
    path.write_bytes(data[: int(cut * len(data))])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DataError, match="unreadable archive"):
            with _files.open_npz(path, "archive"):
                pass
        gc.collect()
    assert [w.message for w in caught if w.category is ResourceWarning] == []


# calls that open, read, write, create, replace or remove a file, by dotted
# name or, for Path methods, by attribute
_FS_CALLS = {"open", "np.load", "os.replace", "os.remove", "os.makedirs", "os.path.exists"}
_FS_METHODS = {"mkdir", "read_text", "read_bytes", "write_text", "write_bytes"}
# a missing atom statistics sidecar is a cache miss, not a fault
_ALLOWED = {("wavelets.py", "_load_stats", "os.path.exists")}


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _calls(node, scope=None):
    """(enclosing function, call node) for every call under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield scope, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _calls(child, inner)


def test_only_files_touches_the_file_system():
    found = []
    for path in sorted(Path(meshwave.__file__).parent.glob("*.py")):
        if path.name == "_files.py":
            continue
        for scope, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            name = _dotted(call.func)
            if name in _FS_CALLS or (isinstance(call.func, ast.Attribute)
                                     and call.func.attr in _FS_METHODS):
                if (path.name, scope, name) not in _ALLOWED:
                    found.append(f"{path.name}:{call.lineno} {scope}: {name}")
    assert found == []


def test_only_files_parses_numeric_text():
    # every number in an input's text goes through one parser, so the mesh
    # readers, the correspondence reader and the config cannot drift apart
    loadtxt, callers = [], set()
    for path in sorted(Path(meshwave.__file__).parent.glob("*.py")):
        for scope, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            name = _dotted(call.func)
            if name == "np.loadtxt":
                loadtxt.append(f"{path.name}:{call.lineno} {scope}")
            elif name == "numeric_rows":
                callers.add((path.name, scope))
    assert [entry.split(":")[0] for entry in loadtxt] == ["_files.py"]
    assert {("config.py", "_parse_value"), ("evaluation.py", "read_correspondence"),
            ("meshio.py", "read_off"), ("meshio.py", "read_obj"),
            ("meshio.py", "_parse_ply_header"), ("meshio.py", "_read_ply_faces"),
            ("meshio.py", "read_ply")} <= callers


# what a config value or a map line is made of, and what comes near a number
_NUMBER_TEXT = st.one_of(
    st.text(st.sampled_from("0123456789+-.eE_ \t٣１nafityNAFITY"), max_size=12),
    st.integers(-2**70, 2**70).map(str),
    st.floats().flatmap(lambda x: st.sampled_from(
        [repr(x), f"{x:.17g}", f"{x:.25g}", f"{x:.5e}"])),
)


@settings(derandomize=True, max_examples=2000, deadline=None, database=None)
@given(text=_NUMBER_TEXT, tag=st.sampled_from([int, float]))
@example(text="1_0", tag=int).via("int() reads it as 10")
@example(text="٣", tag=float).via("float() reads it as 3.0")
@example(text=str(2**63), tag=int).via("int64's first integer past the end")
@example(text=" -nan ", tag=float).via("NaN, with a sign and blanks")
@example(text="1e999", tag=float).via("a float past the largest double")
def test_numeric_rows_reads_a_number_as_the_old_rule_did(text, tag):
    try:
        expected = _shared.plain_number(text, tag)
    except ValueError:
        expected = None
    if tag is int and expected is not None and not -2**63 <= expected < 2**63:
        expected = None  # the one change: an integer past int64 is refused
    try:
        got = _files.numeric_rows("x.cfg:1", [text], None, tag, "value").item()
    except DataError:
        got = None
    assert (got is None) == (expected is None), (got, expected)
    if got is not None:
        assert type(got) is tag
        assert got == expected or (math.isnan(got) and math.isnan(expected))


def test_atomic_write_onto_a_directory_leaves_no_file(tmp_path):
    (tmp_path / "out").mkdir()
    with pytest.raises(DataError) as caught:
        with _files.atomic_write(tmp_path / "out", "w") as fh:
            fh.write("data")
    assert str(caught.value) == f"cannot write {tmp_path / 'out'}: Is a directory"
    assert [p.name for p in tmp_path.rglob("*")] == ["out"]  # no .tmp file


@pytest.mark.parametrize("below", ["model.npz", "sub/model.npz"])
def test_create_parents_under_a_file_raises_one_line(tmp_path, below):
    (tmp_path / "plain").write_text("a file, not a directory\n")
    with pytest.raises(DataError) as caught:
        _files.create_parents(tmp_path / "plain" / below)
    assert str(caught.value).startswith(f"cannot write {tmp_path / 'plain' / below}: ")
    assert "\n" not in str(caught.value)
    assert [p.name for p in tmp_path.rglob("*")] == ["plain"]


def test_only_spectral_makes_a_spectral_basis():
    # which pairs a basis holds is decided by eig_generalized and load_basis;
    # a caller that cuts or builds one itself can serve another k
    found = []
    for path in sorted(Path(meshwave.__file__).parent.glob("*.py")):
        if path.name == "spectral.py":
            continue
        for scope, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            name = (_dotted(call.func) or "").split(".")[-1]
            keywords = {kw.arg for kw in call.keywords}
            if name == "SpectralBasis" or (name == "replace"
                                           and keywords & {"eigenvalues", "eigenvectors"}):
                found.append(f"{path.name}:{call.lineno} {scope}: {name}")
    assert found == []


def _is_mesh_hash(node):
    """A `content_hash()` call, or a name or attribute ending in mesh_hash,
    source_hash or target_hash."""
    if isinstance(node, ast.Call):
        return (_dotted(node.func) or "").split(".")[-1] == "content_hash"
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return name.endswith(("mesh_hash", "source_hash", "target_hash"))


def _scoped(node, scope=None):
    """(enclosing function, node) for every node under `node`."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _scoped(child, inner)


def test_only_files_compares_mesh_hashes():
    # whether an artifact serves a mesh is decided by _files.check_mesh_hash
    # alone; a caller that compares hashes itself can decide differently
    found = []
    for path in sorted(Path(meshwave.__file__).parent.glob("*.py")):
        if path.name == "_files.py":
            continue
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(map(_is_mesh_hash,
                                                         [node.left, *node.comparators])):
                found.append(f"{path.name}:{node.lineno} {scope}")
    assert found == []


@pytest.mark.parametrize("mesh", [None, "", "0" * 64, _shared.bar(0.3)])
def test_an_empty_mesh_hash_is_no_claim_for_any_artifact(mesh):
    # "" passed the form check and was then refused as stale against every
    # mesh, though a basis cache saved for no mesh records it
    _files.check_mesh_hash("x", "", "descriptor file", mesh)
    _files.check_mesh_hash("x", "a" * 64, "descriptor file", "")  # the other side's ""
    with pytest.raises(DataError, match="x: stored mesh_hash is not 64 lowercase hex"):
        _files.check_mesh_hash("x", "A" * 64, "descriptor file", mesh)


@pytest.mark.parametrize("fault, reason", [("missing", "No such file or directory"),
                                           ("directory", "Is a directory")])
def test_an_archive_that_cannot_be_opened_reads_like_any_input(tmp_path, fault, reason):
    # it read "PATH: unreadable basis cache: [Errno 21] Is a directory: 'PATH'"
    path = tmp_path / "a.npz"
    if fault == "directory":
        path.mkdir()
    with pytest.raises(DataError) as info:
        with _files.open_npz(path, "basis cache"):
            pass
    assert str(info.value) == f"cannot read basis cache {path}: {reason}"
