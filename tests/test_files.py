import ast
import gc
import warnings
from pathlib import Path

import numpy as np
import pytest

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
