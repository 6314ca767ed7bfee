import numpy as np
import pytest

from meshwave import _files
from meshwave.cli import main
from meshwave.descriptors import DescriptorField, export_descriptors_csv, save_descriptors
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
