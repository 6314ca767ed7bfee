import dataclasses
import struct
import subprocess
import sys

import numpy as np
import pytest

from meshwave import __version__
from meshwave.cli import main
from meshwave.config import (
    default_config,
    format_config,
    load_config,
    parse_config,
    save_config,
)
from meshwave.descriptors import DescriptorField, load_descriptors, save_descriptors
from meshwave.errors import DataError, MeshwaveError, NumericalError, UsageError
from meshwave.evaluation import read_correspondence, write_correspondence
from meshwave.meshio import write_ply
from meshwave.model import load_checkpoint

import _shared


# ----------------------------------------------------------------- config


def test_default_config_values():
    cfg = default_config()
    assert cfg["descriptor"]["type"] == "weds"
    assert cfg["descriptor"]["k"] == 100
    assert cfg["bank"]["n_scales"] == 31
    assert cfg["train"]["meshes"] == []


def test_config_round_trip_is_lossless():
    cfg = default_config()
    cfg["pipeline"]["seed"] = 42
    cfg["train"]["lr_phase1"] = 1.0 / 3.0
    cfg["bank"]["span_fine"] = 0.1 + 0.2
    cfg["train"]["meshes"] = ["a.obj", "b.obj"]
    assert parse_config(format_config(cfg)) == cfg


def test_config_parse_basics():
    cfg = parse_config(
        """
# comment
[descriptor]
k = 33
type = hks

[train]
meshes = x.obj , y.obj
"""
    )
    assert cfg["descriptor"]["k"] == 33
    assert cfg["descriptor"]["type"] == "hks"
    assert cfg["train"]["meshes"] == ["x.obj", "y.obj"]
    # untouched keys keep their defaults
    assert cfg["descriptor"]["num"] == 128


def test_config_errors_carry_source_and_line():
    cases = [
        ("[bogus]", "unknown section"),
        ("[descriptor]\nwhat = 1", "unknown key"),
        ("k = 1", "outside any"),
        ("[descriptor]\nk 1", "expected 'key = value'"),
        ("[descriptor]\nk = abc", "cannot parse value"),
    ]
    for text, needle in cases:
        with pytest.raises(DataError, match=needle) as err:
            parse_config(text, source="pipe.cfg")
        assert "pipe.cfg:" in str(err.value)
    with pytest.raises(DataError, match="pipe.cfg:2"):
        parse_config("[descriptor]\nwhat = 1", source="pipe.cfg")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read config"):
        load_config(tmp_path / "nope.cfg")


def test_exit_code_mapping():
    assert UsageError("x").exit_code == 1
    assert DataError("x").exit_code == 2
    assert NumericalError("x").exit_code == 3
    assert issubclass(DataError, MeshwaveError)


# -------------------------------------------------------------------- cli


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A mesh on disk plus a cached basis and descriptor file."""
    root = tmp_path_factory.mktemp("cli")
    mesh = _shared.bar(0.3, nu=10, nv=6)
    mesh_path = root / "bar.ply"
    write_ply(mesh_path, mesh.vertices, mesh.triangles)
    basis_path = root / "bar.basis.npz"
    assert main(["basis", str(mesh_path), "-k", "12", "-o", str(basis_path)]) == 0
    desc_path = root / "bar.weds.mwd"
    assert main([
        "descriptor", str(mesh_path), "--type", "weds", "--num", "16",
        "-k", "12", "--basis", str(basis_path), "-o", str(desc_path),
    ]) == 0
    return {"root": root, "mesh": mesh, "mesh_path": mesh_path,
            "basis_path": basis_path, "desc_path": desc_path}


def test_version_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "meshwave.cli", "--version"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == __version__


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["basis"]) == 1  # missing mesh argument
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_basis_cache_hit(work, capsys):
    assert main(["basis", str(work["mesh_path"]), "-k", "12",
                 "-o", str(work["basis_path"])]) == 0
    assert "cache hit" in capsys.readouterr().out


def test_basis_cache_wrong_k(work, capsys):
    assert main(["basis", str(work["mesh_path"]), "-k", "9",
                 "-o", str(work["basis_path"])]) == 2
    assert "holds k=12" in capsys.readouterr().err


def test_basis_cache_stale_mesh(work, tmp_path, capsys):
    moved = work["mesh"].vertices.copy()
    moved[0, 2] += 0.05
    other = tmp_path / "moved.ply"
    write_ply(other, moved, work["mesh"].triangles)
    assert main(["basis", str(other), "-k", "12",
                 "-o", str(work["basis_path"])]) == 2
    assert "stale basis cache" in capsys.readouterr().err


def test_basis_force_rebuilds(work, tmp_path):
    out = tmp_path / "b.npz"
    args = ["basis", str(work["mesh_path"]), "-k", "8", "-o", str(out)]
    assert main(args) == 0
    assert main(args + ["--force"]) == 0


def test_basis_k_beyond_mesh(work, capsys):
    rc = main(["basis", str(work["mesh_path"]), "-k", "600",
               "-o", str(work["root"] / "huge.npz")])
    assert rc == 2
    assert "k" in capsys.readouterr().err


def test_descriptor_reruns_byte_identical(work, tmp_path):
    a, b = tmp_path / "a.mwd", tmp_path / "b.mwd"
    for out in (a, b):
        assert main([
            "descriptor", str(work["mesh_path"]), "--type", "weds",
            "--num", "16", "-k", "12", "--basis", str(work["basis_path"]),
            "-o", str(out),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()
    field = load_descriptors(a)
    assert field.values.shape == (60, 16)
    assert field.metadata["mesh_hash"] == work["mesh"].content_hash()


def test_descriptor_csv_and_wks(work, tmp_path):
    out = tmp_path / "w.mwd"
    csv = tmp_path / "w.csv"
    assert main([
        "descriptor", str(work["mesh_path"]), "--type", "wks", "--num", "32",
        "-k", "12", "--basis", str(work["basis_path"]),
        "-o", str(out), "--csv", str(csv),
    ]) == 0
    assert load_descriptors(out).n_dims == 32
    rows = csv.read_text().strip().splitlines()
    assert len(rows) == 61  # header + one row per vertex


def test_descriptor_basis_too_small(work, tmp_path, capsys):
    rc = main([
        "descriptor", str(work["mesh_path"]), "--type", "hks", "--num", "8",
        "-k", "40", "--basis", str(work["basis_path"]),
        "-o", str(tmp_path / "x.mwd"),
    ])
    assert rc == 2
    assert "k=12" in capsys.readouterr().err


def test_match_eval_flow(work, tmp_path, capsys):
    corr = tmp_path / "pred.txt"
    assert main(["match", str(work["desc_path"]), str(work["desc_path"]),
                 "-o", str(corr)]) == 0
    pred = read_correspondence(corr)
    assert np.array_equal(pred, np.arange(60))

    gt = tmp_path / "gt.txt"
    write_correspondence(gt, np.arange(60))
    prefix = tmp_path / "report"
    assert main([
        "eval", str(corr), str(gt), str(work["mesh_path"]),
        "--desc-a", str(work["desc_path"]), "--desc-b", str(work["desc_path"]),
        "-o", str(prefix),
    ]) == 0
    out = capsys.readouterr().out
    assert "age_direct = 0" in out
    summary = (tmp_path / "report.summary.txt").read_text()
    assert "exact_match_rate = 1" in summary
    curves = (tmp_path / "report.curves.csv").read_text()
    assert "cge,0,1" in curves
    assert "cmc,1,1" in curves


def test_match_rejects_header_beyond_file(work, tmp_path, capsys):
    huge = bytearray(work["desc_path"].read_bytes())
    huge[8:16] = struct.pack("<Q", 1 << 62)  # row count far beyond the file
    bad = tmp_path / "huge.mwd"
    bad.write_bytes(bytes(huge))
    rc = main(["match", str(bad), str(work["desc_path"]), "-o", str(tmp_path / "m.txt")])
    assert rc == 2
    assert "truncated descriptor data" in capsys.readouterr().err


def test_descriptor_rejects_inconsistent_basis(work, tmp_path, capsys):
    bad = tmp_path / "bad.npz"
    np.savez(bad, version=np.int64(1), eigenvalues=np.arange(3.0),
             eigenvectors=np.zeros((5, 2)), areas=np.ones(7),
             mesh_hash=np.bytes_(work["mesh"].content_hash().encode()))
    rc = main(["descriptor", str(work["mesh_path"]), "-k", "3", "--basis", str(bad),
               "-o", str(tmp_path / "d.mwd")])
    assert rc == 2
    assert "inconsistent basis cache" in capsys.readouterr().err
    assert not (tmp_path / "d.mwd").exists()


def test_eval_stale_correspondence(work, tmp_path, capsys):
    corr = tmp_path / "stale.txt"
    write_correspondence(gt_path := tmp_path / "g.txt", np.arange(60))
    write_correspondence(corr, np.arange(60),
                         comment="target_mesh = 0000deadbeef")
    rc = main(["eval", str(corr), str(gt_path), str(work["mesh_path"])])
    assert rc == 2
    assert "different mesh" in capsys.readouterr().err


def test_dissimilarity_colors(work, tmp_path):
    out = tmp_path / "d.ply"
    assert main(["dissimilarity", str(work["desc_path"]), str(work["mesh_path"]),
                 "--vertex", "5", "-o", str(out)]) == 0
    text = out.read_text().splitlines()
    assert "property uchar red" in text
    start = text.index("end_header") + 1
    fields = text[start + 5].split()
    # the reference vertex is at distance zero from itself: pure blue
    assert fields[3:6] == ["0", "0", "255"]
    reds = [int(text[start + i].split()[3]) for i in range(60)]
    # the farthest vertex saturates the red channel
    assert max(reds) == 255


def test_dissimilarity_constant_field(work, tmp_path):
    field = load_descriptors(work["desc_path"])
    flat = dataclasses.replace(field, values=np.ones_like(field.values))
    from meshwave.descriptors import save_descriptors

    fp = tmp_path / "flat.mwd"
    save_descriptors(fp, flat)
    out = tmp_path / "flat.ply"
    assert main(["dissimilarity", str(fp), str(work["mesh_path"]),
                 "--vertex", "0", "-o", str(out)]) == 0
    text = out.read_text().splitlines()
    start = text.index("end_header") + 1
    tints = {tuple(text[start + i].split()[3:6]) for i in range(60)}
    assert tints == {("0", "0", "255")}


def test_dissimilarity_vertex_range(work, tmp_path, capsys):
    rc = main(["dissimilarity", str(work["desc_path"]), str(work["mesh_path"]),
               "--vertex", "60", "-o", str(tmp_path / "x.ply")])
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


def test_dissimilarity_wrong_mesh(work, tmp_path, capsys):
    other = _shared.bar(0.0, nu=10, nv=6)
    op = tmp_path / "o.ply"
    write_ply(op, other.vertices, other.triangles)
    rc = main(["dissimilarity", str(work["desc_path"]), str(op),
               "--vertex", "0", "-o", str(tmp_path / "x.ply")])
    assert rc == 2
    assert "different mesh" in capsys.readouterr().err


def test_train_and_infer_end_to_end(work, tmp_path, capsys):
    cfg = default_config()
    cfg["pipeline"]["output_dir"] = str(tmp_path)
    cfg["descriptor"]["k"] = 12
    cfg["descriptor"]["num"] = 16
    cfg["model"]["architecture"] = "MGCONV8(3)+FC16"
    cfg["train"]["meshes"] = [str(work["mesh_path"])]
    cfg["train"]["phase1_epochs"] = 2
    cfg["train"]["phase2_epochs"] = 0
    cfg_path = tmp_path / "pipe.cfg"
    save_config(cfg, cfg_path)

    ckpt = tmp_path / "model.npz"
    assert main(["train", "--config", str(cfg_path), "-o", str(ckpt)]) == 0
    assert "phase1: 2 epochs" in capsys.readouterr().out
    net, opt_state, rng_state, meta = load_checkpoint(ckpt)
    assert net.head_dim == 60
    assert len(meta["history"]["phase1"]) == 2
    assert meta["mesh_hashes"] == [work["mesh"].content_hash()]
    assert opt_state["step"] > 0 and rng_state is not None

    learned = tmp_path / "learned.mwd"
    assert main([
        "infer", str(ckpt), str(work["mesh_path"]), str(work["desc_path"]),
        "--basis", str(work["basis_path"]), "-o", str(learned),
    ]) == 0
    field = load_descriptors(learned)
    assert field.values.shape == (60, 16)
    assert field.kind == "learned"
    assert field.metadata["input_type"] == "weds"
    assert np.isfinite(field.values).all()


def test_train_non_finite_exits_3_without_checkpoint(work, tmp_path, capsys,
                                                    monkeypatch):
    from meshwave import cli

    real = cli._descriptor_field

    def poisoned(*args, **kwargs):
        field = real(*args, **kwargs)
        values = field.values.copy()
        values[5, 2] = np.nan
        return dataclasses.replace(field, values=values)

    monkeypatch.setattr(cli, "_descriptor_field", poisoned)
    cfg = default_config()
    cfg["pipeline"]["output_dir"] = str(tmp_path)
    cfg["descriptor"]["k"] = 12
    cfg["descriptor"]["num"] = 16
    cfg["model"]["architecture"] = "MGCONV8(3)+FC16"
    cfg["train"]["meshes"] = [str(work["mesh_path"])]
    cfg["train"]["phase1_epochs"] = 2
    cfg["train"]["phase2_epochs"] = 0
    cfg_path = tmp_path / "nan.cfg"
    save_config(cfg, cfg_path)
    ckpt = tmp_path / "model.npz"
    assert main(["train", "--config", str(cfg_path), "-o", str(ckpt)]) == 3
    assert "not finite" in capsys.readouterr().err
    assert not ckpt.exists()


def test_infer_rejects_wrong_input_dim(work, tmp_path, capsys):
    cfg = default_config()
    cfg["pipeline"]["output_dir"] = str(tmp_path)
    cfg["descriptor"]["k"] = 12
    cfg["descriptor"]["num"] = 8
    cfg["model"]["architecture"] = "FC4"
    cfg["train"]["meshes"] = [str(work["mesh_path"])]
    cfg["train"]["phase1_epochs"] = 1
    cfg["train"]["phase2_epochs"] = 0
    cfg_path = tmp_path / "p.cfg"
    save_config(cfg, cfg_path)
    ckpt = tmp_path / "m.npz"
    assert main(["train", "--config", str(cfg_path), "-o", str(ckpt)]) == 0
    rc = main(["infer", str(ckpt), str(work["mesh_path"]),
               str(work["desc_path"]), "--basis", str(work["basis_path"])])
    assert rc == 2
    assert "does not match model input" in capsys.readouterr().err


def test_train_requires_meshes(tmp_path, capsys):
    cfg_path = tmp_path / "empty.cfg"
    save_config(default_config(), cfg_path)
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "meshes is empty" in capsys.readouterr().err


def test_match_and_eval_reject_non_finite_descriptors(work, tmp_path, capsys):
    bad = tmp_path / "nan.mwd"
    save_descriptors(bad, DescriptorField(np.full((60, 2), np.nan), "weds"))
    good = tmp_path / "good.mwd"
    save_descriptors(good, DescriptorField(np.ones((60, 2)), "weds"))
    out = tmp_path / "m.txt"
    assert main(["match", str(bad), str(good), "-o", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()
    gt = tmp_path / "gt.txt"
    write_correspondence(gt, np.arange(60))
    prefix = tmp_path / "report"
    assert main(["eval", str(gt), str(gt), str(work["mesh_path"]),
                 "--desc-a", str(good), "--desc-b", str(bad), "-o", str(prefix)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "report.summary.txt").exists()
