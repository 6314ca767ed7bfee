import dataclasses
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from meshwave import __version__, _files, cli, evaluation, wavelets
from meshwave.cli import main
from meshwave.config import (
    default_config,
    format_config,
    load_config,
    parse_config,
)
from meshwave.descriptors import DescriptorField, load_descriptors, save_descriptors, weds
from meshwave.errors import DataError, MeshwaveError, NumericalError, UsageError
from meshwave.evaluation import read_correspondence, write_correspondence
from meshwave.meshio import write_ply
from meshwave.filters import STOCK, bank_hash, build_filter_bank
from meshwave.model import build_model, load_checkpoint, required_operator_keys, save_checkpoint
from meshwave.spectral import load_basis, save_basis
from meshwave.synthetic import bent_bar

import _shared


# ----------------------------------------------------------------- config


def test_default_config_values():
    cfg = default_config()
    assert cfg["descriptor"]["type"] == "weds"
    assert cfg["descriptor"]["k"] == 100
    assert "bank" not in cfg  # the filter bank has no settings
    assert cfg["train"]["meshes"] == []


def test_config_round_trip_is_lossless():
    cfg = default_config()
    cfg["pipeline"]["seed"] = 42
    cfg["train"]["lr_phase1"] = 1.0 / 3.0
    cfg["train"]["margin"] = 0.1 + 0.2
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


def test_bank_section_exits_2(work, tmp_path, capsys):
    # the filter bank has no settings, so [bank] is an unknown section
    cfg = tmp_path / "bank.cfg"
    cfg.write_text("[bank]\nn_scales = 31\n")
    out = tmp_path / "d.mwd"
    assert main(["descriptor", str(work["mesh_path"]), "--num", "16", "-k", "12",
                 "--config", str(cfg), "-o", str(out)]) == 2
    assert "unknown section [bank]" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("argv", [
    ["basis", "m.off"], ["descriptor", "m.off"], ["match", "a.mwd", "b.mwd", "-o", "c.txt"],
    ["eval", "c.txt", "gt.txt", "m.off"], ["infer", "model.npz", "m.off", "d.mwd"],
    ["dissimilarity", "d.mwd", "m.off", "--vertex", "0"],
], ids=lambda argv: argv[0])
def test_seed_is_a_usage_error_outside_train(tmp_path, monkeypatch, capsys, argv):
    # only train draws random numbers; elsewhere --seed used to be ignored
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--seed", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: meshwave ") and "Traceback" not in err
    assert err.splitlines()[-1] == "error: unrecognized arguments: --seed 5"
    assert err.count("error:") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["match", "a.mwd", "b.mwd", "-o", "c.txt"], ["eval", "c.txt", "gt.txt", "m.off"],
    ["dissimilarity", "d.mwd", "m.off", "--vertex", "0"],
], ids=lambda argv: argv[0])
def test_config_is_a_usage_error_where_no_command_reads_it(tmp_path, monkeypatch, capsys,
                                                           argv):
    # these commands parsed and checked a config they never read, so a
    # broken one exited 2 for a file the command does not need
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.cfg").write_bytes(b"[nope]\n")
    assert main([*argv, "--config", "x.cfg"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error: unrecognized arguments: --config x.cfg"
    assert err.count("error:") == 1 and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["x.cfg"]


_BAR_OFF = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"


@pytest.mark.parametrize("name, data", [
    ("m.off", None), ("m.obj", None), ("m.ply", None),
    ("m.off", b"# caf\xff\n" + _BAR_OFF.encode()),
    ("m.obj", b"# caf\xff\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"),
], ids=["off-directory", "obj-directory", "ply-directory", "off-0xff", "obj-0xff"])
def test_basis_on_an_unreadable_mesh_exits_2_with_one_line(tmp_path, capsys, name, data):
    # a directory ended in IsADirectoryError and a byte that is not UTF-8
    # in UnicodeDecodeError, each a traceback with exit 1
    path = tmp_path / name
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    before = _tree(tmp_path)
    assert main(["basis", str(path), "-k", "2"]) == 2
    assert _one_line_error(capsys, f"cannot read mesh {path}")
    assert _tree(tmp_path) == before


def test_basis_config_with_a_byte_that_is_not_utf8_exits_2_with_one_line(tmp_path, capsys):
    mesh, cfg = tmp_path / "m.off", tmp_path / "x.cfg"
    mesh.write_text(_BAR_OFF)
    cfg.write_bytes(b"# caf\xff\n[descriptor]\nk = 2\n")
    before = _tree(tmp_path)
    assert main(["basis", str(mesh), "--config", str(cfg)]) == 2
    assert _one_line_error(capsys, f"cannot read config {cfg}: 'utf-8' codec can't decode")
    assert _tree(tmp_path) == before


def test_basis_cache_hit(work, capsys):
    assert main(["basis", str(work["mesh_path"]), "-k", "12",
                 "-o", str(work["basis_path"])]) == 0
    assert "cache hit" in capsys.readouterr().out


def test_basis_cache_wrong_k(work, capsys):
    assert main(["basis", str(work["mesh_path"]), "-k", "13",
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


@pytest.mark.parametrize("fault, needle", [("k", "holds k=12, requested 13"),
                                           ("stale", "stale basis cache"),
                                           ("truncated", "unreadable basis cache")],
                         ids=["k", "stale", "truncated"])
def test_basis_refuses_a_cache_it_cannot_use_in_one_line(work, tmp_path, capsys, fault,
                                                          needle):
    # a stale or unreadable cache named its path two or three times
    out = tmp_path / "b.npz"
    out.write_bytes(work["basis_path"].read_bytes())
    mesh = work["mesh_path"]
    if fault == "stale":
        moved = work["mesh"].vertices.copy()
        moved[0, 2] += 0.05
        mesh = tmp_path / "moved.ply"
        write_ply(mesh, moved, work["mesh"].triangles)
    elif fault == "truncated":
        out.write_bytes(out.read_bytes()[:100])
    before = _tree(tmp_path)
    assert main(["basis", str(mesh), "-k", "13" if fault == "k" else "12", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err and err.count(str(out)) == 1
    assert err.count("remove it or pass --force") == 1
    assert _tree(tmp_path) == before


@pytest.fixture(scope="module")
def cache30(tmp_path_factory):
    """bent_bar(0.3, 20, 8) (160 vertices) on disk with a 30-pair basis
    cache, a WEDS-16 field and a wavelet network that reads a basis."""
    root = tmp_path_factory.mktemp("cache30")
    mesh = bent_bar(0.3, 20, 8)
    write_ply(root / "bar.ply", mesh.vertices, mesh.triangles)
    assert main(["basis", str(root / "bar.ply"), "-k", "30", "-o", str(root / "b.npz")]) == 0
    assert main(["descriptor", str(root / "bar.ply"), "--num", "16", "-k", "20",
                 "-o", str(root / "field.mwd")]) == 0
    save_checkpoint(root / "net.npz", build_model("MGCONV8(3)+FC16", input_dim=16, seed=3))
    return root


# descriptor and infer at k pairs, from the cache `basis` if one is given
_K_COMMANDS = {
    "descriptor": lambda root, k, out: ["descriptor", root / "bar.ply", "--num", "16",
                                        "-k", k, "-o", out],
    "infer": lambda root, k, out: ["infer", root / "net.npz", root / "bar.ply",
                                   root / "field.mwd", "-k", k, "-o", out],
}


@pytest.mark.parametrize("k", [0, -5, 31])
@pytest.mark.parametrize("command", sorted(_K_COMMANDS))
def test_a_basis_cache_serves_no_k_outside_1_to_its_pairs(cache30, monkeypatch, capsys,
                                                          command, k):
    # -k 0 ended in an IndexError traceback, and -k -5 wrote a field of 25 pairs
    monkeypatch.setattr(cli, "eig_generalized", lambda *a, **kw: pytest.fail("eigensolve"))
    argv = _K_COMMANDS[command](cache30, k, cache30 / "out.mwd") + ["--basis", cache30 / "b.npz"]
    before = _tree(cache30)
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"holds k=30, requested {k}" in err and "Traceback" not in err
    assert _tree(cache30) == before


@pytest.mark.parametrize("k, code", [(0, 2), (31, 2), (20, 0)])
def test_basis_takes_a_cache_for_every_k_it_serves(cache30, capsys, k, code):
    # a 30-pair cache exited 2 for -k 20, which descriptor --basis accepted
    cache = cache30 / "b.npz"
    data = cache.read_bytes()
    assert main(["basis", str(cache30 / "bar.ply"), "-k", str(k), "-o", str(cache)]) == code
    out, err = capsys.readouterr()
    assert ("cache hit" in out) == (code == 0)
    assert code == 0 or f"holds k=30, requested {k}" in err
    assert cache.read_bytes() == data


@pytest.mark.parametrize("k", [0, 500, 31])
def test_basis_advises_force_only_for_a_k_the_mesh_can_serve(cache30, tmp_path, capsys, k):
    # -k 0 and -k 500 on the 160-vertex bar advised --force, and with it
    # exited 2 with "k=0 out of range for 160 vertices"
    cache = tmp_path / "b.npz"
    cache.write_bytes((cache30 / "b.npz").read_bytes())
    argv = ["basis", str(cache30 / "bar.ply"), "-k", str(k), "-o", str(cache)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"holds k=30, requested {k}" in err, err
    assert ("remove it or pass --force" in err) == (k == 31), err
    if k != 31:
        assert main(argv + ["--force"]) == 2
        assert f"k={k} out of range for 160 vertices" in capsys.readouterr().err
    assert cache.read_bytes() == (cache30 / "b.npz").read_bytes()


@pytest.mark.parametrize("command", sorted(_K_COMMANDS))
def test_a_cut_cache_gives_the_bytes_of_a_fresh_solve(cache30, tmp_path, command):
    # both solves take the dense branch at 160 vertices, where the first 20
    # pairs do not depend on how many are kept
    (tmp_path / "b.npz").write_bytes((cache30 / "b.npz").read_bytes())
    cut = _K_COMMANDS[command](cache30, 20, tmp_path / "cut.mwd") + ["--basis", tmp_path / "b.npz"]
    fresh = _K_COMMANDS[command](cache30, 20, tmp_path / "fresh.mwd")
    assert main([str(a) for a in cut]) == 0 and main([str(a) for a in fresh]) == 0
    assert (tmp_path / "cut.mwd").read_bytes() == (tmp_path / "fresh.mwd").read_bytes()


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


def test_wks_with_underflowing_bands_exits_3_and_writes_nothing(tmp_path, capsys):
    mesh = bent_bar(0.3, 12, 6)  # 72 vertices
    path = tmp_path / "bar.ply"
    write_ply(path, mesh.vertices, mesh.triangles)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["descriptor", str(path), "--type", "wks", "--num", "2000", "-k", "20",
                     "-o", str(tmp_path / "w.mwd")]) == 3
    err = capsys.readouterr().err
    assert "underflow" in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["bar.ply"]


@pytest.mark.parametrize("source", ["--num", "config"])
@pytest.mark.parametrize("kind, num", [("hks", -3), ("hks", 0), ("wks", 0), ("wks", -3)])
def test_descriptor_count_below_one_exits_2(work, tmp_path, capsys, source, kind, num):
    if source == "config":
        cfg = tmp_path / "d.cfg"
        cfg.write_text(f"[descriptor]\nnum = {num}\n")
        count = ["--config", str(cfg)]
    else:
        count = ["--num", str(num)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["descriptor", str(work["mesh_path"]), "--type", kind, "-k", "12",
                     "--basis", str(work["basis_path"]), "-o", str(tmp_path / "d.mwd"),
                     *count]) == 2
    err = capsys.readouterr().err
    assert "must be positive" in err and err.count("\n") == 1
    assert not (tmp_path / "d.mwd").exists()


@pytest.mark.parametrize("csv", ["nodir/x.csv", "plain/x.csv"], ids=["missing", "under a file"])
def test_descriptor_csv_destination_is_checked_before_the_mwd(work, tmp_path, capsys, csv):
    (tmp_path / "plain").write_text("")
    assert main(["descriptor", str(work["mesh_path"]), "--type", "hks", "--num", "8",
                 "-k", "12", "--basis", str(work["basis_path"]),
                 "-o", str(tmp_path / "a.mwd"), "--csv", str(tmp_path / csv)]) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["plain"]


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


def test_match_and_rank_curve_across_chunks_equal_cdist(tmp_path):
    rng = np.random.default_rng(7)
    mesh = bent_bar(0.4, 40, 25)
    n = mesh.n_vertices
    assert n > 2 * (evaluation._CHUNK_ENTRIES // n)  # three chunks or more
    mesh_path = tmp_path / "bar.ply"
    write_ply(mesh_path, mesh.vertices, mesh.triangles)
    desc_b = np.round(rng.standard_normal((n, 6)), 1)
    desc_a = np.round(desc_b + 0.2 * rng.standard_normal((n, 6)), 1)  # many exact ties
    paths = {}
    for tag, values in (("a", desc_a), ("b", desc_b)):
        paths[tag] = tmp_path / f"{tag}.mwd"
        save_descriptors(paths[tag], DescriptorField(values, "weds"))
    corr = tmp_path / "pred.txt"
    assert main(["match", str(paths["a"]), str(paths["b"]), "-o", str(corr)]) == 0
    assert np.array_equal(read_correspondence(corr), _shared.cdist_match(desc_a, desc_b))
    gt = tmp_path / "gt.txt"
    write_correspondence(gt, np.arange(n))
    prefix = tmp_path / "report"
    assert main(["eval", str(corr), str(gt), str(mesh_path), "--desc-a", str(paths["a"]),
                 "--desc-b", str(paths["b"]), "-o", str(prefix)]) == 0
    ranks = _shared.cdist_ranks(desc_a, desc_b, np.arange(n))
    ks = np.arange(1, 101)
    expect = [f"cmc,{k},{f:.17g}" for k, f in zip(ks, (ranks <= ks[:, None]).mean(axis=1))]
    curves = (tmp_path / "report.curves.csv").read_text().splitlines()
    assert [ln for ln in curves if ln.startswith("cmc,")] == expect
    assert 0.0 < (ranks == 1).mean() < 1.0


def test_eval_prefix_keeps_its_dotted_parts(work, tmp_path):
    gt = tmp_path / "gt.txt"
    write_correspondence(gt, np.arange(60))
    shifted = tmp_path / "shifted.txt"
    write_correspondence(shifted, np.roll(np.arange(60), 1))
    for corr, tag in ((gt, "parent"), (shifted, "change")):
        assert main(["eval", str(corr), str(gt), str(work["mesh_path"]),
                     "-o", str(tmp_path / f"1.{tag}")]) == 0
    assert sorted(p.name for p in tmp_path.glob("1.*")) == [
        "1.change.curves.csv", "1.change.summary.txt",
        "1.parent.curves.csv", "1.parent.summary.txt",
    ]
    assert "exact_match_rate = 1\n" in (tmp_path / "1.parent.summary.txt").read_text()
    assert "exact_match_rate = 0\n" in (tmp_path / "1.change.summary.txt").read_text()


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


@pytest.mark.parametrize("suffix", ["\ntarget_mesh = 0", "\n", " "])
def test_descriptor_refuses_a_basis_cache_whose_mesh_hash_is_not_hex(work, tmp_path, capsys,
                                                                     suffix):
    basis = load_basis(work["basis_path"])
    bad = tmp_path / "bad.npz"
    save_basis(bad, dataclasses.replace(basis, mesh_hash=basis.mesh_hash + suffix))
    assert main(["descriptor", str(work["mesh_path"]), "-k", "12", "--basis", str(bad),
                 "-o", str(tmp_path / "d.mwd")]) == 2
    assert _one_line_error(capsys, "mesh_hash is not 64 lowercase hex digits")
    assert [p.name for p in tmp_path.iterdir()] == ["bad.npz"]


@pytest.mark.parametrize("kind", ["weds", "hks", "wks"])
def test_basis_with_a_second_zero_eigenvalue_exits_2(work, tmp_path, capsys, kind):
    # the eigensolver never writes one; hks/wks would take log(0) on it
    basis = load_basis(work["basis_path"])
    vals = basis.eigenvalues.copy()
    vals[1] = 0.0
    bad = tmp_path / "two-zeros.npz"
    save_basis(bad, dataclasses.replace(basis, eigenvalues=vals))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["descriptor", str(work["mesh_path"]), "--type", kind, "--num", "16",
                     "-k", "12", "--basis", str(bad), "-o", str(tmp_path / "d.mwd")]) == 2
    err = capsys.readouterr().err
    assert "inconsistent basis cache" in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["two-zeros.npz"]


def test_eval_stale_correspondence(work, tmp_path, capsys):
    corr = tmp_path / "stale.txt"
    write_correspondence(gt_path := tmp_path / "g.txt", np.arange(60))
    other = _shared.bar(0.0, nu=10, nv=6)  # another pose, the same vertex count
    write_correspondence(corr, np.arange(60), comment=f"target_mesh = {other.content_hash()}")
    rc = main(["eval", str(corr), str(gt_path), str(work["mesh_path"])])
    assert rc == 2
    assert "different mesh" in capsys.readouterr().err


def test_descriptor_rejects_non_orthonormal_basis(work, tmp_path, capsys):
    basis = load_basis(work["basis_path"])
    bad = tmp_path / "scaled.npz"
    save_basis(bad, dataclasses.replace(basis, eigenvectors=basis.eigenvectors * 1.001))
    out = tmp_path / "d.mwd"
    assert main(["descriptor", str(work["mesh_path"]), "-k", "12", "--basis", str(bad),
                 "-o", str(out)]) == 2
    assert "not A-orthonormal" in capsys.readouterr().err
    assert not out.exists()


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


def _dissimilarity_ply(mesh, values, v, path):
    """The PLY `dissimilarity` wrote before it scaled the values: colours
    from the distances of the values as they are."""
    dist = np.linalg.norm(values - values[v][None, :], axis=1)
    t = dist / dist.max()
    colors = np.zeros((mesh.n_vertices, 3), dtype=np.uint8)
    colors[:, 0] = np.rint(255.0 * t).astype(np.uint8)
    colors[:, 2] = np.rint(255.0 * (1.0 - t)).astype(np.uint8)
    write_ply(path, mesh.vertices, mesh.triangles, colors=colors,
              comment=f"descriptor dissimilarity to vertex {v}")
    return path.read_bytes()


@pytest.mark.parametrize("scale", [1.0, 1e200], ids=["ordinary", "huge"])
def test_dissimilarity_of_large_finite_values(work, tmp_path, scale):
    # entries of +-1e200 overflowed the distances: three RuntimeWarnings and
    # NaN cast into the colours; an ordinary field keeps its bytes
    field = load_descriptors(work["desc_path"])
    values = field.values if scale == 1.0 else np.where(field.values > 0.5, 1.0, -1.0)
    fp, out = tmp_path / "field.mwd", tmp_path / "d.ply"
    save_descriptors(fp, dataclasses.replace(field, values=scale * values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["dissimilarity", str(fp), str(work["mesh_path"]), "--vertex", "5",
                     "-o", str(out)]) == 0
    assert out.read_bytes() == _dissimilarity_ply(work["mesh"], values, 5, tmp_path / "e.ply")


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


@pytest.fixture(scope="module")
def poses(work, tmp_path_factory):
    """Two more poses of the module's bar, B and C, with its 60 vertices:
    each one's mesh, basis cache and WEDS field, and the map `match` writes
    from the module's field onto B's."""
    root = tmp_path_factory.mktemp("poses")
    files = {}
    for name, curvature in (("b", 0.0), ("c", 0.6)):
        mesh = _shared.bar(curvature, nu=10, nv=6)
        paths = [root / f"{name}{ext}" for ext in (".ply", ".basis.npz", ".mwd")]
        files.update(zip((name, f"{name}_basis", f"{name}_desc"), paths))
        write_ply(paths[0], mesh.vertices, mesh.triangles)
        assert main(["basis", str(paths[0]), "-k", "12", "-o", str(paths[1])]) == 0
        assert main(["descriptor", str(paths[0]), "--type", "weds", "--num", "16", "-k", "12",
                     "--basis", str(paths[1]), "-o", str(paths[2])]) == 0
    files["map"] = root / "a_to_b.txt"
    assert main(["match", str(work["desc_path"]), str(files["b_desc"]),
                 "-o", str(files["map"])]) == 0
    return files


# each reads an artifact of another pose than the mesh it is used with:
# (argv, the artifact) from the module's files, the poses and tmp_path
_FOREIGN = {
    "basis cache hit": lambda w, p, t: (["basis", w["mesh_path"], "-k", "12", "-o", t / "b.npz"],
                                        t / "b.npz"),
    "descriptor --basis": lambda w, p, t: (["descriptor", w["mesh_path"], "-k", "12",
                                            "--basis", p["b_basis"], "-o", t / "d.mwd"],
                                           p["b_basis"]),
    "infer --basis": lambda w, p, t: (["infer", t / "net.npz", w["mesh_path"], w["desc_path"],
                                       "-k", "12", "--basis", p["b_basis"], "-o", t / "o.mwd"],
                                      p["b_basis"]),
    "infer": lambda w, p, t: (["infer", t / "net.npz", w["mesh_path"], p["b_desc"],
                               "-o", t / "o.mwd"], p["b_desc"]),
    "dissimilarity": lambda w, p, t: (["dissimilarity", p["b_desc"], w["mesh_path"],
                                       "--vertex", "0", "-o", t / "x.ply"], p["b_desc"]),
    "eval map": lambda w, p, t: (["eval", p["map"], t / "gt.txt", w["mesh_path"],
                                  "-o", t / "r"], p["map"]),
    "eval --desc-b": lambda w, p, t: (["eval", p["map"], t / "gt.txt", p["b"], "--desc-a",
                                       w["desc_path"], "--desc-b", p["c_desc"], "-o", t / "r"],
                                      p["c_desc"]),
    "eval swapped": lambda w, p, t: (["eval", p["map"], t / "gt.txt", p["b"], "--desc-a",
                                      p["b_desc"], "--desc-b", w["desc_path"], "-o", t / "r"],
                                     w["desc_path"]),
    "eval --desc-a": lambda w, p, t: (["eval", p["map"], t / "gt.txt", p["b"], "--desc-a",
                                       p["c_desc"], "--desc-b", p["b_desc"], "-o", t / "r"],
                                      p["c_desc"]),
    "eval --desc-a of the target": lambda w, p, t: (["eval", p["map"], t / "gt.txt", p["b"],
                                                     "--desc-a", p["b_desc"], "--desc-b",
                                                     p["b_desc"], "-o", t / "r"], p["b_desc"]),
}


@pytest.mark.parametrize("case", _FOREIGN)
def test_an_artifact_of_another_pose_exits_2_naming_it(work, poses, tmp_path, capsys, case):
    # eval took --desc-b from any mesh, and with the two fields swapped;
    # it took --desc-a from any mesh but the map's source
    (tmp_path / "b.npz").write_bytes(poses["b_basis"].read_bytes())
    write_correspondence(tmp_path / "gt.txt", np.arange(60))
    save_checkpoint(tmp_path / "net.npz", build_model("MGCONV8(3)+FC16", input_dim=16, seed=3))
    argv, artifact = _FOREIGN[case](work, poses, tmp_path)
    before = _tree(tmp_path, work["root"], poses["b"].parent)
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{artifact}: stale " in err and "computed for a different mesh" in err, err
    assert _tree(tmp_path, work["root"], poses["b"].parent) == before


@pytest.mark.parametrize("side", ["map", "field"])
def test_eval_desc_a_with_no_recorded_hash_is_read_as_before(work, poses, tmp_path, side):
    # a map without a source_mesh comment, or a field without a mesh_hash,
    # makes no claim: a third pose's field still gives a rank curve
    write_correspondence(tmp_path / "gt.txt", np.arange(60))
    corr, desc_a = poses["map"], poses["c_desc"]
    if side == "map":
        corr = tmp_path / "map.txt"
        corr.write_text("".join(line for line in poses["map"].read_text().splitlines(True)
                                if not line.startswith("# source_mesh")))
    else:
        field = load_descriptors(desc_a)
        del field.metadata["mesh_hash"]
        desc_a = tmp_path / "c.mwd"
        save_descriptors(desc_a, field)
    assert main(["eval", str(corr), str(tmp_path / "gt.txt"), str(poses["b"]), "--desc-a",
                 str(desc_a), "--desc-b", str(poses["b_desc"]), "-o", str(tmp_path / "r")]) == 0
    assert "\ncmc,1," in (tmp_path / "r.curves.csv").read_text()


def test_cli_learning_holds_across_discretizations(tmp_path, monkeypatch):
    # MGCN's claim of robustness to the triangulation, through the commands:
    # train on 220- and 448-vertex poses labelled by the template's nearest
    # (u, v), then map the 448-vertex pose onto a held-out 720-vertex one
    monkeypatch.chdir(tmp_path)
    grids = {"a": (0.3, 22, 10), "b": (0.6, 32, 14), "c": (0.45, 40, 18)}
    for name, (curvature, nu, nv) in grids.items():
        mesh = bent_bar(curvature, nu, nv)
        write_ply(f"{name}.ply", mesh.vertices, mesh.triangles)
    write_correspondence("a.txt", np.arange(220))
    write_correspondence("b.txt", _shared.uv_correspondence((32, 14), (22, 10)))
    write_correspondence("gt.txt", _shared.uv_correspondence((32, 14), (40, 18)))
    cfg = default_config()
    cfg["descriptor"]["k"] = 60
    cfg["train"].update(meshes=["a.ply", "b.ply"], correspondences=["a.txt", "b.txt"],
                        phase1_epochs=30, phase2_epochs=10, pairs_per_step=64)
    Path("train.cfg").write_text(format_config(cfg))
    runs = [["train", "--config", "train.cfg", "-o", "model.npz"]]
    for name in "bc":
        runs += [["descriptor", f"{name}.ply", "-k", "60", "-o", f"{name}.mwd"],
                 ["infer", "model.npz", f"{name}.ply", f"{name}.mwd", "-o", f"{name}.net.mwd"]]
    for field in ("", ".net"):  # raw WEDS, then the network's field
        runs += [["match", f"b{field}.mwd", f"c{field}.mwd", "-o", f"map{field}.txt"],
                 ["eval", f"map{field}.txt", "gt.txt", "c.ply", "--desc-a", f"b{field}.mwd",
                  "--desc-b", f"c{field}.mwd", "-o", f"report{field}"]]
    for argv in runs:
        assert main(argv) == 0, argv
    age = {}
    for field in ("", ".net"):
        summary = Path(f"report{field}.summary.txt").read_text()
        age[field] = float(summary.split("age_direct = ")[1].split()[0])
    # seed 0 gave AGE 0.399 raw and 0.114 learned: at least halved
    assert age[".net"] <= 0.5 * age[""], age


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
    cfg_path.write_text(format_config(cfg))

    ckpt = tmp_path / "model.npz"
    assert main(["train", "--config", str(cfg_path), "-o", str(ckpt)]) == 0
    assert "phase1: 2 epochs" in capsys.readouterr().out
    net, opt_state, rng_state, meta = load_checkpoint(ckpt)
    assert net.head_dim == 60
    assert len(meta["history"]["phase1"]) == 2
    assert meta["mesh_hashes"] == [work["mesh"].content_hash()]
    assert opt_state is None and rng_state is None
    with np.load(ckpt) as data:  # the network alone, no training state
        assert sorted(data.files) == sorted(["__meta__", *(f"param/{k}" for k in net.params)])
        assert "rng_state" not in json.loads(bytes(data["__meta__"]).decode())

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
    cfg_path.write_text(format_config(cfg))
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
    cfg_path.write_text(format_config(cfg))
    ckpt = tmp_path / "m.npz"
    assert main(["train", "--config", str(cfg_path), "-o", str(ckpt)]) == 0
    rc = main(["infer", str(ckpt), str(work["mesh_path"]),
               str(work["desc_path"]), "--basis", str(work["basis_path"])])
    assert rc == 2
    assert "does not match model input" in capsys.readouterr().err


def test_train_output_under_a_file_exits_2_before_training(work, tmp_path, capsys,
                                                          monkeypatch):
    def no_meshes(*args, **kwargs):
        raise AssertionError("training meshes were loaded")

    monkeypatch.setattr(cli, "load_mesh", no_meshes)
    cfg = default_config()
    cfg["train"]["meshes"] = [str(work["mesh_path"])]
    cfg_path = tmp_path / "p.cfg"
    cfg_path.write_text(format_config(cfg))
    (tmp_path / "plain").write_text("a file, not a directory\n")
    before = _tree(tmp_path)
    for out in ("plain/model.npz", "plain/sub/model.npz"):
        assert main(["train", "--config", str(cfg_path), "-o", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert _tree(tmp_path) == before


def test_train_reads_every_correspondence_before_any_eigensolve(work, tmp_path, capsys,
                                                               monkeypatch):
    solves = []

    def counting(*args, **kwargs):
        solves.append(args[2])
        raise AssertionError("the eigensolver ran")

    monkeypatch.setattr(cli, "eig_generalized", counting)
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    write_correspondence(good, np.arange(60))
    bad.write_text("0\n1\nnot an index\n")
    cfg = default_config()
    cfg["train"]["meshes"] = [str(work["mesh_path"])] * 2
    cfg["train"]["correspondences"] = [str(good), str(bad)]
    cfg_path = tmp_path / "p.cfg"
    cfg_path.write_text(format_config(cfg))
    ckpt = tmp_path / "model.npz"
    assert main(["train", "--config", str(cfg_path), "-o", str(ckpt)]) == 2
    assert "not an integer" in capsys.readouterr().err
    assert solves == [] and not ckpt.exists()


def test_train_refuses_a_short_label_file_before_any_eigensolve(work, tmp_path, capsys,
                                                                monkeypatch):
    solves = []

    def counting(*args, **kwargs):
        solves.append(args[2])
        raise AssertionError("the eigensolver ran")

    monkeypatch.setattr(cli, "eig_generalized", counting)
    good, short = tmp_path / "good.txt", tmp_path / "short.txt"
    write_correspondence(good, np.arange(60))
    write_correspondence(short, np.arange(59))  # one row short of the 60-vertex mesh
    cfg = default_config()
    cfg["train"]["meshes"] = [str(work["mesh_path"])] * 2
    cfg["train"]["correspondences"] = [str(good), str(short)]
    cfg_path = tmp_path / "p.cfg"
    cfg_path.write_text(format_config(cfg))
    ckpt = tmp_path / "model.npz"
    assert main(["train", "--config", str(cfg_path), "-o", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "59 labels for 60 vertices" in err and "Traceback" not in err
    assert solves == [] and not ckpt.exists()


def _no_solver(*args, **kwargs):
    raise AssertionError("the eigensolver ran")


def _one_line_error(capsys, needle):
    err = capsys.readouterr().err
    return needle in err and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("key, value", [
    ("lr_phase1", "nan"), ("lr_phase2", "inf"), ("margin", "nan"), ("margin", "-inf"),
    ("weight_decay_phase1", "nan"), ("weight_decay_phase2", "inf"),
])
def test_non_finite_train_setting_exits_2_before_any_eigensolve(work, tmp_path, capsys,
                                                                monkeypatch, key, value):
    # NaN passed the old `<= 0` checks, and training wrote all-NaN parameters
    monkeypatch.setattr(cli, "eig_generalized", _no_solver)
    cfg_path = tmp_path / "p.cfg"
    cfg_path.write_text(f"[train]\nmeshes = {work['mesh_path']}\n{key} = {value}\n")
    before = _tree(tmp_path)
    assert main(["train", "--config", str(cfg_path), "-o", str(tmp_path / "m.npz")]) == 2
    assert _one_line_error(capsys, key)
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("source, code", [("flag", 1), ("config", 2)])
def test_negative_seed_exits_before_training(work, tmp_path, capsys, monkeypatch, source,
                                             code):
    monkeypatch.setattr(cli, "eig_generalized", _no_solver)
    cfg_path = tmp_path / "p.cfg"
    seed = "[pipeline]\nseed = -1\n" if source == "config" else ""
    cfg_path.write_text(f"{seed}[train]\nmeshes = {work['mesh_path']}\n")
    flags = ["--seed", "-1"] if source == "flag" else []
    before = _tree(tmp_path)
    assert main(["train", "--config", str(cfg_path), "-o", str(tmp_path / "m.npz"),
                 *flags]) == code
    assert _one_line_error(capsys, "seed must be non-negative")
    assert _tree(tmp_path) == before


_BAD_DESCRIPTOR = [("type = foo", "unknown descriptor type 'foo'"),
                   ("power = 3", "power must be 1 or 2, got 3"),
                   ("num = 0", "descriptor dimension must be positive"),
                   ("num = 1025", "descriptor dimension is capped at 1024")]


def _counting_solver(monkeypatch):
    """Replace the CLI's eigensolver by one that records each call; returns the record."""
    solves = []
    real = cli.eig_generalized

    def counting(*args, **kwargs):
        solves.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "eig_generalized", counting)
    return solves


@pytest.mark.parametrize("line, needle", _BAD_DESCRIPTOR)
def test_train_refuses_descriptor_settings_before_any_eigensolve(work, tmp_path, capsys,
                                                                 monkeypatch, line, needle):
    # each solved one eigenbasis before the descriptor refused its settings
    solves = _counting_solver(monkeypatch)
    cfg_path = tmp_path / "p.cfg"
    cfg_path.write_text(f"[descriptor]\nk = 12\n{line}\n[train]\nmeshes = {work['mesh_path']}\n")
    before = _tree(tmp_path)
    assert main(["train", "--config", str(cfg_path), "-o", str(tmp_path / "m.npz")]) == 2
    assert _one_line_error(capsys, needle)
    assert solves == [] and _tree(tmp_path) == before


@pytest.mark.parametrize("line, needle", _BAD_DESCRIPTOR)
def test_descriptor_refuses_config_settings_before_any_eigensolve(work, tmp_path, capsys,
                                                                  monkeypatch, line, needle):
    solves = _counting_solver(monkeypatch)
    cfg_path = tmp_path / "d.cfg"
    cfg_path.write_text(f"[descriptor]\nk = 12\n{line}\n")
    out = tmp_path / "d.mwd"
    assert main(["descriptor", str(work["mesh_path"]), "--config", str(cfg_path),
                 "-o", str(out)]) == 2
    assert _one_line_error(capsys, needle)
    assert solves == [] and not out.exists()


def test_obj_face_index_beyond_int64_exits_2(work, tmp_path, capsys):
    mesh = work["mesh"]
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in mesh.vertices.tolist()]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.triangles.tolist()]
    lines[-1] = f"f 1 2 {2**64}"
    path = tmp_path / "big.obj"
    path.write_text("\n".join(lines) + "\n")
    assert main(["basis", str(path), "-k", "8"]) == 2
    assert _one_line_error(capsys, "int64")
    assert _tree(tmp_path) == [path]


@pytest.mark.parametrize("which", ["prediction", "truth", "train"])
def test_correspondence_index_beyond_int64_exits_2(work, tmp_path, capsys, which):
    gt, big = tmp_path / "gt.txt", tmp_path / "big.txt"
    write_correspondence(gt, np.arange(60))
    index = -2**70 if which == "truth" else 2**70
    big.write_text("".join(f"{i}\n" for i in range(59)) + f"{index}\n")
    if which == "train":
        cfg_path = tmp_path / "p.cfg"
        cfg_path.write_text(f"[train]\nmeshes = {work['mesh_path']}\n"
                            f"correspondences = {big}\n")
        argv = ["train", "--config", cfg_path, "-o", tmp_path / "m.npz"]
    else:
        pair = [big, gt] if which == "prediction" else [gt, big]
        argv = ["eval", *pair, work["mesh_path"], "-o", tmp_path / "report"]
    before = _tree(tmp_path)
    assert main([str(a) for a in argv]) == 2
    assert _one_line_error(capsys, "int64")
    assert _tree(tmp_path) == before


def test_infer_with_a_chebyshev_network_solves_no_eigenbasis(work, tmp_path, monkeypatch):
    def no_solver(*args, **kwargs):
        raise AssertionError("the eigensolver ran")

    monkeypatch.setattr(cli, "eig_generalized", no_solver)
    net = build_model("MGCONV8(3)+FC16", input_dim=16, kind="chebyshev", seed=3)
    ckpt = tmp_path / "cheb.npz"
    save_checkpoint(ckpt, net)  # no metadata: the default k = 100 > 60 vertices
    out = tmp_path / "learned.mwd"
    assert main(["infer", str(ckpt), str(work["mesh_path"]), str(work["desc_path"]),
                 "-o", str(out)]) == 0
    field = load_descriptors(out)
    assert field.values.shape == (60, 16) and field.metadata["backbone"] == "chebyshev"
    assert np.isfinite(field.values).all()


def test_infer_with_an_fc_only_wavelet_network_solves_no_eigenbasis(work, tmp_path, capsys,
                                                                     monkeypatch):
    # its operators read no basis, but infer solved one (k = 100 for 60
    # vertices exited 2) and recorded its k
    def no_solver(*args, **kwargs):
        raise AssertionError("the eigensolver ran")

    monkeypatch.setattr(cli, "eig_generalized", no_solver)
    ckpt, out = tmp_path / "fc.npz", tmp_path / "learned.mwd"
    save_checkpoint(ckpt, build_model("FC8", input_dim=16, seed=3))  # no metadata: k = 100
    assert main(["infer", str(ckpt), str(work["mesh_path"]), str(work["desc_path"]),
                 "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    field = load_descriptors(out)
    assert field.values.shape == (60, 8) and "k" not in field.metadata
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fc.npz", "learned.mwd"]


@pytest.mark.parametrize("kind, architecture", [("chebyshev", "MGCONV8(3)+FC16"),
                                                ("chebyshev", "FC8"), ("mgcn", "FC8")])
@pytest.mark.parametrize("flags", [["-k", "7"], ["--basis", "nope.npz"]], ids=["k", "basis"])
def test_infer_refuses_basis_flags_for_a_network_that_reads_no_basis(
        work, tmp_path, capsys, monkeypatch, kind, architecture, flags):
    # a Chebyshev run with -k 7 wrote "k": 7, and one with --basis never
    # opened the file; both exited 0
    monkeypatch.chdir(tmp_path)
    save_checkpoint(tmp_path / "net.npz", build_model(architecture, input_dim=16, kind=kind,
                                                      seed=3))
    before = _tree(tmp_path)
    assert main(["infer", "net.npz", str(work["mesh_path"]), str(work["desc_path"]), *flags,
                 "-o", "out.mwd"]) == 1
    assert _one_line_error(capsys, f"this {kind} network ({architecture}) reads none")
    assert _tree(tmp_path) == before


def _train_config(work, tmp_path, architecture, kind="mgcn"):
    cfg = default_config()
    cfg["descriptor"]["k"] = 12
    cfg["descriptor"]["num"] = 16
    cfg["model"]["architecture"] = architecture
    cfg["model"]["kind"] = kind
    cfg["train"]["meshes"] = [str(work["mesh_path"])]
    cfg["train"]["phase1_epochs"] = 1
    cfg["train"]["phase2_epochs"] = 0
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(format_config(cfg))
    return cfg_path


def test_fc_only_chebyshev_network_trains(work, tmp_path):
    # it asks for no polynomial order, so it builds an empty operator set
    ckpt = tmp_path / "cheb.npz"
    cfg_path = _train_config(work, tmp_path, "FC8", kind="chebyshev")
    assert main(["train", "--config", str(cfg_path), "-o", str(ckpt)]) == 0
    net, _, _, _ = load_checkpoint(ckpt)
    assert net.kind == "chebyshev" and net.scale_sets == []


def test_fc_only_chebyshev_network_infers(work, tmp_path):
    ckpt, out = tmp_path / "cheb.npz", tmp_path / "learned.mwd"
    save_checkpoint(ckpt, build_model("FC8", input_dim=16, kind="chebyshev", seed=3))
    assert main(["infer", str(ckpt), str(work["mesh_path"]), str(work["desc_path"]),
                 "-o", str(out)]) == 0
    field = load_descriptors(out)
    assert field.values.shape == (60, 8) and field.metadata["backbone"] == "chebyshev"


@pytest.mark.parametrize("flags", [["--type", "hks"], ["--type", "weds", "--power", "1"]],
                         ids=["hks", "weds-power-1"])
def test_infer_refuses_a_field_other_than_the_one_it_trained_on(work, tmp_path, capsys,
                                                                 flags):
    ckpt, other, out = tmp_path / "net.npz", tmp_path / "other.mwd", tmp_path / "out.mwd"
    cfg_path = _train_config(work, tmp_path, "MGCONV8(3)+FC16")  # WEDS, power 2
    assert main(["train", "--config", str(cfg_path), "-o", str(ckpt)]) == 0
    assert main(["descriptor", str(work["mesh_path"]), *flags, "--num", "16", "-k", "12",
                 "--basis", str(work["basis_path"]), "-o", str(other)]) == 0
    capsys.readouterr()
    infer = ["infer", str(ckpt), str(work["mesh_path"]), str(other), "-k", "12",
             "--basis", str(work["basis_path"]), "-o", str(out)]
    assert main(infer) == 2
    assert _one_line_error(capsys, "the network was trained on") and not out.exists()
    # the field it trained on runs; a checkpoint with no [descriptor] takes any field
    assert main(infer[:3] + [str(work["desc_path"])] + infer[4:]) == 0
    net, _, _, _ = load_checkpoint(ckpt)
    save_checkpoint(ckpt, net)
    out.unlink()
    assert main(infer) == 0 and out.exists()


def test_train_requires_meshes(tmp_path, capsys):
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text(format_config(default_config()))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "meshes is empty" in capsys.readouterr().err


def test_match_and_eval_reject_non_finite_descriptors(work, tmp_path, capsys):
    bad = tmp_path / "nan.mwd"
    _shared.write_raw_descriptors(bad, np.full((60, 2), np.nan))
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


@pytest.mark.parametrize("scale", [1e150, 1e200])  # inf areas; then NaN weights too
@pytest.mark.parametrize("grid", [(12, 6), (30, 20)], ids=["dense", "lanczos"])
def test_non_finite_geometry_exits_2_before_any_solver(tmp_path, capsys, monkeypatch,
                                                       grid, scale):
    def no_solver(*args, **kwargs):
        raise AssertionError("the eigensolver ran")

    monkeypatch.setattr(cli, "eig_generalized", no_solver)
    mesh = bent_bar(0.3, *grid)
    path = tmp_path / "huge.ply"
    write_ply(path, mesh.vertices * scale, mesh.triangles)
    out = tmp_path / "huge.basis.npz"
    with np.errstate(all="ignore"):
        assert main(["basis", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e200, 1e-200])  # inf or NaN areas; zero areas
def test_extreme_geometry_exits_2_without_runtime_warnings(tmp_path, scale):
    mesh = bent_bar(0.3, 12, 6)
    path = tmp_path / "extreme.ply"
    write_ply(path, mesh.vertices * scale, mesh.triangles)
    out = tmp_path / "extreme.basis.npz"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run(
        [sys.executable, "-W", "always::RuntimeWarning", "-m", "meshwave", "basis",
         str(path), "-o", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 2
    assert "Warning" not in run.stderr and run.stderr.count("\n") == 1
    assert run.stderr.startswith("error: ")
    assert not out.exists()


def _tree(*roots):
    return sorted(p for root in roots for p in root.rglob("*"))


# each writes into tmp_path/missing (absent) or reads from it
_FS_FAILURES = {
    "basis -o": lambda w, d: ["basis", w["mesh_path"], "-k", "12", "-o", d / "b.npz"],
    "basis -o under a file": lambda w, d: ["basis", w["mesh_path"], "-k", "12",
                                           "-o", d.parent / "gt.txt" / "b.npz"],
    "descriptor -o": lambda w, d: ["descriptor", w["mesh_path"], "--type", "hks", "--num", "8",
                                   "-k", "12", "--basis", w["basis_path"], "-o", d / "x.mwd"],
    "match -o": lambda w, d: ["match", w["desc_path"], w["desc_path"], "-o", d / "map.txt"],
    "match missing input": lambda w, d: ["match", d / "a.mwd", w["desc_path"],
                                         "-o", d.parent / "map.txt"],
    "eval -o": lambda w, d: ["eval", d.parent / "gt.txt", d.parent / "gt.txt", w["mesh_path"],
                             "-o", d / "report"],
    "dissimilarity -o": lambda w, d: ["dissimilarity", w["desc_path"], w["mesh_path"],
                                      "--vertex", "0", "-o", d / "x.ply"],
}


@pytest.mark.parametrize("case", _FS_FAILURES)
def test_artifact_file_system_errors_exit_2(work, tmp_path, capsys, case):
    write_correspondence(tmp_path / "gt.txt", np.arange(60))
    before = _tree(tmp_path, work["root"])
    argv = [str(a) for a in _FS_FAILURES[case](work, tmp_path / "missing")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "cannot" in err and "Traceback" not in err
    assert _tree(tmp_path, work["root"]) == before


@pytest.mark.parametrize("flag, value", [
    ("--n-radii", "0"), ("--n-radii", "-2"),
    ("--max-radius", "-1"), ("--max-radius", "nan"), ("--max-radius", "inf"),
])
def test_eval_rejects_an_empty_or_negative_radius_range(work, tmp_path, capsys, flag, value):
    gt = tmp_path / "gt.txt"
    write_correspondence(gt, np.arange(60))
    prefix = tmp_path / "report"
    assert main(["eval", str(gt), str(gt), str(work["mesh_path"]), flag, value,
                 "-o", str(prefix)]) == 1
    assert flag in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gt.txt"]


@pytest.mark.parametrize("flags, code", [
    (["--desc-a", "D"], 1),
    (["--desc-b", "D"], 1),
    (["--kmax", "5"], 1),
    (["--desc-a", "D", "--desc-b", "D", "--kmax", "0"], 1),
    (["--desc-a", "D", "--desc-b", "D", "--kmax", "61"], 2),  # beyond the 60 rows
], ids=["desc-a-alone", "desc-b-alone", "kmax-alone", "kmax-0", "kmax-past-rows"])
def test_eval_rank_curve_flags(work, tmp_path, capsys, flags, code):
    gt = tmp_path / "gt.txt"
    write_correspondence(gt, np.arange(60))
    flags = [str(work["desc_path"]) if f == "D" else f for f in flags]
    assert main(["eval", str(gt), str(gt), str(work["mesh_path"]), *flags,
                 "-o", str(tmp_path / "report")]) == code
    assert ("kmax" if "--kmax" in flags else "--desc-") in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gt.txt"]


def test_eval_refuses_a_kmax_past_the_rows_before_the_geodesic_work(work, tmp_path, capsys,
                                                                    monkeypatch):
    # the map is wrong everywhere, so scoring it would run geodesic_pairs
    monkeypatch.setattr(evaluation, "geodesic_pairs",
                        lambda *a, **k: pytest.fail("geodesic work before the kmax check"))
    pred, gt = tmp_path / "pred.txt", tmp_path / "gt.txt"
    write_correspondence(pred, np.roll(np.arange(60), 7))
    write_correspondence(gt, np.arange(60))
    desc = str(work["desc_path"])
    assert main(["eval", str(pred), str(gt), str(work["mesh_path"]), "--desc-a", desc,
                 "--desc-b", desc, "--kmax", "500", "-o", str(tmp_path / "report")]) == 2
    assert capsys.readouterr().err == "error: kmax must be in [1, 60], got 500\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gt.txt", "pred.txt"]


# ------------------------------------------------- atom statistics sidecar


@pytest.fixture
def own_basis(work, tmp_path):
    """A private copy of the module's basis cache: its sidecar starts absent."""
    path = tmp_path / "bar.basis.npz"
    path.write_bytes(work["basis_path"].read_bytes())
    return path


def _sidecar(basis_path, stat):
    """The file beside `basis_path` that keeps the atom statistic `stat`."""
    return basis_path.parent / f"{basis_path.name}.{stat}.npz"


def _descriptor(work, basis_path, out, *extra):
    """Run WEDS 16 at -k 12 on the bar, with --basis unless `basis_path` is None."""
    basis = ["--basis", str(basis_path)] if basis_path is not None else []
    return main(["descriptor", str(work["mesh_path"]), "--type", "weds", "--num", "16",
                 "-k", "12", *basis, "-o", str(out), *extra])


def _library_weds(work, basis_path, n_dims):
    basis = load_basis(basis_path)
    bank = build_filter_bank(basis.lambda_max, eigenvalues=basis.eigenvalues)
    return weds(basis, bank, work["mesh"].vertices, n_dims=n_dims).values


def _stamp(path):
    stat = path.stat()
    return stat.st_ino, stat.st_mtime_ns


def test_atom_sidecar_warm_descriptor_matches_cold(work, own_basis, tmp_path):
    cold, warm = tmp_path / "cold.mwd", tmp_path / "warm.mwd"
    assert _descriptor(work, own_basis, cold) == 0
    sidecar = _sidecar(own_basis, "range")
    stamp = _stamp(sidecar)
    assert _descriptor(work, own_basis, warm) == 0
    assert _stamp(sidecar) == stamp  # a hit rewrites nothing
    assert warm.read_bytes() == cold.read_bytes()
    assert np.array_equal(load_descriptors(cold).values, _library_weds(work, own_basis, 16))
    with np.load(sidecar) as data:  # WEDS stores the ranges of scales 8, 16 and 24 alone
        assert sorted(data.files) == ["hi", "key", "lo", "tables_hash"]
        assert data["lo"].shape == data["hi"].shape == (60, 3)
    assert not _sidecar(own_basis, "l1").exists()


def test_atom_sidecar_warm_infer_matches_cold(work, own_basis, tmp_path):
    net = build_model("MGCONV8(3)+FC16", input_dim=16, seed=3)
    ckpt = tmp_path / "net.npz"
    save_checkpoint(ckpt, net)
    outs = []
    for name in ("cold", "warm"):
        out = tmp_path / f"{name}.mwd"
        assert main(["infer", str(ckpt), str(work["mesh_path"]), str(work["desc_path"]),
                     "-k", "12", "--basis", str(own_basis), "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    with np.load(_sidecar(own_basis, "l1")) as data:  # the operators store the L1 norms alone
        assert sorted(data.files) == ["key", "l1", "tables_hash"]
        assert data["l1"].shape == (60, len(required_operator_keys(net)))
    assert not _sidecar(own_basis, "range").exists()


@pytest.mark.parametrize("order", ["didi", "idid"])
def test_descriptor_and_infer_stay_warm_after_each_other(work, own_basis, tmp_path, order):
    # each command keeps its own sidecar, so neither evicts the other's table
    ckpt = tmp_path / "net.npz"
    save_checkpoint(ckpt, build_model("MGCONV8(3)+FC16", input_dim=16, seed=3))
    run = {"d": lambda basis, out: _descriptor(work, basis, out),
           "i": lambda basis, out: _infer(work, ckpt, basis, out, *[] if basis else ["-k", "12"])}
    sidecars = {"d": _sidecar(own_basis, "range"), "i": _sidecar(own_basis, "l1")}
    for i, command in enumerate(order):
        before = {c: _stamp(path) for c, path in sidecars.items() if path.exists()}
        cached, fresh = tmp_path / f"{i}.cached.mwd", tmp_path / f"{i}.fresh.mwd"
        assert run[command](own_basis, cached) == 0
        assert run[command](None, fresh) == 0
        assert cached.read_bytes() == fresh.read_bytes(), (i, command)
        after = {c: _stamp(path) for c, path in sidecars.items() if path.exists()}
        # a command's first run writes its own sidecar alone, its second none
        assert after == (before if i >= 2 else {**before, command: after.get(command)})
        assert command in after
    assert sorted(p.name for p in own_basis.parent.glob(f"{own_basis.name}.*")) == [
        f"{own_basis.name}.l1.npz", f"{own_basis.name}.range.npz"]


def _key(stat, basis, bank, filters, version=wavelets._STATS_VERSION):
    """The key filter_atom_stats stores a table under (see its module)."""
    arrays = [basis.eigenvalues, basis.eigenvectors, basis.areas, np.unique(filters)]
    return wavelets._digest(arrays, f"{version} {stat} {bank_hash(bank)}")


@pytest.mark.parametrize("stale", ["version", "stat", "no-key"])
def test_a_sidecar_under_another_key_is_replaced(work, own_basis, tmp_path, stale):
    # its table, doubled (with a matching digest), would change the output if used
    cold = tmp_path / "cold.mwd"
    assert _descriptor(work, own_basis, cold) == 0
    sidecar = _sidecar(own_basis, "range")
    with np.load(sidecar) as data:
        arrays = {name: 2.0 * data[name] for name in ("lo", "hi")}
        key = data["key"]
    basis = load_basis(own_basis)
    bank = build_filter_bank(basis.lambda_max, eigenvalues=basis.eigenvalues)
    assert key.tobytes() == _key("range", basis, bank, [8, 16, 24])
    if stale != "no-key":
        arrays["key"] = np.bytes_(_key("l1", basis, bank, [8, 16, 24]) if stale == "stat"
                                  else _key("range", basis, bank, [8, 16, 24], version=4))
    tables_hash = wavelets._digest([arrays["lo"], arrays["hi"]])
    np.savez(sidecar, tables_hash=np.bytes_(tables_hash), **arrays)
    warm = tmp_path / "warm.mwd"
    assert _descriptor(work, own_basis, warm) == 0
    assert warm.read_bytes() == cold.read_bytes()
    with np.load(sidecar) as data:
        assert data["key"] == key and np.array_equal(data["lo"], 0.5 * arrays["lo"])


def test_a_two_table_atoms_sidecar_is_neither_read_nor_required(work, own_basis, tmp_path):
    # B.atoms.npz, which held both tables, is no file of either command now
    ckpt = tmp_path / "net.npz"
    save_checkpoint(ckpt, build_model("MGCONV8(3)+FC16", input_dim=16, seed=3))
    atoms = own_basis.parent / f"{own_basis.name}.atoms.npz"
    atoms.write_bytes(b"not an archive")
    outs = {}
    for name, basis in (("cold", None), ("warm", own_basis)):
        outs[name] = [tmp_path / f"{name}.mwd", tmp_path / f"{name}.out.mwd"]
        assert _descriptor(work, basis, outs[name][0]) == 0
        assert _infer(work, ckpt, basis, outs[name][1], *[] if basis else ["-k", "12"]) == 0
    assert [p.read_bytes() for p in outs["warm"]] == [p.read_bytes() for p in outs["cold"]]
    assert atoms.read_bytes() == b"not an archive"


@pytest.mark.parametrize("change", ["basis", "bank"])
def test_atom_sidecar_is_recomputed_for_another_basis_or_bank(work, own_basis, tmp_path,
                                                               change):
    sidecar = _sidecar(own_basis, "range")
    if change == "basis":  # more pairs: the basis in use changes, its path does not
        assert _descriptor(work, own_basis, tmp_path / "first.mwd") == 0
        stamp = _stamp(sidecar)
        assert main(["basis", str(work["mesh_path"]), "-k", "14", "-o", str(own_basis),
                     "--force"]) == 0
        assert _stamp(sidecar) == stamp  # basis --force leaves the sidecar alone
        extra = ["-k", "14"]
    else:  # the same basis, stored by a library caller under a detuned bank
        basis = load_basis(own_basis)
        bank = dataclasses.replace(
            build_filter_bank(basis.lambda_max, eigenvalues=basis.eigenvalues),
            amplitude=0.46)
        wavelets.filter_atom_stats(basis, bank, [24, 16, 8], "range", cache=sidecar)
        extra = []
    with np.load(sidecar) as data:
        key = data["key"].tobytes()
    fresh = tmp_path / "fresh" / own_basis.name
    fresh.parent.mkdir()
    fresh.write_bytes(own_basis.read_bytes())
    assert _descriptor(work, fresh, tmp_path / "cold.mwd", *extra) == 0
    assert _descriptor(work, own_basis, tmp_path / "stale.mwd", *extra) == 0
    assert (tmp_path / "stale.mwd").read_bytes() == (tmp_path / "cold.mwd").read_bytes()
    with np.load(sidecar) as data:
        assert data["key"].tobytes() != key


def test_atom_sidecar_replaces_the_range_table_for_a_new_scale_set(work, own_basis,
                                                                   tmp_path, monkeypatch):
    computed = []
    real = wavelets._atom_sweep

    def counting(phi, responses, stat):
        computed.append((stat, responses.shape[1]))
        return real(phi, responses, stat)

    monkeypatch.setattr(wavelets, "_atom_sweep", counting)
    assert _descriptor(work, own_basis, tmp_path / "a.mwd") == 0  # scales 24, 16, 8
    for _ in range(2):  # scales 26, 21, 16, 11, 6: swept once, then reused
        assert _descriptor(work, own_basis, tmp_path / "b.mwd", "--num", "160") == 0
    assert computed == [("range", 3), ("range", 5)]
    with np.load(_sidecar(own_basis, "range")) as data:
        assert data["lo"].shape == (60, 5)
    got = load_descriptors(tmp_path / "b.mwd").values
    assert np.array_equal(got, _library_weds(work, own_basis, 160))


def test_atom_sidecar_outputs_equal_fresh_runs_in_any_order(work, own_basis, tmp_path):
    # the basis file holds exactly -k = 12 pairs, so it is used untruncated
    assert load_basis(own_basis).k == 12
    nets = {}
    for scales in (3, 16):
        nets[scales] = tmp_path / f"net{scales}.npz"
        save_checkpoint(nets[scales], build_model(f"MGCONV8({scales})+FC16", input_dim=16,
                                                  seed=3))
    runs = [("infer", 3), ("infer", 16), ("infer", 3),
            ("descriptor", 16), ("descriptor", 160), ("descriptor", 16)]
    for i, (command, size) in enumerate(runs):
        if command == "infer":
            argv = ["infer", nets[size], work["mesh_path"], work["desc_path"], "-k", "12"]
        else:
            argv = ["descriptor", work["mesh_path"], "--type", "weds", "--num", size,
                    "-k", "12"]
        cached, fresh = tmp_path / f"{i}.cached.mwd", tmp_path / f"{i}.fresh.mwd"
        assert main([str(a) for a in [*argv, "--basis", own_basis, "-o", cached]]) == 0
        assert main([str(a) for a in [*argv, "-o", fresh]]) == 0
        assert cached.read_bytes() == fresh.read_bytes(), (command, size)


def test_fc_only_network_leaves_the_atom_sidecar_alone(work, own_basis, tmp_path):
    ckpt, fc = tmp_path / "net.npz", tmp_path / "fc.npz"
    save_checkpoint(ckpt, build_model("MGCONV8(3)+FC16", input_dim=16, seed=3))
    save_checkpoint(fc, build_model("FC8", input_dim=16, seed=3))
    assert _infer(work, ckpt, own_basis, tmp_path / "conv.mwd") == 0
    sidecar = _sidecar(own_basis, "l1")
    before = sidecar.read_bytes()
    assert _infer(work, fc, None, tmp_path / "fc.mwd") == 0  # asks for no scales
    assert sidecar.read_bytes() == before
    assert load_descriptors(tmp_path / "fc.mwd").values.shape == (60, 8)


def _infer(work, ckpt, basis_path, out, *extra):
    """Run infer on the bar's field; with `basis_path` (for a network with
    wavelet conv layers), also -k 12 and --basis."""
    basis = ["-k", "12", "--basis", str(basis_path)] if basis_path is not None else []
    return main(["infer", str(ckpt), str(work["mesh_path"]), str(work["desc_path"]),
                 *basis, *extra, "-o", str(out)])


def _corrupt(sidecar, stat, how):
    if how == "truncated":
        data = sidecar.read_bytes()
        sidecar.write_bytes(data[: len(data) // 2])
        return
    with np.load(sidecar) as data:
        arrays = dict(data)
    first = "l1" if stat == "l1" else "lo"
    if how == "nan":
        arrays[first][3, 0] = np.nan
    elif how == "order":  # a negative L1 norm, or lo above hi
        arrays[first][5, 1] = -1.0 if stat == "l1" else arrays["hi"][5, 1] + 1.0
    elif how == "one-ulp":  # consistent, but not what the sweep wrote
        arrays[first][2, 0] = np.nextafter(arrays[first][2, 0], np.inf)
    elif how == "float32":
        arrays[first] = arrays[first].astype(np.float32)
    elif how == "missing-table":
        del arrays[first]
    else:  # one vertex short
        for name in wavelets._STATS[stat]:
            arrays[name] = arrays[name][:-1]
    np.savez(sidecar, **arrays)


@pytest.mark.parametrize("command", ["descriptor", "infer"])
@pytest.mark.parametrize("how", ["nan", "order", "one-ulp", "float32", "missing-table",
                                 "wrong-shape", "truncated"])
def test_bad_atom_sidecar_exits_2(work, own_basis, tmp_path, capsys, command, how):
    # the table under the request's key fails its checks or its digest
    stat = {"descriptor": "range", "infer": "l1"}[command]
    ckpt = tmp_path / "net.npz"
    save_checkpoint(ckpt, build_model("MGCONV8(3)+FC16", input_dim=16, seed=3))
    out = tmp_path / "out.mwd"
    run = {
        "descriptor": lambda: _descriptor(work, own_basis, out),
        "infer": lambda: _infer(work, ckpt, own_basis, out),
    }[command]
    assert run() == 0
    out.unlink()
    sidecar = _sidecar(own_basis, stat)
    _corrupt(sidecar, stat, how)
    corrupted = sidecar.read_bytes()
    capsys.readouterr()
    assert run() == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "atom statistics" in err
    assert not out.exists() and sidecar.read_bytes() == corrupted


def _unreadable(path, how):
    if how == "truncated":
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
    else:  # a plain .npy under the .npz name
        with open(path, "wb") as fh:
            np.save(fh, np.arange(5.0))


@pytest.mark.parametrize("command", ["descriptor", "infer"])
@pytest.mark.parametrize("how", ["truncated", "npy"])
def test_unreadable_npz_exits_2(work, own_basis, tmp_path, capsys, command, how):
    ckpt = tmp_path / "net.npz"
    save_checkpoint(ckpt, build_model("MGCONV8(3)+FC16", input_dim=16, seed=3))
    out = tmp_path / "out.mwd"
    if command == "descriptor":
        _unreadable(own_basis, how)
        code = _descriptor(work, own_basis, out)
    else:
        _unreadable(ckpt, how)
        code = _infer(work, ckpt, own_basis, out)
    assert code == 2
    err = capsys.readouterr().err
    assert "unreadable" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("bank", [
    {},
    "x",
    dict(STOCK, n_scales="31"),
    dict(STOCK, span_fine=0.201),
], ids=["empty", "string", "string-n_scales", "other-span_fine"])
def test_infer_rejects_bad_bank_metadata(work, own_basis, tmp_path, capsys, bank):
    ckpt = tmp_path / "net.npz"
    save_checkpoint(ckpt, build_model("MGCONV8(3)+FC16", input_dim=16, seed=3),
                    metadata={"bank": bank})
    out = tmp_path / "out.mwd"
    assert _infer(work, ckpt, own_basis, out) == 2
    err = capsys.readouterr().err
    assert "[bank]" in err and "Traceback" not in err
    assert not out.exists()


def test_infer_accepts_stock_bank_metadata(work, own_basis, tmp_path):
    # checkpoints written before the bank lost its settings record the stock one
    net = build_model("MGCONV8(3)+FC16", input_dim=16, seed=3)
    outs = []
    for name, metadata in (("none", None), ("stock", {"bank": dict(STOCK)})):
        ckpt = tmp_path / f"{name}.npz"
        save_checkpoint(ckpt, net, metadata=metadata)
        out = tmp_path / f"{name}.mwd"
        assert _infer(work, ckpt, own_basis, out) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("metadata, message", [
    ({"descriptor": "x"}, "[descriptor]"),
    ({"descriptor": {}}, "[descriptor]"),
    ({"descriptor": dict(default_config()["descriptor"], k="12")}, "[descriptor]"),
    ("x", "not a JSON object"),
], ids=["string", "empty", "string-k", "metadata-string"])
def test_infer_rejects_bad_descriptor_metadata(work, own_basis, tmp_path, capsys, metadata,
                                               message):
    ckpt = tmp_path / "net.npz"
    save_checkpoint(ckpt, build_model("MGCONV8(3)+FC16", input_dim=16, seed=3),
                    metadata=metadata)
    out = tmp_path / "out.mwd"
    # no -k: the checkpoint's k is the one in use
    assert main(["infer", str(ckpt), str(work["mesh_path"]), str(work["desc_path"]),
                 "--basis", str(own_basis), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def _net_with_optimizer(path, kind, edit_meta=None, edit_arrays=None):
    """A checkpoint holding the training state older files held."""
    net = build_model("MGCONV8(3)+FC16", input_dim=16, kind=kind, seed=3)
    return _shared.edited_checkpoint(path, net, edit_meta, edit_arrays, legacy=True)


def _set(**fields):
    return lambda values: values.update(fields)


def _drop(key):
    return lambda arrays: arrays.pop(key)


@pytest.mark.parametrize("kind, edit_arrays", [
    ("mgcn", None),
    ("chebyshev", None),
    *(("mgcn", _set(**{"opt/step": np.asarray(step)}))
      for step in ([1, 2], np.zeros((1,), dtype=np.int64), "x", 1.5, -1, True)),
    ("mgcn", _drop("opt/m/fc1.w")),
    ("mgcn", _drop("opt/v/fc1.b")),
    ("chebyshev", _drop("opt/step")),
    ("mgcn", _set(**{"opt/m/fc1.w": np.zeros((5, 6))})),
    ("mgcn", _set(**{"opt/v/conv0.w1": np.zeros((4, 6), dtype=np.int64)})),
    ("mgcn", _set(**{"opt/m/extra": np.zeros(3)})),
], ids=["mgcn", "chebyshev", "step-pair", "step-row", "step-string", "step-float",
        "step-negative", "step-bool", "m-missing", "v-missing", "step-missing",
        "m-wrong-shape", "v-wrong-dtype", "m-unexpected"])
def test_infer_ignores_the_training_state_of_older_checkpoints(work, own_basis, tmp_path,
                                                               kind, edit_arrays):
    # the optimizer state was read and checked, and a malformed one refused,
    # though no command reads it; now it is not read at all
    basis = own_basis if kind == "mgcn" else None
    plain = tmp_path / "plain.npz"
    save_checkpoint(plain, build_model("MGCONV8(3)+FC16", input_dim=16, kind=kind, seed=3))
    old = _net_with_optimizer(tmp_path / "old.npz", kind, edit_arrays=edit_arrays)
    assert _infer(work, plain, basis, tmp_path / "plain.mwd") == 0
    assert _infer(work, old, basis, tmp_path / "old.mwd") == 0
    assert (tmp_path / "old.mwd").read_bytes() == (tmp_path / "plain.mwd").read_bytes()


@pytest.mark.parametrize("kind, edit_meta", [
    ("mgcn", _set(scale_sets=[[1, 2, 3]])),
    ("chebyshev", _set(scale_sets=[[0, 1, 3000]])),
    ("mgcn", lambda meta: meta.pop("scale_sets")),
    ("mgcn", _set(architecture="MGCONV8(1000000000)+FC16")),
    ("chebyshev", _set(architecture="MGCONV8(1000000)+FC16")),
], ids=["other-scales", "chebyshev-huge-order", "scales-missing", "ten-digit-scale-count",
        "scale-count-beyond-arrays"])
def test_infer_refuses_an_inconsistent_checkpoint(work, own_basis, tmp_path, capsys,
                                                  monkeypatch, kind, edit_meta):
    # other scale sets ran the wrong wavelets, and a huge Chebyshev order
    # built that many terms; a scale count is refused before anything sized
    # by it is made
    def no_operators(*args, **kwargs):
        raise AssertionError("operators were built for a refused checkpoint")

    monkeypatch.setattr(cli, "_shape_operators", no_operators)
    ckpt = _net_with_optimizer(tmp_path / "net.npz", kind, edit_meta)
    out = tmp_path / "out.mwd"
    capsys.readouterr()
    assert _infer(work, ckpt, own_basis, out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["mgcn", "chebyshev"])
@pytest.mark.parametrize("name", ["param/conv0.w0", "param/fc1.w"])
@pytest.mark.parametrize("value, code", [(np.inf, 2), (np.nan, 2), (1e308, 3)],
                         ids=["inf", "nan", "1e308"])
def test_infer_on_non_finite_or_overflowing_parameters_prints_one_error(
        work, own_basis, tmp_path, capsys, kind, name, value, code):
    # inf printed two RuntimeWarnings and 1e308 an overflow warning before
    # exit 3; non-finite values are now refused on load, and an overflow
    # from finite ones is refused when the output is saved
    def fill(arrays):
        arrays[name] = np.full_like(arrays[name], value)

    ckpt = _net_with_optimizer(tmp_path / "net.npz", kind, edit_arrays=fill)
    out = tmp_path / "out.mwd"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _infer(work, ckpt, own_basis if kind == "mgcn" else None, out) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("non-finite values" in err) == (code == 2)
    assert not out.exists()


def test_unwritable_atom_sidecar_leaves_the_result(work, own_basis, tmp_path, monkeypatch,
                                                   caplog):
    def refuse(path, *args, **kwargs):
        raise OSError("read-only file system")

    monkeypatch.setattr(wavelets, "atomic_write", refuse)
    out = tmp_path / "x.mwd"
    assert _descriptor(work, own_basis, out) == 0
    assert not _sidecar(own_basis, "range").exists()
    assert "atom statistics not cached" in caplog.text
    assert np.array_equal(load_descriptors(out).values, _library_weds(work, own_basis, 16))


def test_sidecar_in_an_unwritable_place_leaves_the_result(work, own_basis, tmp_path,
                                                         monkeypatch, caplog):
    def refuse_sidecar(path, *args, **kwargs):
        if ".range.npz." in str(path):  # the sidecar's temporary file
            raise PermissionError(13, "Permission denied")
        return open(path, *args, **kwargs)

    monkeypatch.setattr(_files, "open", refuse_sidecar, raising=False)
    out = tmp_path / "x.mwd"
    assert _descriptor(work, own_basis, out) == 0
    assert not _sidecar(own_basis, "range").exists()
    assert "atom statistics not cached" in caplog.text
    assert np.array_equal(load_descriptors(out).values, _library_weds(work, own_basis, 16))
