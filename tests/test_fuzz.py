"""Property tests of the CLI's exit-code contract on mutated input files.

Each case writes a valid input with one mutation (a token replaced, a line
deleted, duplicated, swapped or inserted, the text truncated, or the
numbers scaled) and runs a command on it: ``meshwave basis`` on OFF and
OBJ meshes and on ASCII and binary PLY meshes (a header line, a body
token or a byte replaced, or the file truncated), ``meshwave eval`` on
correspondence files, ``meshwave match`` on ``.mwd`` descriptor files
(magic, header words, metadata bytes or payload values replaced, or the
file truncated), ``meshwave infer`` on checkpoints (a metadata field
replaced, an array retyped, reshaped, filled with inf, NaN or 1e308,
dropped or added, or the file truncated).  File-level faults (a
directory in place of the file, an empty file, one 0xFF byte) run on
each mesh format and the config under ``basis``, correspondences under
``eval`` and ``.mwd`` files under ``match``.  ``meshwave dissimilarity``
runs on fields of signed zeros, subnormals, ±1e308, constants, NaN and
inf, and writes a PLY of the mesh's vertices.  Whatever the mutation, the
command exits 0, 2 (bad data) or 3 (numerical failure), raises no
warning, says nothing on stderr that looks like a traceback, and leaves
no new file when it fails.  So do ``descriptor`` and ``infer --basis`` on
a ``--config`` file with one mutation of its text.  Every test runs the
same `_FUZZ` settings:
100 derandomized draws, so the cases repeat from run to run.  Each output
path of every command, given a directory in its place, a missing
directory, a regular file where its directory should be or a trailing
separator, exits 2 with one line before any work, as does one that names
another file of the command.  The mesh hash a basis cache, a descriptor
file or a map's target_mesh comment records is drawn from absent, null,
"", the mesh's own or another pose's hash and near misses of it, and each
command that reads it against a mesh (``eval --desc-a`` against the map's
source_mesh comment) exits 0 exactly when it is absent, "" (what
``save_basis`` records for no mesh) or the mesh's own, and otherwise 2
with one line and no new file.  The atom statistics
sidecar ``descriptor --basis`` or ``infer --basis`` keeps, with one
array's entry, dtype or shape changed, an array dropped or the file
truncated, makes the command either exit 2 and leave it as it was or
write the bytes it writes without ``--basis``.
"""

import contextlib
import functools
import io
import json
import os
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from meshwave import cli
from meshwave.cli import main
from meshwave.config import default_config, format_config
from meshwave.descriptors import DescriptorField, save_descriptors
from meshwave.meshio import read_ply
from meshwave.model import build_model, save_checkpoint
from meshwave.synthetic import bent_bar

import _shared

# every fuzz test: 100 derandomized cases, no example database, no deadline
_FUZZ = settings(derandomize=True, max_examples=100, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.too_slow])


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


def _run(argv):
    """meshwave's exit code and stderr on `argv`, with stdout dropped."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning fails the case as a traceback does
        code = main([str(a) for a in argv])
    return code, stderr.getvalue()


def _check_contract(argv, root, outputs):
    """Run meshwave in the directory `root`: it exits 0, 2 or 3 with no
    traceback and no warning, and adds the files `outputs` on success and
    none otherwise.  Returns the exit code."""
    inputs = set(root.iterdir())
    code, err = _run(argv)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err and "Warning" not in err
    assert set(root.iterdir()) == (inputs | outputs if code == 0 else inputs)
    return code


@_FUZZ
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


@_FUZZ
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


# the small bar as PLY: double coordinates, a uchar and an int vertex
# property, and triangle lists of the drawn index type; a binary body is
# packed by these types whatever the mutated header says
_PLY_BAR = _BARS["small"]
_PLY_ROWS = ([[f"{c:.17g}" for c in v] + [str(i % 256), str(1000 * i)]
              for i, v in enumerate(_PLY_BAR.vertices)]
             + [["3", *map(str, t)] for t in _PLY_BAR.triangles])
_PLY_STRUCT = {"double": "d", "float": "f", "uchar": "B", "int": "i", "uint": "I"}
_PLY_TOKENS = _TOKENS + ["300", "256", "255", "99999999999", "2147483648", "1e30"]
_PLY_LINES = ["", "ply", "end_header", "comment x", "format ascii 1.0",
              "format binary_little_endian 1.0", "format binary_big_endian 1.0",
              "element vertex 0", "element vertex 25", "element vertex -1", "element face 0",
              "element face 31", "element face 99999999999", "element edge 1",
              "property uchar x", "property int x", "property float x", "property double",
              "property list uchar float vertex_indices",
              "property list float int vertex_indices",
              "property list uchar double vertex_indices",
              "property list int uint vertex_indices"]
_PLY_MUTATIONS = ["header", "token", "byte", "truncate"]


def _ply_field(token, kind):
    """A body token packed as a binary field of PLY type `kind`, or as its
    text when the type has no such value."""
    code = _PLY_STRUCT[kind]
    try:
        return struct.pack("<" + code, (float if code in "fd" else int)(token))
    except (ValueError, OverflowError, struct.error):
        return token.encode()


def _mutate_ply(fmt, index, kind, i, j, token, line, byte):
    """The PLY file's bytes after one mutation: a header line replaced by
    `line`, a body token by `token`, a byte by `byte`, or a truncation."""
    header = ["ply", f"format {fmt} 1.0", f"element vertex {_PLY_BAR.n_vertices}",
              "property double x", "property double y", "property double z",
              "property uchar quality", "property int label",
              f"element face {len(_PLY_BAR.triangles)}",
              f"property list uchar {index} vertex_indices", "end_header"]
    rows = [list(row) for row in _PLY_ROWS]
    if kind == "header":
        header[i % len(header)] = line
    elif kind == "token":
        row = rows[i % len(rows)]
        row[j % len(row)] = token
    if fmt == "ascii":
        body = "".join(" ".join(row) + "\n" for row in rows).encode()
    else:
        types = {5: ["double"] * 3 + ["uchar", "int"], 4: ["uchar"] + [index] * 3}
        body = b"".join(_ply_field(word, type_) for row in rows
                        for word, type_ in zip(row, types[len(row)]))
    data = bytearray(("\n".join(header) + "\n").encode() + body)
    if kind == "byte":  # counted from the end, so small draws land in the body
        data[-1 - i % len(data)] = byte
    elif kind == "truncate":
        del data[-1 - j % len(data):]
    return bytes(data)


@_FUZZ
@given(fmt=st.sampled_from(["ascii", "binary_little_endian"]),
       index=st.sampled_from(["int", "uint"]), kind=st.sampled_from(_PLY_MUTATIONS),
       i=st.integers(0, 10_000), j=st.integers(0, 100_000), token=st.sampled_from(_PLY_TOKENS),
       line=st.sampled_from(_PLY_LINES), byte=st.integers(0, 255))
@example(fmt="ascii", index="int", kind="token", i=0, j=3, token="300", line="", byte=0)
@example(fmt="ascii", index="int", kind="token", i=1, j=3, token="-1", line="", byte=0)
@example(fmt="ascii", index="int", kind="token", i=2, j=4, token="99999999999", line="",
         byte=0)
# a float index type is refused, so only these examples draw it
@example(fmt="binary_little_endian", index="float", kind="token", i=24, j=3, token="nan",
         line="", byte=0)
@example(fmt="binary_little_endian", index="float", kind="token", i=25, j=1, token="1e30",
         line="", byte=0)
@example(fmt="binary_little_endian", index="float", kind="token", i=26, j=2, token="2.5",
         line="", byte=0)
def test_basis_on_mutated_ply_keeps_the_exit_contract(fmt, index, kind, i, j, token, line,
                                                      byte):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path, out = root / "mesh.ply", root / "mesh.basis.npz"
        path.write_bytes(_mutate_ply(fmt, index, kind, i, j, token, line, byte))
        _check_contract(["basis", path, "-k", "8", "-o", out], root, {out})


_TARGET = _BARS["small"]
# the correspondence file `match` writes: comments, then one index per vertex
_MAP = ["# source = a.mwd", f"# source_mesh = {_TARGET.content_hash()}",
        f"# target_mesh = {_TARGET.content_hash()}",
        *(str(v) for v in range(_TARGET.n_vertices - 1, -1, -1))]


@_FUZZ
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
            _mutate(_MAP, kind, i, j, token, factor, rows=slice(3, len(_MAP))))
        _check_contract(["eval", pred, truth, mesh, "-o", root / "report"], root,
                        {root / "report.summary.txt", root / "report.curves.csv"})


def _mwd_bytes(values, meta):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.mwd"
        save_descriptors(path, DescriptorField(values, "weds", meta))
        return path.read_bytes()


# two small fields; a .mwd file is the magic, the version, n, d and the
# metadata length (bytes 4:32), the JSON metadata, then n x d float64 values
_FIELDS = {
    "a": _mwd_bytes(np.random.default_rng(5).standard_normal((6, 3)),
                    {"k": 8, "mesh_hash": _TARGET.content_hash()}),
    "b": _mwd_bytes(np.random.default_rng(6).standard_normal((7, 3)), {"k": 8}),
}
_WORDS = {"version": (4, "<I"), "n": (8, "<Q"), "d": (16, "<Q"), "meta_len": (24, "<Q")}
_WORD_VALUES = [0, 1, 2, 3, 5, 6, 7, 8, 30, 31, 2**31, 2**32 - 1, 2**32, 2**62, 2**63,
                2**64 - 1]
_PAYLOAD = [np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324, -0.0]
_MWD_MUTATIONS = ["magic", "header", "meta", "truncate", "payload"]


def _mutate_mwd(data, kind, i, j, byte, word, value):
    data = bytearray(data)
    n, d, meta_len = struct.unpack("<QQQ", data[8:32])
    if kind == "magic":
        data[i % 4] = byte
    elif kind == "header":
        offset, fmt = _WORDS[word]
        struct.pack_into(fmt, data, offset, value % 2 ** (8 * struct.calcsize(fmt)))
    elif kind == "meta":
        data[32 + i % meta_len] = byte
    elif kind == "truncate":
        del data[j % len(data):]
    elif kind == "payload":
        struct.pack_into("<d", data, 32 + meta_len + 8 * (i % (n * d)), _PAYLOAD[j % 7])
    return bytes(data)


def _match_contract(files):
    """Exit code of ``meshwave match a.mwd b.mwd`` on the given file bytes,
    which keeps the exit-code contract and writes the map only on success."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in files.items():
            (root / f"{name}.mwd").write_bytes(data)
        out = root / "map.txt"
        return _check_contract(["match", root / "a.mwd", root / "b.mwd", "-o", out], root,
                               {out})


@_FUZZ
@given(which=st.sampled_from(sorted(_FIELDS)), kind=st.sampled_from(_MWD_MUTATIONS),
       i=st.integers(0, 10_000), j=st.integers(0, 100_000), byte=st.integers(0, 255),
       word=st.sampled_from(sorted(_WORDS)), value=st.sampled_from(_WORD_VALUES))
@example(which="a", kind="header", i=0, j=0, byte=0, word="n", value=0)
@example(which="b", kind="meta", i=0, j=0, byte=ord("["), word="n", value=0)
@example(which="a", kind="payload", i=4, j=0, byte=0, word="n", value=0)
def test_match_on_mutated_descriptor_file_keeps_the_exit_contract(which, kind, i, j, byte,
                                                                 word, value):
    files = dict(_FIELDS)
    files[which] = _mutate_mwd(files[which], kind, i, j, byte, word, value)
    _match_contract(files)


def _raw_mwd(n, d, meta, payload=b""):
    return b"MWDF" + struct.pack("<IQQQ", 1, n, d, len(meta)) + meta + payload


def test_match_refuses_an_empty_descriptor_field():
    # a zero count beside a huge one made numpy raise from np.empty; an
    # empty field matched to an empty map that eval then refused
    for n, d in ((2**64 - 1, 0), (0, 2**63), (0, 3), (6, 0)):
        assert _match_contract({"a": _raw_mwd(n, d, b"{}"), "b": _FIELDS["b"]}) == 2


def test_match_refuses_a_descriptor_file_longer_than_its_header():
    # a row or column count lowered in the header loaded the leading values
    # and ignored the rest
    for word, value in (("n", 5), ("d", 2)):
        assert _match_contract({"a": _mutate_mwd(_FIELDS["a"], "header", 0, 0, 0, word, value),
                                "b": _FIELDS["b"]}) == 2


def test_match_refuses_deeply_nested_metadata():
    # json.loads raised RecursionError out of load_descriptors
    meta = b"[" * 100_000 + b"]" * 100_000
    assert _match_contract({"a": _raw_mwd(6, 3, meta, bytes(6 * 3 * 8)),
                            "b": _FIELDS["b"]}) == 2


def test_match_escapes_lone_surrogates_in_metadata(tmp_path):
    # a lone surrogate in the map's comment made writing it raise
    # UnicodeEncodeError; a mesh hash can no longer carry one, an
    # undecodable byte in a file name still does
    source = tmp_path / os.fsdecode(b"a\xff.mwd")
    source.write_bytes(_FIELDS["a"])
    (tmp_path / "b.mwd").write_bytes(_FIELDS["b"])
    out = tmp_path / "map.txt"
    assert main(["match", str(source), str(tmp_path / "b.mwd"), "-o", str(out)]) == 0
    assert "a\\udcff.mwd\n" in out.read_text(encoding="utf-8")


_HEX = _TARGET.content_hash()


@pytest.mark.parametrize("which, stored", [
    ("a", "ab\ncd"),
    ("b", f"{_HEX}\ntarget_mesh = {'0' * 64}"),
    ("a", "\ud800"),
    ("a", _HEX.upper()),
    ("b", _HEX[:-1]),
    ("a", 12345),
])
def test_match_refuses_a_mesh_hash_that_is_not_hex_digits(which, stored):
    # match copied the stored hash into the map's comment, where a newline
    # started a line of its own, such as a target_mesh line eval reads
    files = dict(_FIELDS)
    values = np.random.default_rng(7).standard_normal((6, 3))
    files[which] = _raw_mwd(6, 3, json.dumps({"mesh_hash": stored}).encode(), values.tobytes())
    assert _match_contract(files) == 2


# the values of dissimilarity's field: signed zeros, subnormals, the
# extremes, and NaN and inf, which save_descriptors would refuse to write
_FIELD_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1.0, -3.0, 1e308, -1e308,
                 np.nan, np.inf, -np.inf]


@_FUZZ
@given(fill=st.sampled_from([None, *_FIELD_VALUES]),
       spots=st.lists(st.tuples(st.integers(0, 10_000), st.sampled_from(_FIELD_VALUES)),
                      max_size=5),
       vertex=st.integers(0, _TARGET.n_vertices - 1), d=st.sampled_from([1, 3]))
@example(fill=0.0, spots=[], vertex=0, d=3)  # a constant field: every distance 0
@example(fill=None, spots=[(4, 1e308), (5, -1e308)], vertex=1, d=3)
@example(fill=5e-324, spots=[(0, -5e-324)], vertex=0, d=1)
@example(fill=None, spots=[(7, np.nan)], vertex=2, d=3)
def test_dissimilarity_on_fuzzed_field_values_keeps_the_exit_contract(fill, spots, vertex, d):
    # a random field or a constant one, with a few values replaced
    n = _TARGET.n_vertices
    values = (np.random.default_rng(10).standard_normal((n, d)) if fill is None
              else np.full((n, d), fill))
    for i, value in spots:
        values.flat[i % values.size] = value
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        mesh, field, out = root / "mesh.off", root / "x.mwd", root / "out.ply"
        mesh.write_text("\n".join(_off_text(_TARGET)) + "\n")
        meta = json.dumps({"type": "weds", "mesh_hash": _HEX}).encode()
        field.write_bytes(_raw_mwd(n, d, meta, values.tobytes()))
        code = _check_contract(["dissimilarity", field, mesh, "--vertex", vertex, "-o", out],
                               root, {out})
        if code == 0:
            assert read_ply(out)[0].tobytes() == _TARGET.vertices.tobytes()
    assert code == (0 if np.isfinite(values).all() else 2)


# a wavelet and a Chebyshev network over the 24-vertex bar, the names of
# the arrays of their checkpoints (holding the training state older files
# held), and the descriptor field infer runs them on
_NETS = {kind: build_model("MGCONV4(3)+FC4", input_dim=4, kind=kind, head_dim=5, seed=2)
         for kind in ("mgcn", "chebyshev")}
_NAMES = sorted(["__meta__", "opt/step", *(f"{group}/{name}" for name in _NETS["mgcn"].params
                                           for group in ("param", "opt/m", "opt/v"))])
_INPUT = _mwd_bytes(np.random.default_rng(8).standard_normal((_TARGET.n_vertices, 4)),
                    {"k": 8, "mesh_hash": _TARGET.content_hash()})
_META_FIELDS = ["architecture", "kind", "input_dim", "head_dim", "scale_sets",
                "format_version", "metadata"]
# the scale counts beyond the file's arrays must be refused before anything
# sized by them is made; 10 digits and more are refused by the parser
_HUGE = ["MGCONV4(1000000)+FC4", "MGCONV4(1000000000)+FC4", "MGCONV4(" + "9" * 5000 + ")+FC4"]
_META_VALUES = [None, 0, -1, 1, 3, 4, 2**64, 1.5, True, "x", "mgcn", "chebyshev",
                "FC4", "MGCONV4(4)+FC4", "MGCONV5(3)+FC4", *_HUGE, [], {}, [[24, 16, 8]],
                [[8, 16, 24]], [[0, 1, 2]], [[1, 2, 3]], [[0, 1, 3000]], [[24.0, 16, 8]],
                {"descriptor": "x"}, {"bank": {}}]
_ARRAY_EDITS = {
    "float32": lambda a: a.astype(np.float32),
    "int64": lambda a: a.astype(np.int64),
    "complex": lambda a: a.astype(np.complex128),
    "bool": lambda a: a.astype(bool),
    "string": lambda a: np.asarray("x"),
    "pair": lambda a: np.asarray([1, 2]),
    "row": lambda a: a[None],
    "short": lambda a: a.reshape(-1)[:-1],
    "scalar": lambda a: a.reshape(-1)[0],
    "inf": lambda a: np.full(a.shape, np.inf),
    "nan": lambda a: np.full(a.shape, np.nan),
    "1e308": lambda a: np.full(a.shape, 1e308),
}
# the checkpoints record k = 8 (-k is a usage error for a network that
# reads no eigenbasis, which a mutation can make)
_K8 = dict(default_config()["descriptor"], k=8)
_ADDED = ["param/extra", "opt/m/extra", "opt/v/fc1.w.x", "opt/other", "other"]
_CKPT_MUTATIONS = ["meta", "array", "drop", "add", "truncate"]


def _write_mutated_checkpoint(path, net, kind, i, j, field, value, edit):
    """The checkpoint of `net` at path, after one mutation."""

    def edit_meta(meta):
        meta[field] = value

    def edit_arrays(arrays):
        name = _NAMES[i % len(_NAMES)]
        if kind == "array":
            arrays[name] = _ARRAY_EDITS[edit](arrays[name])
        elif kind == "drop":
            del arrays[name]
        elif kind == "add":
            arrays[_ADDED[i % len(_ADDED)]] = np.zeros(3)

    _shared.edited_checkpoint(path, _NETS[net], edit_meta if kind == "meta" else None,
                              edit_arrays, legacy=True,
                              metadata={"note": "fuzz", "descriptor": _K8})
    if kind == "truncate":
        data = path.read_bytes()
        path.write_bytes(data[: j % len(data)])


@_FUZZ
@given(net=st.sampled_from(sorted(_NETS)), kind=st.sampled_from(_CKPT_MUTATIONS),
       i=st.integers(0, 10_000), j=st.integers(0, 100_000),
       field=st.sampled_from(_META_FIELDS), value=st.sampled_from(_META_VALUES),
       edit=st.sampled_from(sorted(_ARRAY_EDITS)))
@example(net="mgcn", kind="meta", i=0, j=0, field="scale_sets", value=[[1, 2, 3]],
         edit="pair")
@example(net="chebyshev", kind="meta", i=0, j=0, field="scale_sets", value=[[0, 1, 3000]],
         edit="pair")
@example(net="mgcn", kind="array", i=_NAMES.index("opt/step"), j=0, field="kind", value=None,
         edit="pair")
@example(net="chebyshev", kind="meta", i=0, j=0, field="architecture", value=_HUGE[0],
         edit="pair")
@example(net="mgcn", kind="meta", i=0, j=0, field="architecture", value=_HUGE[2],
         edit="pair")
@example(net="mgcn", kind="array", i=_NAMES.index("param/conv0.w0"), j=0, field="kind",
         value=None, edit="inf")
@example(net="chebyshev", kind="array", i=_NAMES.index("param/fc1.w"), j=0, field="kind",
         value=None, edit="1e308")
def test_infer_on_mutated_checkpoint_keeps_the_exit_contract(net, kind, i, j, field, value,
                                                             edit):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        mesh, desc, ckpt, out = (root / name for name in
                                 ("bar.off", "bar.mwd", "net.npz", "out.mwd"))
        mesh.write_text("\n".join(_off_text(_TARGET)) + "\n")
        desc.write_bytes(_INPUT)
        _write_mutated_checkpoint(ckpt, net, kind, i, j, field, value, edit)
        code = _check_contract(["infer", ckpt, mesh, desc, "-o", out], root, {out})
        refused = [[[1, 2, 3]], [[0, 1, 3000]], *_HUGE]
        if kind == "meta" and field in ("scale_sets", "architecture") and value in refused:
            assert code == 2  # stored sets other than the derived ones, or a count too large


# the inputs of the file-level faults: each file's name and valid bytes
_FILES = {
    "off": ("mesh.off", ("\n".join(_MESHES["small"]) + "\n").encode()),
    "obj": ("mesh.obj", ("\n".join(_OBJ) + "\n").encode()),
    "ply-ascii": ("mesh.ply", _mutate_ply("ascii", "int", "none", 0, 0, "", "", 0)),
    "ply-binary": ("mesh.ply", _mutate_ply("binary_little_endian", "int", "none", 0, 0, "",
                                           "", 0)),
    "config": ("x.cfg", format_config(dict(default_config(), descriptor=_K8)).encode()),
    "prediction": ("pred.txt", ("\n".join(_MAP) + "\n").encode()),
    "truth": ("truth.txt", ("\n".join(_MAP) + "\n").encode()),
    "mwd": ("a.mwd", _FIELDS["a"]),
}


def _file_fault_contract(name, fault, offset=0):
    """Write every input the command of `name` reads, the one `name` names
    with the fault, and check the exit-code contract on that command."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        mesh, out = root / "mesh.off", root / "out"
        mesh.write_text("\n".join(_off_text(_TARGET)) + "\n")
        for key in ("config", "prediction", "truth"):
            (root / _FILES[key][0]).write_bytes(_FILES[key][1])
        (root / "b.mwd").write_bytes(_FIELDS["b"])
        path, data = root / _FILES[name][0], _FILES[name][1]
        if fault == "directory":
            path.unlink(missing_ok=True)
            path.mkdir()
        elif fault == "empty":
            path.write_bytes(b"")
        else:
            data = bytearray(data)
            data[offset % len(data)] = 0xFF
            path.write_bytes(bytes(data))
        if name in ("prediction", "truth"):
            argv, outputs = (["eval", root / "pred.txt", root / "truth.txt", mesh, "-o", out],
                             {root / "out.summary.txt", root / "out.curves.csv"})
        elif name == "mwd":
            argv, outputs = ["match", path, root / "b.mwd", "-o", out], {out}
        elif name == "config":
            argv, outputs = ["basis", mesh, "--config", path, "-o", out], {out}
        else:
            argv, outputs = ["basis", path, "-k", "8", "-o", out], {out}
        return _check_contract(argv, root, outputs)


@pytest.mark.parametrize("fault", ["directory", "empty"])
@pytest.mark.parametrize("name", sorted(_FILES))
def test_a_directory_or_empty_file_in_place_of_an_input_keeps_the_exit_contract(name, fault):
    code = _file_fault_contract(name, fault)
    assert code == 2 or (fault, name) == ("empty", "config")  # an empty config is the default


@_FUZZ
@given(name=st.sampled_from(sorted(_FILES)), offset=st.integers(0, 100_000))
@example(name="off", offset=0)
@example(name="obj", offset=0)
@example(name="config", offset=0)
def test_a_0xff_byte_in_an_input_keeps_the_exit_contract(name, offset):
    _file_fault_contract(name, offset=offset, fault="byte")


# every output of every command: the argv that writes it to OUT (for eval,
# the prefix whose suffix names it), the suffix, and the work each run counts
_OUT = object()
_OUTPUTS = {
    "basis": (["basis", "mesh.off", "-k", "8", "-o", _OUT], "", "eig_generalized"),
    "basis-force": (["basis", "mesh.off", "-k", "8", "-o", _OUT, "--force"], "",
                    "eig_generalized"),
    "descriptor": (["descriptor", "mesh.off", "--type", "hks", "--num", "4", "-k", "8",
                    "-o", _OUT], "", "eig_generalized"),
    "descriptor-csv": (["descriptor", "mesh.off", "--type", "hks", "--num", "4", "-k", "8",
                        "-o", "ok.mwd", "--csv", _OUT], "", "eig_generalized"),
    "match": (["match", "a.mwd", "b.mwd", "-o", _OUT], "", "nn_match"),
    "eval-summary": (["eval", "pred.txt", "truth.txt", "mesh.off", "-o", _OUT],
                     ".summary.txt", "evaluate_map"),
    "eval-curves": (["eval", "pred.txt", "truth.txt", "mesh.off", "-o", _OUT],
                    ".curves.csv", "evaluate_map"),
    "train": (["train", "--config", "train.cfg", "-o", _OUT], "", "eig_generalized"),
    "infer": (["infer", "net.npz", "mesh.off", "bar.mwd", "-o", _OUT], "", "eig_generalized"),
    "dissimilarity": (["dissimilarity", "bar.mwd", "mesh.off", "--vertex", "0", "-o", _OUT],
                      "", None),
}


def _write_inputs(root):
    """Valid inputs for every command in `_OUTPUTS`, so only the output fails."""
    (root / "mesh.off").write_text("\n".join(_off_text(_TARGET)) + "\n")
    for name in ("a", "b"):
        (root / f"{name}.mwd").write_bytes(_FIELDS[name])
    for name in ("pred.txt", "truth.txt"):
        (root / name).write_text("\n".join(_MAP) + "\n")
    (root / "bar.mwd").write_bytes(_INPUT)
    save_checkpoint(root / "net.npz", _NETS["mgcn"], metadata={"descriptor": _K8})
    cfg = default_config()
    cfg["descriptor"].update(_K8, type="hks", num=4)
    cfg["train"].update(meshes=[str(root / "mesh.off")], phase1_epochs=1, phase2_epochs=1)
    (root / "train.cfg").write_text(format_config(cfg))


@pytest.mark.parametrize("fault", ["directory", "missing", "file", "separator"])
@pytest.mark.parametrize("output", sorted(_OUTPUTS))
def test_an_output_that_cannot_be_written_exits_2_before_any_work(tmp_path, monkeypatch,
                                                                   output, fault):
    argv, suffix, work = _OUTPUTS[output]
    calls = []
    if work:
        real = getattr(cli, work)
        monkeypatch.setattr(cli, work, lambda *a, **k: calls.append(1) or real(*a, **k))
    _write_inputs(tmp_path)
    (tmp_path / "plain").write_text("a file, not a directory\n")
    # a trailing separator names a directory, though Path("new/") is "new"
    out = {"directory": "out", "missing": "nodir/out", "file": "plain/out",
           "separator": "new/"}[fault]
    if fault == "directory":
        (tmp_path / f"{out}{suffix}").mkdir()
    elif (fault, output) == ("missing", "train"):  # it makes them, but not under a file
        out = "plain/nodir/out"
    out = f"{tmp_path}/{out}"
    before = sorted(tmp_path.rglob("*"))
    stderr = io.StringIO()
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([out if a is _OUT else a for a in argv])
    err = stderr.getvalue()
    assert code == 2, err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1, err
    # the path once, not once per wrapper; eval names the summary first
    assert err.count(out) == 1 and (fault != "directory" or f"{out}{suffix}:" in err), err
    assert sorted(tmp_path.rglob("*")) == before
    assert calls == []


# the mesh hash an artifact records: absent, or any value below; only
# absent (None included), "" or _TARGET's own hash, _HEX, is accepted
_POSE = bent_bar(0.6, 6, 4)  # another pose of _TARGET, the same 24 vertices
_BASIS = _shared.basis_of(_TARGET, 8)
_ABSENT = "absent"
_HEX_DIGITS = "0123456789abcdef"
_ONE_DIGIT = st.integers(0, 63).map(
    lambda i: _HEX[:i] + _HEX_DIGITS[(_HEX_DIGITS.index(_HEX[i]) + 1) % 16] + _HEX[i + 1:])
_STRINGS = st.one_of(st.sampled_from(["", _HEX, _POSE.content_hash(), _HEX.upper(), _HEX[:63],
                                      f"{_HEX[:32]}\n{_HEX[32:]}"]), _ONE_DIGIT)
_RECORDED = {"text": st.one_of(st.sampled_from([_ABSENT, None]), _STRINGS),
             "json": st.one_of(st.sampled_from([_ABSENT, None, 12345, [_HEX]]), _STRINGS)}


def _basis_arrays(value):
    """_BASIS's cache arrays, recording `value` (no key if absent or None)."""
    arrays = dict(version=np.int64(1), eigenvalues=_BASIS.eigenvalues,
                  eigenvectors=_BASIS.eigenvectors, areas=_BASIS.areas)
    if value not in (_ABSENT, None):
        arrays["mesh_hash"] = np.bytes_(value.encode())
    return arrays


def _write_basis(path, value, arrays=None):
    """_BASIS as a cache recording `value`, or the cache `arrays`."""
    with open(path, "wb") as fh:
        np.savez(fh, **(arrays or _basis_arrays(value)))


def _write_field(path, value):
    """A WEDS field of _TARGET recording `value` (no key if absent)."""
    meta = {"type": "weds"} if value == _ABSENT else {"type": "weds", "mesh_hash": value}
    values = np.random.default_rng(9).standard_normal((_TARGET.n_vertices, 4))
    path.write_bytes(_raw_mwd(*values.shape, json.dumps(meta).encode(), values.tobytes()))


def _write_map(path, value):
    """`match`'s map onto _TARGET, its target_mesh comment holding `value`
    (no comment if absent or None)."""
    lines = [line for line in _MAP if not line.startswith("# target_mesh")]
    if value not in (_ABSENT, None):
        lines.insert(1, f"# target_mesh = {value}")
    path.write_text("\n".join(lines) + "\n")


# the file the value is written to, the command that reads it, and the
# files that command writes
_SITES = {
    "basis": (_write_basis, "x.npz", ["basis", "mesh.off", "-k", "8", "-o", "x.npz"], []),
    "descriptor --basis": (_write_basis, "x.npz",
                           ["descriptor", "mesh.off", "--type", "hks", "--num", "4", "-k", "8",
                            "--basis", "x.npz", "-o", "out"], ["out"]),
    "infer --basis": (_write_basis, "x.npz",
                      ["infer", "net.npz", "mesh.off", "bar.mwd", "--basis", "x.npz",
                       "-o", "out"], ["out", "x.npz.l1.npz"]),
    "infer": (_write_field, "x.mwd", ["infer", "net.npz", "mesh.off", "x.mwd", "-o", "out"],
              ["out"]),
    "dissimilarity": (_write_field, "x.mwd",
                      ["dissimilarity", "x.mwd", "mesh.off", "--vertex", "0", "-o", "out"],
                      ["out"]),
    "eval --desc-b": (_write_field, "x.mwd",
                      ["eval", "pred.txt", "truth.txt", "mesh.off", "--desc-a", "bar.mwd",
                       "--desc-b", "x.mwd", "-o", "out"], ["out.summary.txt", "out.curves.csv"]),
    "eval --desc-a": (_write_field, "x.mwd",
                      ["eval", "pred.txt", "truth.txt", "mesh.off", "--desc-a", "x.mwd",
                       "--desc-b", "bar.mwd", "-o", "out"], ["out.summary.txt", "out.curves.csv"]),
    "eval": (_write_map, "x.txt", ["eval", "x.txt", "truth.txt", "mesh.off", "-o", "out"],
             ["out.summary.txt", "out.curves.csv"]),
}


def _site_and_value(site):
    return st.tuples(st.just(site), _RECORDED["json" if _SITES[site][0] is _write_field
                                              else "text"])


@_FUZZ
@given(case=st.sampled_from(sorted(_SITES)).flatmap(_site_and_value))
@example(case=("basis", _HEX))
@example(case=("basis", _POSE.content_hash()))
@example(case=("descriptor --basis", _HEX))
@example(case=("descriptor --basis", ""))
@example(case=("dissimilarity", ""))
@example(case=("eval", ""))
@example(case=("infer --basis", _HEX))
@example(case=("infer --basis", _POSE.content_hash()))
@example(case=("descriptor --basis", _ABSENT))
@example(case=("infer", _POSE.content_hash()))
@example(case=("eval --desc-a", _POSE.content_hash()))
@example(case=("eval --desc-a", None))
@example(case=("eval", _HEX))
@example(case=("eval", _ABSENT))
@example(case=("eval", f"{_HEX[:32]}\n{_HEX[32:]}"))
def test_an_artifact_is_used_only_with_the_mesh_it_records(case):
    site, value = case
    write, name, argv, outputs = _SITES[site]
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        root = Path(tmp)
        _write_inputs(root)
        write(root / name, value)
        before = set(root.iterdir())
        code, err = _run(argv)
        assert set(root.iterdir()) == before | {root / out for out in outputs if code == 0}
    if value in (_ABSENT, None, "", _HEX):
        assert (code, err) == (0, "")
    else:
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err


def _files_in(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


# per command, an output that names one of its inputs or another output
_COLLISIONS = {
    "basis-mesh": ["basis", "mesh.off", "-k", "8", "-o", "mesh.off"],
    "basis-config": ["basis", "mesh.off", "--config", "train.cfg", "-o", "train.cfg"],
    "descriptor-csv": ["descriptor", "mesh.off", "--type", "hks", "--num", "4", "-k", "8",
                       "-o", "x.mwd", "--csv", "x.mwd"],
    "descriptor-mesh": ["descriptor", "mesh.off", "--type", "hks", "--num", "4", "-k", "8",
                        "-o", "mesh.off"],
    "descriptor-sidecar": ["descriptor", "mesh.off", "-k", "8", "--basis", "x.npz",
                           "--csv", "x.npz.range.npz"],
    "match": ["match", "a.mwd", "b.mwd", "-o", "b.mwd"],
    "eval": ["eval", "rep.summary.txt", "truth.txt", "mesh.off", "-o", "rep"],
    "train": ["train", "--config", "train.cfg", "-o", "mesh.off"],
    "infer": ["infer", "net.npz", "mesh.off", "bar.mwd", "-o", "net.npz"],
    "infer-basis": ["infer", "net.npz", "mesh.off", "bar.mwd", "--basis", "x.npz",
                    "-o", "x.npz"],
    "infer-sidecar": ["infer", "net.npz", "mesh.off", "bar.mwd", "--basis", "x.npz",
                      "-o", "x.npz.l1.npz"],
    "dissimilarity": ["dissimilarity", "bar.mwd", "mesh.off", "--vertex", "0",
                      "-o", "./mesh.off"],
}


@pytest.mark.parametrize("case", sorted(_COLLISIONS))
def test_an_output_that_names_another_file_of_the_command_exits_2_before_any_work(
        tmp_path, monkeypatch, case):
    # descriptor -o x.mwd --csv x.mwd left a CSV in x.mwd, and descriptor
    # b.ply -o b.ply overwrote its own mesh
    monkeypatch.setattr(cli, "eig_generalized", lambda *a, **k: pytest.fail("eigensolve"))
    _write_inputs(tmp_path)
    _write_basis(tmp_path / "x.npz", _HEX)
    (tmp_path / "rep.summary.txt").write_text("\n".join(_MAP) + "\n")
    before = _files_in(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, err = _run(_COLLISIONS[case])
    assert code == 2, err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1, err
    assert _files_in(tmp_path) == before


# the commands that read an atom statistics sidecar, and the sidecar each keeps
_SIDECAR_RUNS = {
    "descriptor": (["descriptor", "mesh.off", "--num", "4", "-k", "8"], "x.npz.range.npz"),
    "infer": (["infer", "net.npz", "mesh.off", "bar.mwd"], "x.npz.l1.npz"),
}
# each command and an array of its sidecar
_SIDECAR_ARRAYS = [(command, name) for command, names in (
    ("descriptor", ["hi", "key", "lo", "tables_hash"]),
    ("infer", ["key", "l1", "tables_hash"])) for name in names]


@functools.lru_cache(maxsize=None)
def _sidecars_and_fresh_outputs():
    """Per command, the sidecar it leaves beside _BASIS (its bytes and
    arrays) and its output without --basis."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        _write_inputs(Path(tmp))
        _write_basis(Path("x.npz"), _HEX)
        result = {}
        for command, (argv, sidecar) in _SIDECAR_RUNS.items():
            assert _run([*argv, "--basis", "x.npz", "-o", "cached"]) == (0, "")
            assert _run([*argv, "-o", "fresh"]) == (0, "")
            assert Path("cached").read_bytes() == Path("fresh").read_bytes()
            with np.load(sidecar) as data:
                arrays = {name: data[name] for name in data.files}
            assert sorted(arrays) == [n for c, n in _SIDECAR_ARRAYS if c == command]
            result[command] = Path(sidecar).read_bytes(), arrays, Path("fresh").read_bytes()
        return result


# values of a table entry, and edits of a key or digest
_ENTRIES = {"version": [-1, 0, 1, 2, 3, 4, 5, 2**40],
            "values": [np.nan, np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0, 5e-324, -1.0, 1.0,
                       "ulp", "double"]}
_HASH_EDITS = [lambda h: h[::-1], lambda h: h[:-1], lambda h: h + b"0", lambda h: h.upper(),
               lambda h: b""]
_SIDECAR_MUTATIONS = ["entry", "array", "drop", "truncate"]


def _entry(array, i, value):
    """`array` with entry i replaced by `value`: a number, or "ulp" or
    "double" for the entry moved by one ulp or doubled."""
    array = array.copy()
    flat = array.reshape(-1)
    old = flat[i % flat.size]
    flat[i % flat.size] = (np.nextafter(old, np.inf) if value == "ulp"
                           else 2 * old if value == "double" else value)
    return array


def _mutated_sidecar(command, kind, name, i, j, edit):
    data, arrays, _ = _sidecars_and_fresh_outputs()[command]
    if kind == "truncate":
        return data[: j % len(data)]
    arrays = dict(arrays)
    if kind == "drop":
        del arrays[name]
    elif arrays[name].dtype.kind == "S":  # the key or the digest
        hashed = arrays[name].tobytes()
        arrays[name] = (_ARRAY_EDITS[edit](np.zeros(3)) if kind == "array"
                        else np.bytes_(_HASH_EDITS[j % len(_HASH_EDITS)](hashed)))
    elif kind == "array":
        arrays[name] = _ARRAY_EDITS[edit](arrays[name])
    else:
        arrays[name] = _entry(arrays[name], i, _ENTRIES["values"][j % len(_ENTRIES["values"])])
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


@_FUZZ
@given(case=st.sampled_from(_SIDECAR_ARRAYS), kind=st.sampled_from(_SIDECAR_MUTATIONS),
       i=st.integers(0, 10_000), j=st.integers(0, 100_000),
       edit=st.sampled_from(sorted(_ARRAY_EDITS)))
@example(case=("infer", "l1"), kind="entry", i=0, j=_ENTRIES["values"].index("ulp"), edit="pair")
@example(case=("descriptor", "hi"), kind="entry", i=5, j=_ENTRIES["values"].index(1e308),
         edit="pair")
@example(case=("infer", "l1"), kind="entry", i=7, j=_ENTRIES["values"].index("double"),
         edit="pair")
@example(case=("descriptor", "key"), kind="drop", i=0, j=0, edit="pair")
@example(case=("infer", "key"), kind="entry", i=0, j=0, edit="pair")
@example(case=("descriptor", "tables_hash"), kind="array", i=0, j=0, edit="inf")
def test_a_mutated_atom_sidecar_gives_the_fresh_output_or_exits_2(case, kind, i, j, edit):
    command, name = case
    sidecar = _mutated_sidecar(command, kind, name, i, j, edit)
    argv, path = _SIDECAR_RUNS[command]
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        root = Path(tmp)
        _write_inputs(root)
        _write_basis(root / "x.npz", _HEX)
        (root / path).write_bytes(sidecar)
        code = _check_contract([*argv, "--basis", "x.npz", "-o", "out"], root, {root / "out"})
        if code == 0:
            assert (root / "out").read_bytes() == _sidecars_and_fresh_outputs()[command][2]
        else:
            assert code == 2
            assert (root / path).read_bytes() == sidecar


# the arrays of a basis cache a mutation changes, and the factors a
# "scale" mutation multiplies one by
_CACHE_NAMES = ["areas", "eigenvalues", "eigenvectors", "version"]
_CACHE_MUTATIONS = ["array", "entry", "order", "scale", "drop"]
_FACTORS = [-1.0, 0.0, 0.5, 2.0, 1 + 2.0**-40, 1e-300, 1e300]


def _mutated_basis_arrays(kind, name, i, j, edit, factor):
    """_BASIS's cache arrays after one mutation of the array `name`."""
    arrays = _basis_arrays(_HEX)
    array = np.asarray(arrays[name])
    if kind == "drop":
        del arrays[name]
    elif kind == "array":
        arrays[name] = _ARRAY_EDITS[edit](array)
    elif kind == "entry":
        entries = _ENTRIES["version" if name == "version" else "values"]
        arrays[name] = _entry(array, i, entries[j % len(entries)])
    elif kind == "order":  # reversed along one axis
        arrays[name] = np.flip(array, axis=j % array.ndim) if array.ndim else array
    else:
        arrays[name] = array * factor
    return arrays


@_FUZZ
@given(kind=st.sampled_from(_CACHE_MUTATIONS), name=st.sampled_from(_CACHE_NAMES),
       i=st.integers(0, 10_000), j=st.integers(0, 100_000),
       edit=st.sampled_from(sorted(_ARRAY_EDITS)), factor=st.sampled_from(_FACTORS))
@example(kind="array", name="areas", i=0, j=0, edit="1e308", factor=-1.0)
@example(kind="array", name="version", i=0, j=0, edit="inf", factor=-1.0)
@example(kind="scale", name="eigenvalues", i=0, j=0, edit="pair", factor=1e300)
@example(kind="entry", name="eigenvalues", i=7, j=_ENTRIES["values"].index(1e308), edit="pair",
         factor=-1.0)
def test_a_mutated_basis_cache_keeps_the_exit_contract(kind, name, i, j, edit, factor):
    arrays = _mutated_basis_arrays(kind, name, i, j, edit, factor)
    for argv, sidecar in _SIDECAR_RUNS.values():
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            root = Path(tmp)
            _write_inputs(root)
            _write_basis(root / "x.npz", _HEX, arrays)
            _check_contract([*argv, "--basis", "x.npz", "-o", "out"], root,
                            {root / "out", root / sidecar})


@pytest.mark.parametrize("name, edit", [
    ("areas", lambda a: np.full(a.shape, 1e308)),
    ("version", lambda a: np.float64(np.inf)),
    ("eigenvalues", lambda a: a * 1e300),
    ("eigenvalues", lambda a: np.append(a[:-1], 1e308)),
    ("eigenvalues", lambda a: a * 2),
], ids=["huge-areas", "inf-version", "huge-eigenvalues", "huge-last-eigenvalue",
        "doubled-eigenvalues"])
def test_a_basis_cache_whose_pairs_do_not_solve_the_mesh_exits_2(name, edit):
    # the orthonormality check overflowed with a warning on huge areas, int()
    # raised OverflowError on an inf version, WEDS's lambda^2 or the filter
    # bank overflowed with a warning on huge eigenvalues, and doubled ones
    # gave a descriptor of no mesh; the pairs are now checked against the
    # mesh's pencil, as a fresh solve's are
    arrays = _basis_arrays(_HEX)
    arrays[name] = edit(arrays[name])
    for argv, _ in _SIDECAR_RUNS.values():
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            root = Path(tmp)
            _write_inputs(root)
            _write_basis(root / "x.npz", _HEX, arrays)
            assert _check_contract([*argv, "--basis", "x.npz", "-o", "out"], root, set()) == 2


@pytest.mark.parametrize("factor", [2.0, 1e300])
@pytest.mark.parametrize("command", sorted(_SIDECAR_RUNS))
def test_a_cache_that_records_no_mesh_is_checked_against_the_mesh_pencil(command, factor):
    # with no mesh_hash the pencil check was skipped: doubled eigenvalues
    # gave a field of no mesh and left a new sidecar, and eigenvalues times
    # 1e300 warned of overflow before exit 3
    arrays = _basis_arrays(_ABSENT)
    arrays["eigenvalues"] = factor * arrays["eigenvalues"]
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        root = Path(tmp)
        _write_inputs(root)
        _write_basis(root / "x.npz", _ABSENT, arrays)
        before = set(root.iterdir())
        code, err = _run([*_SIDECAR_RUNS[command][0], "--basis", "x.npz", "-o", "out"])
        assert set(root.iterdir()) == before
    assert code == 2 and err.count("\n") == 1, err
    assert err.startswith("error: x.npz: inconsistent basis cache: eigenpair residual"), err


# a config for _TARGET: WEDS of 4 dimensions from 8 pairs, the rest default
_CONFIG = format_config(dict(default_config(), descriptor=dict(_K8, num=4))).splitlines()
_CONFIG_TOKENS = _TOKENS + ["[descriptor]", "[model]", "[train]", "[pipeline]", "[x]", "=",
                            "k", "num", "type", "power", "k = 8", "k = 9", "num = 1024",
                            "power = 1", "power = 3", "type = hks", "type = wks", "type = x",
                            "seed = -1", "kind = chebyshev", "architecture = FC4", "x = 1"]
# `infer` reads the config's [descriptor] for a checkpoint that records none
_CONFIG_RUNS = {
    "descriptor": (["descriptor", "mesh.off", "--config", "x.cfg", "-o", "out"], ["out"]),
    "infer --basis": (["infer", "plain.npz", "mesh.off", "bar.mwd", "--config", "x.cfg",
                       "--basis", "x.npz", "-o", "out"], ["out", "x.npz.l1.npz"]),
}


@_FUZZ
@given(run=st.sampled_from(sorted(_CONFIG_RUNS)), kind=st.sampled_from(_MUTATIONS),
       i=st.integers(0, 10_000), j=st.integers(0, 100_000),
       token=st.sampled_from(_CONFIG_TOKENS), factor=st.sampled_from([1e-8, 0.5, 2.0, 1e8]))
@example(run="infer --basis", kind="token", i=_CONFIG.index("k = 8"), j=2, token="9",
         factor=1.0)
@example(run="descriptor", kind="token", i=_CONFIG.index("type = weds"), j=2, token="hks",
         factor=1.0)
@example(run="descriptor", kind="scale", i=0, j=0, token="", factor=1e8)
@example(run="infer --basis", kind="insert", i=1, j=0, token="x = 1", factor=1.0)
def test_a_mutated_config_keeps_the_exit_contract(run, kind, i, j, token, factor):
    argv, outputs = _CONFIG_RUNS[run]
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        root = Path(tmp)
        _write_inputs(root)
        _write_basis(root / "x.npz", _HEX)
        save_checkpoint(root / "plain.npz", _NETS["mgcn"])
        (root / "x.cfg").write_text(_mutate(_CONFIG, kind, i, j, token, factor,
                                            rows=slice(None)))
        _check_contract(argv, root, {root / out for out in outputs})
