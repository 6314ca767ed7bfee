import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import meshwave
from meshwave.cli import main
from meshwave.errors import DataError, MeshError
from meshwave.mesh import load_mesh
from meshwave.meshio import read_mesh_file, read_obj, read_off, read_ply, write_ply
from meshwave.synthetic import bent_bar, icosphere

import _shared

TRI_OFF = """OFF
3 1 0
0 0 0
1 0 0
0 1 0
3 0 1 2
"""


def test_read_off_triangle(tmp_path):
    p = tmp_path / "tri.off"
    p.write_text(TRI_OFF)
    vertices, triangles = read_off(p)
    assert vertices.shape == (3, 3)
    assert np.array_equal(triangles, [[0, 1, 2]])
    assert vertices.dtype == np.float64
    assert triangles.dtype == np.int64


def test_load_mesh_validates(tmp_path):
    p = tmp_path / "bad.off"
    p.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n")
    with pytest.raises(MeshError):
        load_mesh(p)
    # the reader alone lets the raw data through
    vertices, triangles = read_mesh_file(p)
    assert vertices.shape == (3, 3) and triangles.tolist() == [[0, 1, 1]]


def test_read_obj_one_based_indices(tmp_path):
    p = tmp_path / "quad.obj"
    p.write_text(
        "# comment\n"
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
        "f 1 2 3\nf 1 3 4\n"
    )
    vertices, triangles = read_obj(p)
    assert vertices.shape == (4, 3)
    assert np.array_equal(triangles, [[0, 1, 2], [0, 2, 3]])


def test_read_obj_slash_references(tmp_path):
    p = tmp_path / "tex.obj"
    p.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
        "vt 0 0\nvn 0 0 1\n"
        "f 1/1/1 2/1/1 3/1/1\n"
    )
    _, triangles = read_obj(p)
    assert np.array_equal(triangles, [[0, 1, 2]])


def test_obj_sphere_round_trip(tmp_path):
    mesh = icosphere(3)
    lines = [f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}" for v in mesh.vertices]
    lines += [f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}" for t in mesh.triangles]
    p = tmp_path / "sphere.obj"
    p.write_text("\n".join(lines) + "\n")
    vertices, triangles = read_obj(p)
    assert vertices.shape == (642, 3)
    assert triangles.shape == (1280, 3)
    assert np.array_equal(vertices, mesh.vertices)
    assert np.array_equal(triangles, mesh.triangles)


def test_ply_ascii_round_trip(tmp_path):
    mesh = icosphere(1)
    p = tmp_path / "s.ply"
    write_ply(p, mesh.vertices, mesh.triangles, comment="unit test")
    vertices, triangles = read_ply(p)
    assert np.array_equal(vertices, mesh.vertices)
    assert np.array_equal(triangles, mesh.triangles)


def test_ply_with_colors_still_reads_geometry(tmp_path):
    mesh = icosphere(0)
    colors = np.tile([10, 200, 31], (mesh.n_vertices, 1))
    p = tmp_path / "c.ply"
    write_ply(p, mesh.vertices, mesh.triangles, colors=colors)
    text = p.read_text()
    assert "property uchar red" in text
    assert " 10 200 31" in text
    vertices, triangles = read_ply(p)
    assert np.allclose(vertices, mesh.vertices)
    assert np.array_equal(triangles, mesh.triangles)


def test_ply_color_clipping(tmp_path):
    mesh = icosphere(0)
    colors = np.full((mesh.n_vertices, 3), 300.0)
    p = tmp_path / "clip.ply"
    write_ply(p, mesh.vertices, mesh.triangles, colors=colors)
    assert " 255 255 255" in p.read_text()


def _binary_ply(vertices, triangles):
    head = (
        "ply\nformat binary_little_endian 1.0\n"
        f"element vertex {len(vertices)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        f"element face {len(triangles)}\n"
        "property list uchar int vertex_indices\nend_header\n"
    ).encode("ascii")
    body = b""
    for v in vertices:
        body += struct.pack("<3f", *v)
    for t in triangles:
        body += struct.pack("<B3i", 3, *t)
    return head + body


def test_ply_binary_little_endian(tmp_path):
    vertices = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.float64)
    triangles = np.array([[0, 1, 2]])
    p = tmp_path / "bin.ply"
    p.write_bytes(_binary_ply(vertices, triangles))
    got_v, got_t = read_ply(p)
    assert np.array_equal(got_v, vertices)
    assert np.array_equal(got_t, triangles)


def test_ply_binary_truncated(tmp_path):
    vertices = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.float64)
    triangles = np.array([[0, 1, 2]])
    blob = _binary_ply(vertices, triangles)
    p = tmp_path / "trunc.ply"
    p.write_bytes(blob[:-7])
    with pytest.raises(DataError):
        read_ply(p)


def test_ply_binary_faces_match_the_mesh(tmp_path):
    mesh = icosphere(3)
    p = tmp_path / "sphere.ply"
    p.write_bytes(_binary_ply(mesh.vertices, mesh.triangles))
    _, triangles = read_ply(p)
    assert triangles.dtype == np.int64
    assert triangles.tobytes() == mesh.triangles.astype(np.int64).tobytes()


@pytest.mark.parametrize("cut, message", [
    (0, "face 1 is not a triangle"),  # a quad as the second face
    (9, "truncated PLY face data"),  # the quad's count survives, two indices do not
    (25, "truncated PLY face data"),  # the second face is gone
], ids=["quad", "quad-cut", "truncated-block"])
def test_ply_binary_face_errors(tmp_path, cut, message):
    vertices = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=np.float64)
    blob = _binary_ply(vertices, [[0, 1, 2]]).replace(b"element face 1", b"element face 2")
    blob += struct.pack("<B4i", 4, 0, 1, 3, 2)
    p = tmp_path / "bad.ply"
    p.write_bytes(blob[:len(blob) - cut])
    with pytest.raises(DataError, match=message):
        read_ply(p)
    assert main(["descriptor", str(p)]) == 2


def test_ply_quad_face_rejected(tmp_path):
    p = tmp_path / "quad.ply"
    p.write_text(
        "ply\nformat ascii 1.0\n"
        "element vertex 4\n"
        "property double x\nproperty double y\nproperty double z\n"
        "element face 1\n"
        "property list uchar int vertex_indices\nend_header\n"
        "0 0 0\n1 0 0\n1 1 0\n0 1 0\n"
        "4 0 1 2 3\n"
    )
    with pytest.raises(DataError, match="not a triangle"):
        read_ply(p)


def test_off_malformed_counts(tmp_path):
    p = tmp_path / "bad.off"
    p.write_text("OFF\nthree one zero\n")
    with pytest.raises(DataError, match="counts"):
        read_off(p)


def test_off_truncated_body(tmp_path):
    p = tmp_path / "short.off"
    p.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n")
    with pytest.raises(DataError):
        read_off(p)


@pytest.mark.parametrize("mesh", [icosphere(4), bent_bar(0.6, nu=50, nv=22)],
                         ids=["sphere-2562", "bar-1100"])
def test_read_off_matches_loop_oracle(tmp_path, mesh, rng):
    # comments, blank lines and extra trailing columns are skipped; the
    # vertices carry every double digit
    coords = mesh.vertices * rng.uniform(1e-3, 1e3)
    rows = [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in coords]
    rows[1] += " 0.5 0.25 0.125"
    rows[2] += "  # a comment"
    faces = [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    faces[0] += " 255 0 0"
    p = tmp_path / "m.off"
    p.write_text("OFF\n# made by a test\n" + f"{len(rows)} {len(faces)} 0\n"
                 + "\n".join(rows[:5]) + "\n\n" + "\n".join(rows[5:] + faces) + "\n")
    vertices, triangles = read_off(p)
    want_v, want_t = _shared.loop_read_off(p)
    assert vertices.dtype == np.float64 and triangles.dtype == np.int64
    assert vertices.tobytes() == want_v.tobytes()
    assert triangles.tobytes() == want_t.tobytes()
    assert np.array_equal(vertices, coords)


@pytest.mark.parametrize("mesh, scale", [(icosphere(4), 1.0), (bent_bar(0.6, nu=50, nv=22), 0.37)],
                         ids=["sphere-2562", "bar-1100"])
def test_read_obj_matches_loop_oracle(tmp_path, mesh, scale):
    # 17-digit coordinates, tabs, comments, extra v columns, keywords that
    # are skipped and every form of face reference
    lines = ["# made by a test", "o part", "g group", "vt 0.5 0.5", "vn 0 0 1"]
    lines += [f"v\t{x:.17g} {y:.17g}\t{z:.17g}" for x, y, z in mesh.vertices * scale]
    lines[7] += " 1.0"  # w
    lines[8] += " 0.5 0.25 0.125  # rgb"
    forms = ["{}", "{}/1", "{}/1/1", "{}//1", "{}/"]
    lines += ["f " + " ".join(forms[(i + j) % 5].format(v + 1) for j, v in enumerate(t))
              for i, t in enumerate(mesh.triangles)]
    p = tmp_path / "m.obj"
    p.write_text("\n".join(lines) + "\n")
    vertices, triangles = read_obj(p)
    want_v, want_t = _shared.loop_read_obj(p)
    assert vertices.dtype == np.float64 and triangles.dtype == np.int64
    assert vertices.tobytes() == want_v.tobytes()
    assert triangles.tobytes() == want_t.tobytes() == mesh.triangles.astype(np.int64).tobytes()


@pytest.mark.parametrize("kind", ["float", "double", "uchar"])
def test_read_ply_ascii_vertices_match_loop_oracle(tmp_path, kind, rng):
    # x of each type, y and z double, and a uchar quality after them
    mesh = bent_bar(0.6, nu=30, nv=12)
    coords = mesh.vertices * 0.37
    if kind == "uchar":
        coords[:, 0] = rng.integers(0, 256, mesh.n_vertices)
    rows = [f"{x:.17g} {y:.17g} {z:.17g} {i % 256}" for i, (x, y, z) in enumerate(coords)]
    p = tmp_path / "m.ply"
    p.write_text(_PLY_HEAD.format(mesh.n_vertices).replace("float x", f"{kind} x")
                 .replace("float y", "double y").replace("float z", "double z\nproperty uchar q")
                 .replace("element face 1", f"element face {len(mesh.triangles)}")
                 + "\n".join(rows) + "\n"
                 + "".join(f"3 {a} {b} {c}\n" for a, b, c in mesh.triangles))
    vertices, triangles = read_ply(p)
    assert vertices.tobytes() == _shared.loop_read_ply_vertices(p).tobytes()
    assert triangles.tobytes() == mesh.triangles.astype(np.int64).tobytes()


@pytest.mark.parametrize("colored", [False, True], ids=["plain", "colors"])
def test_write_ply_matches_loop_oracle(tmp_path, colored, rng):
    mesh = icosphere(2)
    vertices = mesh.vertices.copy()
    vertices.flat[:len(_shared.EDGE_VALUES)] = _shared.EDGE_VALUES
    colors = rng.uniform(-40.0, 300.0, (mesh.n_vertices, 3)) if colored else None
    write_ply(tmp_path / "new.ply", vertices, mesh.triangles, colors=colors, comment="a test")
    _shared.loop_write_ply(tmp_path / "old.ply", vertices, mesh.triangles, colors=colors,
                           comment="a test")
    assert (tmp_path / "new.ply").read_bytes() == (tmp_path / "old.ply").read_bytes()
    assert read_ply(tmp_path / "new.ply")[0].tobytes() == vertices.tobytes()


@pytest.mark.parametrize("body, message", [
    ("0 0 0\n1 0 0\n", "truncated or malformed"),  # truncated
    ("0 0 0\n1 0\n0 1 0\n3 0 1 2\n", "truncated or malformed"),  # short row
    ("0 0 0\n1 x 0\n0 1 0\n3 0 1 2\n", "truncated or malformed"),  # non-numeric
    ("0 0 0\n1 0 0\n0 1 0\n3 0 1\n", "truncated or malformed"),  # short face
    ("0 0 0\n1 0 0\n0 1 0\n3 0 1.5 2\n", "truncated or malformed"),  # float index
    ("0 0 0\n1 0 0\n0 1 0\n4 0 1 2 0\n", "face 0 has 4 vertices"),
    ("0 0 0\n1 0 0\n0 1 0\n2 0 1\n", "face 0 has 2 vertices"),
], ids=["truncated", "short-row", "non-numeric", "short-face", "float-index",
        "quad", "segment"])
def test_off_body_errors(tmp_path, body, message):
    p = tmp_path / "bad.off"
    p.write_text("OFF\n3 1 0\n" + body)
    with pytest.raises(DataError, match=message):
        read_off(p)


_PLY_HEAD = "ply\nformat ascii 1.0\nelement vertex {}\nproperty float x\n" \
    "property float y\nproperty float z\nelement face 1\n" \
    "property list uchar int vertex_indices\nend_header\n"


_OBJ_TRI = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"


def _ply_with(kind, row):
    """_PLY_HEAD with vertex property x of PLY type `kind`, one row changed."""
    return _PLY_HEAD.format(3).replace("float x", f"{kind} x") + row + "1 0 0\n0 1 0\n3 0 1 2\n"


# icosphere(1)'s 42 vertex and 80 face rows, under counts int() reads as 42
# and 80 and np.loadtxt refuses: the file loads if a count parses as int() would
_ICO1 = icosphere(1)
_ICO1_ROWS = "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in _ICO1.vertices.tolist())
_ICO1_FACES = "".join(f"3 {a} {b} {c}\n" for a, b, c in _ICO1.triangles.tolist())
_ICO1_PLY = _PLY_HEAD.replace("face 1", "face {}") + _ICO1_ROWS + _ICO1_FACES
_COUNT_CASES = {
    "off-underscore-count": ("under.off", "OFF\n4_2 8_0 0\n" + _ICO1_ROWS + _ICO1_FACES,
                             "malformed OFF counts line"),
    "off-arabic-indic-count": ("arabic.off", "OFF\n٤٢ ٨٠ 0\n" + _ICO1_ROWS + _ICO1_FACES,
                               "malformed OFF counts line"),
    "ply-underscore-vertex-count": ("vertex.ply", _ICO1_PLY.format("4_2", 80),
                                    "malformed PLY line 'element vertex 4_2'"),
    "ply-underscore-face-count": ("face.ply", _ICO1_PLY.format(42, "8_0"),
                                  "malformed PLY line 'element face 8_0'"),
}


def _float_list_ply(last):
    """A binary triangle whose vertex list is of floats, the last one `last`."""
    head = _PLY_HEAD.format(3).replace("ascii", "binary_little_endian")
    return (head.replace("uchar int", "uchar float").encode()
            + struct.pack("<9fB3f", 0, 0, 0, 1, 0, 0, 0, 1, 0, 3, 0, 1, last))


@pytest.mark.parametrize("name, text, message", [
    ("negative.off", "OFF\n-3 1 0\n", "do not fit"),
    ("huge.off", "OFF\n1000000000 1 0\n0 0 0\n", "do not fit"),
    ("count.ply", _PLY_HEAD.format("x"), "malformed PLY line"),
    ("huge.ply", _PLY_HEAD.format(10 ** 12), "does not fit"),
    ("short_row.ply", _PLY_HEAD.format(3) + "0 0 0\n1 0\n0 1 0\n3 0 1 2\n",
     "malformed PLY vertex row"),
    ("short_face.ply", _PLY_HEAD.format(3) + "0 0 0\n1 0 0\n0 1 0\n3 0 1\n",
     "malformed PLY face data"),
    ("word_face.ply", _PLY_HEAD.format(3) + "0 0 0\n1 0 0\n0 1 0\n3 0 x 2\n",
     "malformed PLY face data"),
    ("no_face.ply", _PLY_HEAD.format(3) + "0 0 0\n1 0 0\n0 1 0\n",
     "face 0 is not a triangle"),
    ("short_list.ply", _PLY_HEAD.format(3).replace("uchar int vertex_indices", "uchar"),
     "malformed PLY line"),
    ("bare_format.ply", _PLY_HEAD.format(3).replace("format ascii 1.0", "format"),
     "malformed PLY line"),
    ("unnamed.ply", _PLY_HEAD.format(3).replace("float z", "double"),
     "malformed PLY line"),
    # an out-of-range integer raised OverflowError (traceback, exit 1)
    ("uchar300.ply", _ply_with("uchar", "300 0 0\n"), "malformed PLY vertex row"),
    ("uchar-1.ply", _ply_with("uchar", "-1 0 0\n"), "malformed PLY vertex row"),
    ("int-big.ply", _ply_with("int", "99999999999 0 0\n"), "malformed PLY vertex row"),
    # float indices: NaN and 1e30 warned in the cast, 2.5 was read as 2
    ("nan-index.ply", _float_list_ply(float("nan")), "unsupported PLY list types"),
    ("big-index.ply", _float_list_ply(1e30), "unsupported PLY list types"),
    ("half-index.ply", _float_list_ply(2.5), "unsupported PLY list types"),
    # a blank row is one loadtxt would skip, an extra column one it would not
    ("no_row.ply", _PLY_HEAD.format(3), "malformed PLY vertex row"),
    ("blank_row.ply", _PLY_HEAD.format(3) + "0 0 0\n\n0 1 0\n3 0 1 2\n",
     "malformed PLY vertex row"),
    ("long_row.ply", _PLY_HEAD.format(3) + "0 0 0 7\n1 0 0\n0 1 0\n3 0 1 2\n",
     "malformed PLY vertex row"),
    ("quad.obj", _OBJ_TRI + "f 1 2 3 1\n", "has 4 vertices, need 3"),
    ("short_v.obj", _OBJ_TRI.replace("v 1 0 0", "v 1 0") + "f 1 2 3\n", "malformed OBJ vertex"),
    ("word_v.obj", _OBJ_TRI.replace("v 1 0 0", "v 1 x 0") + "f 1 2 3\n", "malformed OBJ vertex"),
    ("word_index.obj", _OBJ_TRI + "f 1 x 3\n", "malformed OBJ face"),
    ("float_index.obj", _OBJ_TRI + "f 1 2.5 3\n", "malformed OBJ face"),
    ("bare_slash.obj", _OBJ_TRI + "f /1 2 3\n", "malformed OBJ face"),
    ("negative.obj", _OBJ_TRI + "f -1 2 3\n", "negative OBJ indices"),
    ("no_vertex.obj", "vt 0 0\nf 1 2 3\n", "no vertices found"),
    *_COUNT_CASES.values(),
], ids=["negative-off", "huge-off", "ply-count", "huge-ply", "short-ply-row",
        "short-ply-face", "non-numeric-ply-face", "missing-ply-face", "short-ply-list",
        "bare-ply-format", "unnamed-ply-property", "ply-uchar-300", "ply-uchar-negative",
        "ply-int-beyond-int32", "ply-nan-index", "ply-huge-index", "ply-fractional-index",
        "ply-no-vertex-row", "ply-blank-row", "ply-long-row", "obj-quad", "obj-short-vertex", "obj-word-vertex",
        "obj-word-index", "obj-float-index", "obj-bare-slash", "obj-negative-index",
        "obj-no-vertex", *_COUNT_CASES])
def test_malformed_mesh_exits_2(tmp_path, capsys, name, text, message):
    p = tmp_path / name
    p.write_bytes(text if isinstance(text, bytes) else text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["basis", str(p), "-k", "3", "-o", str(tmp_path / "b.npz")]) == 2
    err = capsys.readouterr().err
    assert name in err and message in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "b.npz").exists()


@pytest.mark.parametrize("name, text", [
    ("float_index.obj", _OBJ_TRI + "f 1 2.5 3\n"),
    ("uchar300.ply", _ply_with("uchar", "300 0 0\n")),
    ("no_row.ply", _PLY_HEAD.format(3)),
    *(case[:2] for case in _COUNT_CASES.values()),
], ids=["obj-float-index", "ply-uchar-300", "ply-no-vertex-row", *_COUNT_CASES])
def test_malformed_mesh_exits_2_under_default_warning_filters(tmp_path, name, text):
    # test_malformed_mesh_exits_2 turns warnings into errors; the command
    # line does not, and loadtxt warned (and printed a line) where it refused
    mesh = tmp_path / name
    mesh.write_text(text, encoding="utf-8")
    out = tmp_path / "b.npz"
    src = str(Path(meshwave.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run([sys.executable, "-m", "meshwave", "basis", str(mesh), "-k", "3",
                          "-o", str(out)], capture_output=True, text=True, env=env)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith(f"error: {mesh}: ") and run.stderr.count("\n") == 1, run.stderr
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(_COUNT_CASES))
def test_a_count_int_would_read_heads_a_file_that_loads(tmp_path, case):
    # the body of every _COUNT_CASES file fits the counts int() reads
    name, text, _ = _COUNT_CASES[case]
    fixed = tmp_path / name
    fixed.write_text(text.replace("4_2", "42").replace("8_0", "80").replace("٤٢ ٨٠", "42 80"))
    vertices, triangles = read_mesh_file(fixed)
    assert np.allclose(vertices, _ICO1.vertices, atol=1e-7)  # a PLY's x, y, z are floats
    assert np.array_equal(triangles, _ICO1.triangles)


def test_unknown_extension(tmp_path):
    p = tmp_path / "mesh.stl"
    p.write_text("whatever")
    with pytest.raises(DataError, match="unsupported mesh format"):
        read_mesh_file(p)


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read mesh .*: No such file"):
        read_mesh_file(tmp_path / "nope.off")


def test_error_messages_carry_path(tmp_path):
    p = tmp_path / "named.off"
    p.write_text("OFF\n")
    with pytest.raises(DataError, match="named.off"):
        read_off(p)
