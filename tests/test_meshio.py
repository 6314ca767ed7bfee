import struct

import numpy as np
import pytest

from meshwave.cli import main
from meshwave.errors import DataError, MeshError
from meshwave.mesh import load_mesh
from meshwave.meshio import read_mesh_file, read_obj, read_off, read_ply, write_ply
from meshwave.synthetic import bent_bar, icosphere

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
    # skipping validation lets the raw data through
    mesh = load_mesh(p, validate=False)
    assert mesh.n_vertices == 3


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


def _loop_read_off(path):
    """Oracle for read_off's body parse: one Python float/int per token."""
    lines = [raw.split("#", 1)[0].strip() for raw in path.read_text().splitlines()]
    lines = [line for line in lines if line]
    n_vert, n_face = (int(c) for c in lines[1].split()[:2])
    body = [line.split() for line in lines[2:2 + n_vert + n_face]]
    vertices = np.array([[float(t) for t in row[:3]] for row in body[:n_vert]])
    triangles = np.array([[int(t) for t in row[1:4]] for row in body[n_vert:]])
    return vertices.reshape(n_vert, 3), triangles.reshape(n_face, 3)


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
    want_v, want_t = _loop_read_off(p)
    assert vertices.dtype == np.float64 and triangles.dtype == np.int64
    assert vertices.tobytes() == want_v.tobytes()
    assert triangles.tobytes() == want_t.tobytes()
    assert np.array_equal(vertices, coords)


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
], ids=["negative-off", "huge-off", "ply-count", "huge-ply", "short-ply-row",
        "short-ply-face", "non-numeric-ply-face", "missing-ply-face", "short-ply-list",
        "bare-ply-format", "unnamed-ply-property"])
def test_malformed_mesh_exits_2(tmp_path, capsys, name, text, message):
    p = tmp_path / name
    p.write_text(text)
    assert main(["basis", str(p), "-k", "3", "-o", str(tmp_path / "b.npz")]) == 2
    err = capsys.readouterr().err
    assert name in err and message in err


def test_unknown_extension(tmp_path):
    p = tmp_path / "mesh.stl"
    p.write_text("whatever")
    with pytest.raises(DataError, match="unsupported mesh format"):
        read_mesh_file(p)


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        read_mesh_file(tmp_path / "nope.off")


def test_error_messages_carry_path(tmp_path):
    p = tmp_path / "named.off"
    p.write_text("OFF\n")
    with pytest.raises(DataError, match="named.off"):
        read_off(p)
