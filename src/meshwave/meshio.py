"""Triangle-mesh file readers and writers.

Readers: OFF and OBJ (UTF-8 text), PLY (ASCII and binary little-endian);
every numeric text row parses with np.loadtxt (`_columns`).
Writer: PLY, optionally with per-vertex uchar red/green/blue columns, its
rows written with np.savetxt. All readers return raw (vertices, triangles)
arrays; structural validation lives in mesh.load_mesh. Files are opened
through ``_files``, so a missing or unreadable file, or OFF and OBJ text
that is not UTF-8, is a DataError like a malformed one.
"""

from __future__ import annotations

import itertools
import os
import re
import warnings
from pathlib import Path

import numpy as np

from ._files import atomic_write, open_read, read_text
from .errors import DataError

_PLY_DTYPES = {
    "char": "i1",
    "int8": "i1",
    "uchar": "u1",
    "uint8": "u1",
    "short": "i2",
    "int16": "i2",
    "ushort": "u2",
    "uint16": "u2",
    "int": "i4",
    "int32": "i4",
    "uint": "u4",
    "uint32": "u4",
    "float": "f4",
    "float32": "f4",
    "double": "f8",
    "float64": "f8",
}


def _data_lines(text):
    """Significant lines: comments and blanks stripped."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def read_off(path):
    text = read_text(path, "mesh")
    lines = _data_lines(text)
    try:
        first = next(lines)
    except StopIteration:
        raise DataError(f"{path}: empty OFF file") from None
    if first.startswith("OFF"):
        rest = first[3:].strip()
        counts = rest.split() if rest else next(lines, "").split()
    else:
        # headerless variant: counts on the first line
        counts = first.split()
    if len(counts) < 2:
        raise DataError(f"{path}: malformed OFF counts line")
    try:
        n_vert, n_face = int(counts[0]), int(counts[1])
    except ValueError as exc:
        raise DataError(f"{path}: malformed OFF counts line") from exc
    if min(n_vert, n_face) < 0 or n_vert + n_face > len(text):
        raise DataError(f"{path}: OFF counts {n_vert}, {n_face} do not fit the file")
    body = list(itertools.islice(lines, n_vert + n_face))
    if len(body) < n_vert + n_face:
        raise DataError(f"{path}: truncated or malformed OFF body")
    vertices = _columns(path, body[:n_vert], (0, 1, 2), np.float64, "OFF body")
    arity = _columns(path, body[n_vert:], (0,), np.int64, "OFF body")[:, 0]
    bad = np.flatnonzero(arity != 3)
    if bad.size:
        i = bad[0]
        raise DataError(f"{path}: face {i} has {body[n_vert + i].split()[0]} vertices, need 3")
    triangles = _columns(path, body[n_vert:], (1, 2, 3), np.int64, "OFF body")
    return vertices, triangles


def _columns(path, rows, columns, dtype, what):
    """(len(rows), len(columns)) array of the given columns of text rows
    (an OFF body, OBJ lines, PLY faces); columns past the last one read are
    neither parsed nor checked. With `columns` None, (len(rows),) records of
    the structured `dtype`, one to a row of exactly its fields (PLY vertices)."""
    shape = (len(rows),) if columns is None else (len(rows), len(columns))
    # loadtxt only warns on all-blank rows and (older numpy) integers read as floats
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(rows, dtype=dtype, usecols=columns, ndmin=len(shape),
                               comments=None) if rows else np.empty(shape, dtype=dtype)
    except (ValueError, Warning) as exc:
        raise DataError(f"{path}: truncated or malformed {what}") from exc
    if table.shape != shape:  # loadtxt skips blank rows
        raise DataError(f"{path}: truncated or malformed {what}")
    return table


def read_obj(path):
    """`v` x y z and `f` vertex indices; the rest of the file is skipped."""
    rows = {"v": [], "f": []}
    for line in _data_lines(read_text(path, "mesh")):
        keyword, *refs = line.split()
        if keyword == "f" and len(refs) != 3:
            raise DataError(f"{path}: face {line!r} has {len(refs)} vertices, need 3")
        if keyword in rows:
            rows[keyword].append(line)
    if not rows["v"]:
        raise DataError(f"{path}: no vertices found")
    vertices = _columns(path, rows["v"], (1, 2, 3), np.float64, "OBJ vertex")
    faces = re.sub(r"/\S*", "", "\n".join(rows["f"])).splitlines()  # a reference's vertex
    triangles = _columns(path, faces, (1, 2, 3), np.int64, "OBJ face of int64 indices")
    if (triangles < 0).any():
        raise DataError(f"{path}: negative OBJ indices are not supported")
    return vertices, triangles - 1  # OBJ counts from 1


class _PlyElement:
    def __init__(self, name, count):
        self.name = name
        self.count = count
        self.properties = []  # (name, dtype) or (name, count_dtype, item_dtype)


# tokens on each PLY header line, keyword included
_PLY_HEADER_TOKENS = {"format": 3, "element": 3, "property": 3, "property list": 5,
                      "end_header": 1}


def _parse_ply_header(handle, path):
    magic = handle.readline().strip()
    if magic != b"ply":
        raise DataError(f"{path}: not a PLY file")
    fmt = None
    elements = []
    while True:
        raw = handle.readline()
        if not raw:
            raise DataError(f"{path}: unterminated PLY header")
        line = raw.decode("ascii", errors="replace").strip()
        if not line or line.startswith("comment") or line.startswith("obj_info"):
            continue
        parts = line.split()
        keyword = "property list" if parts[:2] == ["property", "list"] else parts[0]
        if keyword not in _PLY_HEADER_TOKENS:
            raise DataError(f"{path}: unrecognized PLY header line {line!r}")
        if len(parts) != _PLY_HEADER_TOKENS[keyword]:
            raise DataError(f"{path}: malformed PLY line {line!r}")
        if keyword == "format":
            fmt = parts[1]
        elif keyword == "element":
            try:
                elements.append(_PlyElement(parts[1], int(parts[2])))
            except ValueError:
                raise DataError(f"{path}: malformed PLY line {line!r}") from None
            if not 0 <= elements[-1].count <= os.fstat(handle.fileno()).st_size:
                raise DataError(f"{path}: PLY element count does not fit the file")
        elif keyword == "end_header":
            break
        elif not elements:
            raise DataError(f"{path}: property before element in PLY header")
        elif keyword == "property list":
            elements[-1].properties.append((parts[4], parts[2], parts[3]))
        else:
            elements[-1].properties.append((parts[2], parts[1]))
    if fmt not in ("ascii", "binary_little_endian"):
        raise DataError(f"{path}: unsupported PLY format {fmt!r}")
    return fmt, elements


def _ply_vertex_dtype(element, path):
    fields = []
    for prop in element.properties:
        if len(prop) != 2:
            raise DataError(f"{path}: list property in vertex element")
        name, kind = prop
        if kind not in _PLY_DTYPES:
            raise DataError(f"{path}: unsupported PLY type {kind!r}")
        fields.append((name, "<" + _PLY_DTYPES[kind]))
    names = [f[0] for f in fields]
    if not all(axis in names for axis in "xyz"):
        raise DataError(f"{path}: vertex element lacks x/y/z properties")
    return np.dtype(fields)


def _read_ply_faces(handle, element, fmt, path):
    """(count, 3) int64 vertex indices of a PLY face element of triangles."""
    prop = element.properties[0] if element.properties else ()
    if len(prop) != 3:
        raise DataError(f"{path}: face element lacks a list property")
    if not all(_PLY_DTYPES.get(kind, "f")[0] in "iu" for kind in prop[1:]):  # integers only
        raise DataError(f"{path}: unsupported PLY list types {prop[1:]}")
    if fmt == "ascii":
        # a missing row reads as a face of no vertices
        rows = [handle.readline().decode("ascii", "replace").strip() or "0"
                for _ in range(element.count)]
        arity = _columns(path, rows, (0,), np.int64, "PLY face data")[:, 0]
    else:
        row = np.dtype([("n", "<" + _PLY_DTYPES[prop[1]]),
                        ("index", "<" + _PLY_DTYPES[prop[2]], (3,))])
        buf = handle.read(row.itemsize * element.count)
        faces = np.frombuffer(buf, dtype=row, count=len(buf) // row.itemsize)
        arity = faces["n"]
    bad = np.flatnonzero(arity != 3)
    if bad.size:
        raise DataError(f"{path}: face {bad[0]} is not a triangle")
    if fmt == "ascii":
        return _columns(path, rows, (1, 2, 3), np.int64, "PLY face data")
    if faces.size != element.count:
        raise DataError(f"{path}: truncated PLY face data")
    return faces["index"].astype(np.int64)


def read_ply(path):
    with open_read(path, "mesh") as handle:
        fmt, elements = _parse_ply_header(handle, path)
        by_name = {e.name: e for e in elements}
        if "vertex" not in by_name or "face" not in by_name:
            raise DataError(f"{path}: PLY file needs vertex and face elements")
        vertices = None
        triangles = None
        for element in elements:  # header order is the storage order
            if element.name == "vertex":
                vdt = _ply_vertex_dtype(element, path)
                if fmt == "ascii":
                    rows = [handle.readline().decode("ascii", "replace").strip()
                            for _ in range(element.count)]
                    data = _columns(path, rows, None, vdt, "PLY vertex row")
                else:
                    buf = handle.read(vdt.itemsize * element.count)
                    if len(buf) != vdt.itemsize * element.count:
                        raise DataError(f"{path}: truncated PLY vertex data")
                    data = np.frombuffer(buf, dtype=vdt)
                vertices = np.stack(
                    [data["x"], data["y"], data["z"]], axis=1
                ).astype(np.float64)
            elif element.name == "face":
                triangles = _read_ply_faces(handle, element, fmt, path)
            else:
                # skip unknown elements conservatively (ascii lines / raw guess
                # is impossible without fixed-size rows, so refuse)
                raise DataError(f"{path}: unsupported PLY element {element.name!r}")
        return vertices, triangles


def write_ply(path, vertices, triangles, colors=None, comment=None):
    """Write an ASCII PLY file, optionally with uchar red/green/blue."""
    vertices = np.asarray(vertices, dtype=np.float64)
    triangles = np.asarray(triangles, dtype=np.int64)
    lines = ["ply", "format ascii 1.0"]
    if comment:
        lines.append(f"comment {comment}")
    lines.append(f"element vertex {len(vertices)}")
    lines += ["property double x", "property double y", "property double z"]
    if colors is not None:
        colors = np.asarray(colors)
        if colors.shape != (len(vertices), 3):
            raise DataError("colors must be (n_vertices, 3)")
        colors = np.clip(np.rint(colors), 0, 255).astype(np.uint8)
        lines += [
            "property uchar red",
            "property uchar green",
            "property uchar blue",
        ]
    lines.append(f"element face {len(triangles)}")
    lines.append("property list uchar int vertex_indices")
    lines.append("end_header")
    with atomic_write(path, "w") as handle:
        # %.17g writes a colour, an integer below 2^53, as its digits
        np.savetxt(handle, vertices if colors is None else np.hstack([vertices, colors]),
                   fmt="%.17g", header="\n".join(lines), comments="")
        np.savetxt(handle, triangles, fmt="3 %d %d %d")


_READERS = {".off": read_off, ".obj": read_obj, ".ply": read_ply}


def read_mesh_file(path):
    """Dispatch on extension; returns raw (vertices, triangles)."""
    suffix = Path(path).suffix.lower()
    reader = _READERS.get(suffix)
    if reader is None:
        raise DataError(f"{path}: unsupported mesh format {suffix!r}")
    return reader(path)
