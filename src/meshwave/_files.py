"""File access for every input and output. Writes are atomic: a new file
beside the target, then os.replace. A failed read of an input (a missing
file, a directory, no permission, text that is not UTF-8, metadata that
is not a JSON object, an archive that is not one) raises a one-line
DataError, so every command exits 2 on an input it cannot read, and
`check_destination` lets it exit 2 on an output it cannot write, or that
names another of its files, before any work. `numeric_rows` parses every
number in input text."""

from __future__ import annotations

import contextlib
import json
import os
import re
import warnings
import zipfile
from pathlib import Path

import numpy as np

from .errors import DataError


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **kwargs):
    """Open a new file in `path`'s directory for writing and yield it.

    When the block ends normally the file replaces `path` in one
    `os.replace`, so a reader sees either the old file or the whole new
    one. When the block raises, the new file is removed and `path` is left
    as it was. `mode` and `kwargs` go to `open` ("w" becomes "x"). An
    OSError from creating the new file or from the replace (a missing
    directory, a file in its place, no permission) raises DataError; one
    from the block itself propagates unchanged.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        handle = open(tmp, mode.replace("w", "x"), **kwargs)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc
    try:
        with handle:
            yield handle
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def check_destination(path, *others, make_parents=False) -> Path:
    """`path` as a Path if it can name a file (it is no directory and ends in
    no separator), its directory exists (or with `make_parents` its nearest
    existing ancestor is one) and, once resolved, it names none of `others`,
    the command's other files (empty entries are skipped); else DataError."""
    text = os.fspath(path)
    if text.endswith(os.sep):  # Path drops it: "out/" would write the file "out"
        raise DataError(f"cannot write {text}: a file name cannot end in {os.sep}")
    path = Path(text)
    if path.is_dir():
        raise DataError(f"cannot write {path}: Is a directory")
    parent = path.parent
    while make_parents and not parent.exists() and parent != parent.parent:
        parent = parent.parent
    if not parent.is_dir():
        raise DataError(f"cannot write {path}: {parent} is not a directory")
    for other in filter(None, others):
        if os.path.realpath(other) == os.path.realpath(path):
            raise DataError(f"cannot write {path}: {other} names the same file")
    return path


def create_parents(path):
    """Make the missing directories above `path`, or raise DataError."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def open_read(path, what: str, mode: str = "rb", **kwargs):
    """`open(path, mode, **kwargs)` for reading; an OSError (a missing file,
    a directory, no permission) raises DataError naming `what`."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc


def read_text(path, what: str) -> str:
    """The text file at `path`, read as UTF-8 with universal newlines; a
    failed open or decode raises DataError naming `what`."""
    with open_read(path, what, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read {what} {path}: {exc}") from None


def numeric_rows(path, rows, columns, dtype, what):
    """The given columns of text rows as a (len(rows), len(columns)) array;
    columns past the last one read are neither parsed nor checked. With
    `columns` None, (len(rows),) values, one to a row of exactly one value
    or of exactly the fields of a structured `dtype`. The one parser of the
    numbers in input text (meshes, maps, configs): ASCII without `_`,
    integers within int64; anything else raises DataError naming `what`."""
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


def json_object(raw: bytes, path, what: str) -> dict:
    """The JSON object the bytes `raw` hold; bad UTF-8, bad JSON, nesting
    too deep to parse, or any value other than an object raises DataError
    naming `what`."""
    try:
        value = json.loads(raw.decode())
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        raise DataError(f"{path}: {what} is not valid JSON") from None
    if not isinstance(value, dict):
        raise DataError(f"{path}: {what} is not a JSON object")
    return value


def check_mesh_hash(path, value, what: str, mesh=None):
    """Refuse a recorded mesh hash that is not 64 lowercase hex digits
    (artifacts copy it into comment lines), or, given the `mesh` the
    artifact `what` serves (or the hash another artifact records for that
    mesh), one other than its content hash. None and "" are no claim."""
    if value in (None, ""):
        return
    if not (isinstance(value, str) and re.fullmatch("[0-9a-f]{64}", value)):
        raise DataError(f"{path}: stored mesh_hash is not 64 lowercase hex digits")
    expected = mesh if mesh is None or isinstance(mesh, str) else mesh.content_hash()
    if expected not in (None, "") and value != expected:
        raise DataError(f"{path}: stale {what}: computed for a different mesh "
                        "(content hash mismatch)")


@contextlib.contextmanager
def open_npz(path, what: str):
    """Open the .npz archive at `path` through ``open_read`` and yield it.

    Any failure to read the archive, in the load or in the block, raises
    DataError naming `what`: a truncated or non-zip file, a plain .npy, an
    absent key, an array stored with pickle.
    """
    # np.load leaves a file it opened open when the zip is corrupt
    with open_read(path, what) as fh:
        try:
            with np.load(fh) as data:  # a plain .npy: TypeError
                yield data
        except (OSError, EOFError, KeyError, TypeError, ValueError,
                zipfile.BadZipFile) as exc:
            raise DataError(f"{path}: unreadable {what}: {exc}") from exc
