"""Artifact file access: atomic writes (a new file beside the target, then
os.replace) and reads whose file-system failures are DataErrors."""

from __future__ import annotations

import contextlib
import os
import zipfile

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


def open_read(path, what: str, mode: str = "rb", **kwargs):
    """`open(path, mode, **kwargs)` for reading; an OSError (a missing file,
    a directory, no permission) raises DataError naming `what`."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def open_npz(path, what: str):
    """Open the .npz archive at `path` and yield it.

    Any failure to read it, in the open or in the block, raises DataError
    naming `what`: a missing, truncated or non-zip file, a plain .npy, an
    absent key, an array stored with pickle.
    """
    try:  # np.load leaves a file it opened open when the zip is corrupt
        with open(path, "rb") as fh, np.load(fh) as data:  # a plain .npy: TypeError
            yield data
    except (OSError, EOFError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: unreadable {what}: {exc}") from exc
