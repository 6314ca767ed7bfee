"""Artifact file access: atomic writes (a new file beside the target, then
os.replace) and .npz reads whose every failure is a DataError."""

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
    as it was. `mode` and `kwargs` go to `open` ("w" becomes "x").
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def open_npz(path, what: str):
    """Open the .npz archive at `path` and yield it.

    Any failure to read it, in the open or in the block, raises DataError
    naming `what`: a missing, truncated or non-zip file, a plain .npy, an
    absent key, an array stored with pickle.
    """
    try:
        with np.load(path) as data:  # a plain .npy raises TypeError here
            yield data
    except (OSError, EOFError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: unreadable {what}: {exc}") from exc
