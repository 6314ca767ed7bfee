"""Atomic artifact writes: a new file beside the target, then os.replace."""

from __future__ import annotations

import contextlib
import os


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
