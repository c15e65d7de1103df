"""File access shared by every reader and writer in the package."""

from __future__ import annotations

import contextlib
import os
import uuid


def checked_path(path) -> str:
    """``path`` as a str, or OSError if no file can have it.

    open() raises ValueError for a path holding a NUL byte; raising OSError
    instead makes such a path fail the way a missing file does.
    """
    name = os.fsdecode(path)
    if "\0" in name:
        raise OSError(f"{name!r}: a path cannot hold a NUL byte")
    return name


def open_input(path, mode: str = "rb", **kwargs):
    """open() for reading, with a path no file can have raised as OSError."""
    return open(checked_path(path), mode, **kwargs)


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary sibling of ``path``, then rename it over
    ``path``.  On any failure the sibling is removed and ``path`` keeps its
    previous contents, so no writer leaves a partial file behind."""
    directory, name = os.path.split(os.path.abspath(checked_path(path)))
    tmp = os.path.join(directory, f".tmp-{uuid.uuid4().hex}-{name}")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
