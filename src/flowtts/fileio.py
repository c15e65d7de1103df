"""Atomic file output shared by every writer in the package."""

from __future__ import annotations

import contextlib
import os
import uuid


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary sibling of ``path``, then rename it over
    ``path``.  On any failure the sibling is removed and ``path`` keeps its
    previous contents, so no writer leaves a partial file behind."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{uuid.uuid4().hex}-{name}")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
