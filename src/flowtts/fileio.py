"""File access shared by every reader and writer in the package."""

from __future__ import annotations

import contextlib
import os
import uuid
from collections.abc import Iterator


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


def checked_output_path(path) -> None:
    """OSError if no file can have ``path`` or its directory does not exist,
    so a command can reject an output before the work that would fill it."""
    name = checked_path(path)
    if not os.path.isdir(os.path.dirname(os.path.abspath(name))):
        raise OSError(f"{name!r}: the directory to write it in does not exist")


def read_tsv_rows(path) -> Iterator[tuple[int, list[str]]]:
    """(line number, tab-separated fields) of each non-empty row of a UTF-8
    TSV file (BOM allowed).

    A row ends only at LF, and the one CR of a CRLF ending is dropped; any
    other CR stays in its field.
    """
    with open_input(path, "r", encoding="utf-8-sig", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.endswith("\n"):
                line = line[:-1].removesuffix("\r")
            if line:
                yield lineno, line.split("\t")


def read_commented_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each line of a UTF-8 file (BOM
    allowed) that is neither blank nor a '#' comment."""
    with open_input(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                yield lineno, stripped


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary sibling of ``path``, then rename it over
    ``path``.  On any failure the sibling is removed and ``path`` keeps its
    previous contents, so no writer leaves a partial file behind.  A sibling
    that cannot be created is reported under ``path``."""
    path = checked_path(path)
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{uuid.uuid4().hex}-{name}")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
