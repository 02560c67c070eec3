"""Crash-safe filesystem primitives.

Every durable artifact in this package (checkpoints, manifests, bench
records, final results) goes through :func:`atomic_write_bytes`: write to
a temporary file in the *same directory*, flush + fsync the data, rename
over the destination, then fsync the directory so the rename itself is
durable.  A reader therefore observes either the old complete file or
the new complete file — never a torn mixture — under both process
crashes (SIGKILL) and power loss.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "fsync_dir",
]


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so renames/creations inside it are durable."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes, *, fsync: bool = True) -> None:
    """Replace ``path`` with ``data`` atomically (temp + fsync + rename)."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
        if fsync:
            fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str, *, fsync: bool = True) -> None:
    """Replace ``path`` with UTF-8 ``text`` atomically."""
    atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def atomic_write_json(
    path: str | Path, obj: Any, *, indent: int | None = 2, fsync: bool = True
) -> None:
    """Serialize ``obj`` as JSON and write it atomically (trailing newline)."""
    atomic_write_text(
        path, json.dumps(obj, indent=indent, sort_keys=True) + "\n", fsync=fsync
    )
