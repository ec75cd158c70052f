"""Crash-safe file replacement, the one way this package rewrites a file.

The write-ahead journal, the generation store and the result cache all
write through :func:`atomic_write_bytes`, so a crash at any instant
leaves the whole old file or the whole new one, never a prefix.
Standard library only, so every layer may import it.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path


def atomic_write_bytes(path: str | os.PathLike[str], payload: bytes, *,
                       fsync: bool = True) -> None:
    """Replace ``path`` with ``payload`` atomically.

    The payload goes to a uniquely named temporary file in the target's
    directory (unique, so concurrent writers of one directory never
    share one), which is renamed over ``path``; on any failure before
    the rename the temporary file is removed.  ``fsync`` also makes the
    write durable: the file is fsync'd before the rename and the
    directory after it.  ``fsync=False`` is for a store that treats a
    lost entry as a miss (:class:`~repro.runner.cache.ResultCache`).
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=f"{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    if not fsync:
        return
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without O_RDONLY dirs
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
