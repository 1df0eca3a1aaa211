"""Atomic file replacement shared by the on-disk caches.

The day-log cache, its address-id entries and the sweep checkpoints all
write a payload and then a meta file that vouches for it.  Each file
goes through a temp file in the target directory and ``os.replace``, so
a reader (or a concurrent writer) sees either the previous file or the
complete new one, and a SIGKILL mid-write leaves only a stray
``.tmp`` file that no reader opens.
"""

from __future__ import annotations

import os
import tempfile


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Replace ``path`` with ``payload`` atomically.

    Raises :class:`OSError` when the directory is not writable; the
    temp file is removed on any failure.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
