"""Crash-atomic file writes (temp file + fsync + rename).

A block, checkpoint payload, or manifest that is half-written when the
process dies must never be observable: a reader sees either the previous
complete content or the new complete content.  POSIX gives exactly one
primitive with that guarantee — ``rename(2)`` within a filesystem — so
every durable artifact in the tree funnels through :func:`atomic_write`:
write the full new content to a temporary file in the *same directory*,
``fsync`` it, then ``os.replace`` it over the destination.  The lint rule
``DOOC005`` (:mod:`repro.analysis.rules`) flags bare ``open(..., "w")`` /
``write_bytes`` on checkpoint/block paths that bypass this helper.

Offset writes (one block spliced into a shared per-array file) are
supported by rewriting the whole file: read-splice-replace, serialized by
a per-path in-process lock (all writers of a scratch file are threads of
one engine process).  That trades bandwidth for the atomicity guarantee —
"trading performance for semantic simplicity", as the storage layer's
reassembly copy already does.
"""

from __future__ import annotations

import os
import tempfile
import threading
from pathlib import Path

__all__ = ["atomic_write"]

_REGISTRY_LOCK = threading.Lock()
_PATH_LOCKS: dict[str, threading.Lock] = {}


def _path_lock(path: Path) -> threading.Lock:
    key = os.fspath(path)
    with _REGISTRY_LOCK:
        lock = _PATH_LOCKS.get(key)
        if lock is None:
            lock = _PATH_LOCKS[key] = threading.Lock()
        return lock


def atomic_write(path: str | Path, data, *,
                 offset: int | None = None) -> None:
    """Atomically replace ``path``'s content (or splice at ``offset``).

    ``data`` is any bytes-like object and is written from where it lies:
    a block goes from its own buffer to the file with no copy in between.
    With ``offset=None`` the file becomes exactly ``data``.  With an
    offset, ``data`` is spliced over the existing content at that byte
    position (zero-padding any gap, matching seek-past-end semantics);
    concurrent spliced writes to one path are serialized in-process.
    In every case the destination is only ever replaced by a complete,
    fsynced temporary — a crash at any point leaves the old content
    intact, never a torn file.
    """
    path = Path(path)
    if offset is not None and offset < 0:
        raise ValueError(f"offset must be non-negative, got {offset}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with _path_lock(path):
        if offset is None:
            content = data
        else:
            try:
                existing = path.read_bytes()
            except FileNotFoundError:
                existing = b""
            end = offset + memoryview(data).nbytes
            content = bytearray(max(len(existing), end))
            content[: len(existing)] = existing
            content[offset:end] = data
        fd, tmp = tempfile.mkstemp(
            prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(content)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
