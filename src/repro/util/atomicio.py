"""Crash-atomic file writes (temp file + rename, fsync when asked).

A block, checkpoint payload, or manifest that is half-written when the
process dies must never be observable: a reader sees either the previous
complete content or the new complete content.  POSIX gives exactly one
primitive with that guarantee — ``rename(2)`` within a filesystem — so
every array and checkpoint file is written through :func:`atomic_file`
(a writer that streams its pieces, as a codec's encoder does) or
:func:`atomic_write` (given parts): write the full new content to a
temporary file in the *same directory*, then ``os.replace`` it over the
destination.  The lint rule ``DOOC005`` (:mod:`repro.analysis.rules`)
flags bare ``open(..., "w")`` / ``write_bytes`` on checkpoint/block
paths that bypass these helpers.

Two promises, kept apart:

* **crash-atomic, always** — the temp-file + rename above, on every
  write;
* **durable across power loss, only when asked** — ``durable=True`` (the
  default) also calls ``fsync`` on the temporary before the rename.
  Scratch that the engine writes for its own use (spills, per-run seeds,
  the operator's sub-matrix copies, a node-loss re-seed) passes
  ``durable=False``: nothing reads it after an OS crash, so flushing it
  to the device buys nothing.  What a caller asks to keep — checkpoints,
  ``persist``, the public seeding default — stays durable.

Only whole files are written: every block has a file of its own
(:mod:`repro.core.iofilter`), so no write reads, splices or locks what
another wrote.  Concurrent writers of one path each rename a complete
temporary of their own; the last rename wins.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path

__all__ = ["atomic_file", "atomic_write"]


@contextlib.contextmanager
def atomic_file(path: str | Path, *, durable: bool = True):
    """Yield a binary file to write ``path``'s new content into, from
    its start, seeking as the writer likes; ``path`` is replaced by it
    when the block ends without an exception, and left as it was
    otherwise.

    The destination is only ever replaced by a complete temporary — a
    crash at any point leaves the old content intact, never a torn file.
    ``durable`` decides only whether that temporary is flushed to the
    device (``fsync``) first, so the new content also survives a power
    loss; pass ``False`` for scratch nobody reads after the process.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write(path: str | Path, *parts, durable: bool = True) -> None:
    """Atomically replace ``path``'s content with ``parts``, one after
    the other (:func:`atomic_file`).

    Each part is any bytes-like object and is written from where it
    lies: a block goes from its own buffer to the file with no copy in
    between.
    """
    with atomic_file(path, durable=durable) as fh:
        for part in parts:
            fh.write(part)
