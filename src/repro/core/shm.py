"""Shared-memory segments: the cross-process block data plane.

The multi-process worker plane (``DOoCEngine(worker_plane="process")``)
cannot ship NumPy views over a pipe — views only mean something inside
one address space.  Instead, sealed block buffers live in POSIX shared
memory (``multiprocessing.shared_memory``) and what crosses the process
boundary is a :class:`BlockHandle`: ``(segment name, byte offset,
element count, dtype, seal generation)``.  A worker process maps the
named segment once, builds a **read-only** ``np.frombuffer`` view at the
offset, and computes on the very bytes the storage layer sealed — the
zero-copy and frozen-buffer invariants of the thread plane, preserved
across ``fork``.

:class:`SegmentPool` is the only place segments are created or
destroyed (lint rule ``DOOC006`` keeps it that way).  Blocks share
segments: ``allocate`` returns a *block key*, not a segment name.  A
block smaller than :data:`SMALL_BLOCK_BYTES` is carved out of a shared
:data:`SLAB_BYTES` segment with a bump pointer, so creating it costs
arithmetic instead of ``shm_open`` + ``ftruncate`` + ``mmap`` + two
resource-tracker messages; a larger block keeps a segment of its own
(and its key *is* that segment's name).  The pointer only moves forward:
a byte of a segment is handed out at most once, which is why fresh
blocks still arrive zeroed and why a view built before ``free`` stays
valid — nothing is ever carved over it.

The pool refcounts *leases* per segment (taken by worker proxies for the
duration of a dispatched task) and unlinks a segment once it takes no
new blocks, every block carved from it is freed **and** the last lease
is gone, so a reclaim can never pull the memory out from under an
in-flight task.  Unlinking removes the ``/dev/shm`` name immediately;
the mapping itself lives until the last view dies (NumPy's base
reference), which is why freeing is a *retire-and-sweep*: segments
whose buffers are still exported are parked and closed on a later sweep
instead of erroring.  The price of sharing is that one live block (or
one lease) keeps the freed blocks around it backed by memory;
``slack_peak_bytes`` is that price at its worst: bytes handed out of the
linked segments minus bytes of live blocks.  (What a slab has not handed
out yet is address space, not memory — tmpfs backs a page when it is
first written.)

Child-process attachments go through :func:`attach_view`, which also
works around bpo-39959: on Python < 3.13 attaching by name registers
the segment with the child's ``resource_tracker``, which would unlink
the parent's segment when the child exits — the attachment is
unregistered immediately after opening.  A child keeps its most recent
attachments mapped, bounded by :data:`ATTACH_CAP_BYTES` of mapping.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import numpy as np

from repro.core.errors import StorageError

__all__ = [
    "BlockHandle",
    "SegmentPool",
    "SegmentLeakError",
    "attach_view",
    "detach_all",
    "dev_shm_segments",
    "SEGMENT_PREFIX",
    "SLAB_BYTES",
    "SMALL_BLOCK_BYTES",
    "ATTACH_CAP_BYTES",
]

#: every pool segment name starts with this (leak scans key on it)
SEGMENT_PREFIX = "dooc-seg"
#: size of a shared segment small blocks are carved from
SLAB_BYTES = 1 << 20
#: a block smaller than this shares a slab; a larger one gets a segment of
#: its own, so a slab's unusable tail is always under a quarter of it
SMALL_BLOCK_BYTES = SLAB_BYTES // 4
#: carved blocks start on a cache line
_ALIGN = 64


class SegmentLeakError(StorageError):
    """A pool audit found segments or leases that should be gone."""


@dataclass(frozen=True)
class BlockHandle:
    """A pass-by-reference descriptor of a span of a sealed block.

    Handles are tiny and picklable: this is what the dispatch path sends
    to a worker process instead of the bytes.  ``generation`` is the
    block's seal generation at grant time — the same freshness stamp the
    decoded-operand cache keys on, so per-process caches in workers use
    identical keys and can never serve bytes the parent reclaimed.
    """

    segment: str      #: shared-memory segment name
    offset: int       #: byte offset of the span within the segment
    count: int        #: element count
    dtype: str        #: NumPy dtype string
    generation: int = 0

    @property
    def nbytes(self) -> int:
        return self.count * np.dtype(self.dtype).itemsize


class _Segment:
    __slots__ = ("name", "shm", "size", "top", "open", "live", "leases")

    def __init__(self, name: str, shm: shared_memory.SharedMemory,
                 size: int, open: bool):
        self.name = name
        self.shm = shm
        self.size = size
        self.top = 0        #: bump pointer: bytes below it were handed out
        self.open = open    #: still takes new blocks (the current slab)
        self.live = 0       #: blocks carved from it and not freed
        self.leases = 0


class _PoolSharedMemory(shared_memory.SharedMemory):
    """SharedMemory that keeps no descriptor and whose destructor
    tolerates still-exported views.

    The stock class holds the descriptor it mapped the segment from until
    ``close()``, and ``close()`` raises ``BufferError`` before it gets
    there while any NumPy view still exports the buffer.  A sealed block's
    segment is always still exported when it is retired (the store's view
    is what ``fetch()`` reads), so every segment of every run left one
    descriptor open for the life of the process.  Nothing needs it once
    the mapping exists: it is closed here, and all that remains is the
    mapping, which dies with its last view.

    ``__del__`` calls ``close()`` too — at interpreter exit that prints
    "Exception ignored in __del__" for every retired segment an engine's
    stores still reference.  The mapping is about to die with the process
    anyway; swallow it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if getattr(self, "_fd", -1) >= 0:  # POSIX only
            os.close(self._fd)
            self._fd = -1

    def __del__(self):  # pragma: no cover - interpreter-exit path
        try:
            super().__del__()
        except BufferError:
            pass


def _try_close(shm: shared_memory.SharedMemory) -> bool:
    """Close a mapping unless live views still export its buffer."""
    try:
        shm.close()
        return True
    except (BufferError, ValueError):
        return False


class SegmentPool:
    """Owner of this engine's shared-memory segments (parent side).

    Thread-safe: the per-node storage filters of one engine share a
    single pool (segment names are process-global anyway), and worker
    filter threads take/release leases concurrently.
    """

    def __init__(self, tag: str = ""):
        suffix = f"-{tag}" if tag else ""
        self._prefix = f"{SEGMENT_PREFIX}-{os.getpid()}{suffix}"
        self._lock = threading.Lock()
        #: linked segments by name
        self._segments: dict[str, _Segment] = {}
        #: live blocks: key -> (segment name, byte offset, nbytes)
        self._blocks: dict[str, tuple[str, int, int]] = {}
        self._slab: _Segment | None = None  # the segment open for carving
        #: unlinked segments whose mapping could not close yet (views alive)
        self._retired: list[shared_memory.SharedMemory] = []
        self._seq = itertools.count()
        self.created = 0        #: segments created
        self.freed_count = 0    #: segments unlinked
        self.carved_bytes = 0   #: bytes handed out of the linked segments
        self.live_bytes = 0     #: bytes of the live blocks
        #: the worst ``carved_bytes - live_bytes`` seen: what sharing costs
        self.slack_peak_bytes = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def allocate(self, nbytes: int) -> str:
        """Reserve ``nbytes`` of zeroed shared memory; returns the block's
        key (for :meth:`ndarray`, :meth:`locate` and :meth:`free`)."""
        nbytes = max(int(nbytes), 1)
        with self._lock:
            if self._closed:
                raise StorageError("segment pool is closed")
            if nbytes >= SMALL_BLOCK_BYTES:
                seg = self._create_locked(nbytes, open=False)
                key = seg.name
            else:
                seg = self._slab
                if seg is None or seg.top + nbytes > seg.size:
                    if seg is not None:
                        seg.open = False
                        self._maybe_unlink_locked(seg)
                    seg = self._slab = self._create_locked(
                        SLAB_BYTES, open=True)
                key = f"{seg.name}+{seg.top}"
            self._blocks[key] = (seg.name, seg.top, nbytes)
            top = -(-(seg.top + nbytes) // _ALIGN) * _ALIGN
            self.carved_bytes += top - seg.top
            seg.top = top
            seg.live += 1
            self.live_bytes += nbytes
            self._note_slack_locked()
            self._sweep_locked()
        return key

    def locate(self, key: str) -> tuple[str, int]:
        """``(segment name, byte offset)`` of a live block: what a
        :class:`BlockHandle` carries across the process boundary."""
        with self._lock:
            name, offset, _ = self._block_locked(key)
        return name, offset

    def ndarray(self, key: str, count: int, dtype: str, *,
                readonly: bool = False) -> np.ndarray:
        """A view over the first ``count`` elements of a block (parent
        side)."""
        with self._lock:
            name, offset, nbytes = self._block_locked(key)
            if count * np.dtype(dtype).itemsize > nbytes:
                raise StorageError(
                    f"{count} x {dtype} does not fit block {key!r} "
                    f"({nbytes} bytes)")
            view = np.frombuffer(self._segments[name].shm.buf, dtype=dtype,
                                 count=count, offset=offset)
        if readonly:
            view.flags.writeable = False
        return view

    def free(self, key: str) -> None:
        """The block was reclaimed: its bytes are never handed out again,
        and its segment is unlinked once nothing else needs it.

        Unlinking removes the name (no new attachment can map it); views
        already built over the mapping stay valid until they die.
        """
        with self._lock:
            name, _, nbytes = self._block_locked(key)
            del self._blocks[key]
            self.live_bytes -= nbytes
            seg = self._segments[name]
            seg.live -= 1
            self._maybe_unlink_locked(seg)
            self._note_slack_locked()
            self._sweep_locked()

    # -- leases --------------------------------------------------------------

    def lease(self, name: str) -> None:
        """Pin a segment for an in-flight cross-process task."""
        with self._lock:
            seg = self._segments.get(name)
            if seg is None:
                raise StorageError(f"cannot lease segment {name!r}")
            seg.leases += 1

    def release(self, name: str) -> None:
        with self._lock:
            seg = self._segments.get(name)
            if seg is None:
                return  # already unlinked by close() before a late release
            if seg.leases <= 0:
                raise StorageError(f"lease underflow on segment {name!r}")
            seg.leases -= 1
            self._maybe_unlink_locked(seg)

    # -- teardown / audit ----------------------------------------------------

    def close(self) -> None:
        """Unlink every remaining segment (engine cleanup / finalizer)."""
        with self._lock:
            self._closed = True
            self._blocks.clear()
            self.live_bytes = 0
            self._slab = None
            for seg in list(self._segments.values()):
                seg.open = False
                seg.live = seg.leases = 0
                self._maybe_unlink_locked(seg)
            self._sweep_locked()

    def lease_counts(self) -> dict[str, int]:
        with self._lock:
            return {n: s.leases for n, s in self._segments.items()
                    if s.leases}

    def live_segments(self) -> list[str]:
        """Names still linked in /dev/shm."""
        with self._lock:
            return sorted(self._segments)

    def assert_clean(self) -> None:
        """Raise if any lease survived the run (mirrors TicketAuditor)."""
        leaked = self.lease_counts()
        if leaked:
            detail = ", ".join(f"{n} x{c}" for n, c in sorted(leaked.items()))
            raise SegmentLeakError(
                f"segment leases leaked past the run: {detail}")

    # -- internals -----------------------------------------------------------

    def _block_locked(self, key: str) -> tuple[str, int, int]:
        try:
            return self._blocks[key]
        except KeyError:
            raise StorageError(f"block {key!r} not in pool") from None

    def _create_locked(self, size: int, *, open: bool) -> _Segment:
        name = f"{self._prefix}-{next(self._seq)}"
        # The one sanctioned constructor call (see DOOC006).
        shm = _PoolSharedMemory(name=name, create=True, size=size)
        seg = self._segments[name] = _Segment(name, shm, size, open)
        self.created += 1
        return seg

    def _maybe_unlink_locked(self, seg: _Segment) -> None:
        if seg.open or seg.live > 0 or seg.leases > 0:
            return
        try:
            seg.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - defensive
            pass
        self.freed_count += 1
        self.carved_bytes -= seg.top
        del self._segments[seg.name]
        if not _try_close(seg.shm):
            self._retired.append(seg.shm)

    def _note_slack_locked(self) -> None:
        slack = self.carved_bytes - self.live_bytes
        if slack > self.slack_peak_bytes:
            self.slack_peak_bytes = slack

    def _sweep_locked(self) -> None:
        self._retired = [shm for shm in self._retired
                         if not _try_close(shm)]


# ---------------------------------------------------------------------------
# Child-process attachment
# ---------------------------------------------------------------------------

#: A process keeps its most recent attachments mapped, up to this many
#: bytes of mapping (LRU beyond it; the newest always stays).  By bytes,
#: not by count: a slab is a mebibyte whatever it holds, and a worker that
#: kept a hundred of them mapped would count every page it ever touched as
#: its own.  Sized so a worker's operand segments (a sub-matrix block each)
#: and the few slabs its current vectors sit in are not mapped again for
#: every task.
ATTACH_CAP_BYTES = 8 * SLAB_BYTES
_attached: OrderedDict[str, shared_memory.SharedMemory] = OrderedDict()
_attached_bytes = 0
_evict_pending: list[shared_memory.SharedMemory] = []
_attach_lock = threading.Lock()


def _attach(name: str) -> shared_memory.SharedMemory:
    global _attached_bytes
    with _attach_lock:
        shm = _attached.get(name)
        if shm is not None:
            _attached.move_to_end(name)
            return shm
        # bpo-39959: attaching by name registers the segment with a
        # resource tracker, which would unlink the parent's segment when
        # this worker exits (spawn children own a private tracker) or
        # cancel the parent's own registration (fork children share the
        # parent's tracker, and a later ``unlink`` then double-
        # unregisters).  The parent owns the lifecycle — suppress the
        # registration entirely for the duration of the attach.
        original_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            shm = _PoolSharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
        _attached[name] = shm
        _attached_bytes += shm.size
        while _attached_bytes > ATTACH_CAP_BYTES and len(_attached) > 1:
            _, old = _attached.popitem(last=False)
            _attached_bytes -= old.size
            if not _try_close(old):
                _evict_pending.append(old)
        _evict_pending[:] = [s for s in _evict_pending if not _try_close(s)]
        return shm


def attach_view(handle: BlockHandle, *, writable: bool = False) -> np.ndarray:
    """Map a handle's span in this process (worker side).

    The returned view is read-only unless ``writable=True`` (output
    spans): the frozen-buffer invariant crosses the process boundary,
    so a task body writing an input raises exactly as it does in the
    thread plane.
    """
    shm = _attach(handle.segment)
    view = np.frombuffer(shm.buf, dtype=handle.dtype,
                         count=handle.count, offset=handle.offset)
    if not writable:
        view.flags.writeable = False
    return view


def detach_all() -> None:
    """Close every attachment of this process (worker shutdown)."""
    global _attached_bytes
    with _attach_lock:
        for shm in _attached.values():
            if not _try_close(shm):
                _evict_pending.append(shm)
        _attached.clear()
        _attached_bytes = 0
        _evict_pending[:] = [s for s in _evict_pending if not _try_close(s)]


# ---------------------------------------------------------------------------
# Leak scanning (tests / CI)
# ---------------------------------------------------------------------------


def dev_shm_segments(prefix: str = SEGMENT_PREFIX,
                     root: str | Path = "/dev/shm") -> list[str]:
    """Pool segments currently linked on the system (leak assertion)."""
    root = Path(root)
    if not root.is_dir():  # pragma: no cover - non-POSIX fallback
        return []
    return sorted(p.name for p in root.iterdir()
                  if p.name.startswith(prefix))
