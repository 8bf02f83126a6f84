"""Scratch-directory block I/O.

Each node's storage filter uses a scratch directory as its out-of-core
backing store.  Two on-disk layouts coexist, selected by the array's
codec (:mod:`repro.core.codecs`) and self-describing to readers:

* ``raw`` (codec unset): one binary file per array (``<name>.arr``),
  blocks at fixed offsets — the original fixed-stride layout;
* any other codec: a zarr-style chunk directory (``<name>.arrc/``) with
  one container file per block (``<block>.blk``), each a small header
  (magic, codec name, raw/payload sizes, CRC-32) followed by the encoded
  payload.  Variable-length compressed blocks never splice into a shared
  file, so a chunk write is a single whole-file atomic write.

Readers probe the layout on disk rather than trusting the descriptor, and
chunk headers name their own codec — an array seeded raw stays readable
under an engine whose default codec is ``zlib`` and vice versa.

A load takes one path per kind of destination, with no switch between
them: a raw block of ``_MMAP_MIN_BYTES`` and more is a read-only mapping
of its own bytes in the array file — not a copy of them
(:class:`_FileMapping`); a smaller one is read into a heap buffer; a
compressed one is decoded into a buffer of its own; a process-plane load
lands in the shared-memory segment the store allocated for it
(:func:`read_block_into`).

``IOFilter`` (a DataCutter filter) performs the actual reads/writes so
"the interactions with the file system [are] completely asynchronous" —
the storage filter never blocks on disk.

Failure semantics: every command is retried under a
:class:`~repro.faults.RetryPolicy` (exponential backoff + jitter); a
command whose retries are exhausted is answered with a structured
``io_error`` reply carrying the original ``token`` — the filter itself
never dies on an I/O error, so the storage layer can fail the blocked
tickets fast instead of stranding them.  A
:class:`~repro.core.errors.BlockMissingError` (block never written: file
absent, chunk absent, or offset past EOF) is **not** retried — the bytes
were never there, so backoff cannot help; the named type lets recovery
tell a reconstructable miss from real corruption.
"""

from __future__ import annotations

import contextlib
import ctypes
import mmap
import os
import random
import shutil
import struct
import time
from pathlib import Path

import numpy as np


from repro.core.array import ArrayDesc
from repro.core.codecs import checksum, get_codec
from repro.core.errors import BlockMissingError, StorageError
from repro.datacutter.buffers import END_OF_STREAM, DataBuffer
from repro.datacutter.filters import Filter, FilterContext
from repro.faults import FaultInjector, InjectedIOError, RetryPolicy
from repro.obs import MetricsRegistry, Tracer
from repro.util.atomicio import atomic_write

_SUFFIX = ".arr"
_CHUNK_SUFFIX = ".arrc"

#: chunk container framing: magic, codec name (NUL-padded ASCII),
#: raw byte count, encoded payload byte count, CRC-32 of the payload
CHUNK_MAGIC = b"DOOCCHK1"
_CHUNK_HEADER = struct.Struct("<8s16sQQI")
CHUNK_HEADER_NBYTES = _CHUNK_HEADER.size

#: smallest block that is loaded into a mapping of its own (glibc's own
#: default mmap threshold); see ``_FileMapping`` and ``block_buffer``
_MMAP_MIN_BYTES = 128 * 1024


def escape_name(name: str) -> str:
    """Mangle an array name into a flat, filesystem-safe file stem.

    ``%`` is escaped *first* so that a literal ``a%2Fb`` and ``a/b`` map to
    distinct files and the mapping round-trips (the previous scheme left
    them colliding on disk and un-mangled wrongly at startup scan).
    """
    return (name.replace("%", "%25")
                .replace("/", "%2F")
                .replace("\\", "%5C"))


def unescape_name(safe: str) -> str:
    """Inverse of :func:`escape_name` (``%25`` decoded last)."""
    return (safe.replace("%5C", "\\")
                .replace("%2F", "/")
                .replace("%25", "%"))


def array_path(scratch: Path, name: str) -> Path:
    """File backing ``name`` under the raw layout (array names may contain
    '/' -> subdirs not allowed; they are mangled to keep one flat
    directory)."""
    return Path(scratch) / f"{escape_name(name)}{_SUFFIX}"


def chunk_dir(scratch: Path, name: str) -> Path:
    """Chunk directory backing ``name`` under a compressed layout."""
    return Path(scratch) / f"{escape_name(name)}{_CHUNK_SUFFIX}"


def chunk_path(scratch: Path, name: str, block: int) -> Path:
    return chunk_dir(scratch, name) / f"{block:08d}.blk"


def desc_codec(desc: ArrayDesc) -> str:
    """The codec this descriptor *writes* with (``None`` -> raw)."""
    return desc.codec or "raw"


def backing_identity(scratch: Path, name: str) -> tuple | None:
    """``(file, st_ino, st_size, st_mtime_ns)`` of every file readers of
    ``name`` would open (the layout :func:`_layout` picks); ``None`` when
    nothing backs it.

    Equal identities at two moments mean the bytes between them are the
    same: every writer in this package replaces a file through
    ``atomic_write``'s rename, which gives it a new inode.
    """
    cdir = chunk_dir(scratch, name)
    try:
        files = (sorted(cdir.iterdir()) if cdir.is_dir()
                 else [array_path(scratch, name)])
        stats = [(f.name, os.stat(f)) for f in files]
    except FileNotFoundError:
        return None
    return tuple((fname, st.st_ino, st.st_size, st.st_mtime_ns)
                 for fname, st in stats)


def block_offset(desc: ArrayDesc, block: int) -> int:
    """Byte offset of ``block`` within the array's raw backing file."""
    desc.block_bounds(block)
    return block * desc.block_elems * desc.itemsize


def _inc(metrics, name: str, n: int) -> None:
    if metrics is not None and n:
        metrics.inc(name, int(n))


def pack_chunk(codec_name: str, raw, itemsize: int) -> bytes:
    """Frame one block's bytes as a self-describing chunk container."""
    codec = get_codec(codec_name)
    payload = codec.encode(raw, itemsize)
    name_bytes = codec_name.encode("ascii")
    if len(name_bytes) > 16:
        raise StorageError(f"codec name {codec_name!r} exceeds 16 bytes")
    header = _CHUNK_HEADER.pack(
        CHUNK_MAGIC, name_bytes.ljust(16, b"\0"),
        len(memoryview(raw).cast("B")), len(payload), checksum(payload))
    return header + payload


def _parse_chunk(blob: bytes, what: str):
    """Validate a chunk container's framing: ``(codec_name, raw_nbytes,
    payload)``.

    Every failure mode of a torn, truncated, or bit-flipped chunk file —
    short header, bad magic, payload shorter than the header promises,
    CRC mismatch — surfaces as a :class:`StorageError` naming ``what``.
    """
    if len(blob) < CHUNK_HEADER_NBYTES:
        raise StorageError(f"truncated chunk header for {what}")
    magic, codec_name, raw_nbytes, payload_nbytes, crc = \
        _CHUNK_HEADER.unpack_from(blob, 0)
    if magic != CHUNK_MAGIC:
        raise StorageError(f"bad chunk magic {magic!r} for {what}")
    payload = memoryview(blob)[CHUNK_HEADER_NBYTES:]
    if len(payload) != payload_nbytes:
        raise StorageError(
            f"chunk for {what} truncated: header promises {payload_nbytes} "
            f"payload bytes, file holds {len(payload)}")
    if checksum(payload) != crc:
        raise StorageError(f"chunk checksum mismatch for {what} (torn write "
                           "or bit rot)")
    return codec_name.rstrip(b"\0").decode("ascii"), raw_nbytes, payload


def unpack_chunk_into(blob: bytes, out: memoryview, itemsize: int,
                      what: str) -> None:
    """Verify and decode a chunk container straight into ``out``.

    On top of :func:`_parse_chunk`'s framing checks, a raw-size mismatch
    against ``out``, an unregistered codec, or a payload that will not
    decode to exactly ``len(out)`` bytes all surface as
    :class:`StorageError`; a corrupt chunk can never install garbage.
    """
    codec_name, raw_nbytes, payload = _parse_chunk(blob, what)
    if raw_nbytes != len(out):
        raise StorageError(
            f"chunk for {what} holds {raw_nbytes} raw bytes, want {len(out)}")
    get_codec(codec_name).decode_into(payload, out, itemsize)


def _raw_bytes(data: np.ndarray, desc: ArrayDesc) -> memoryview:
    """The bytes of ``data`` as ``desc`` stores them, for the file write
    or the encoder to read in place: the array's own buffer when it is
    C-contiguous and of the array's dtype already, one copy otherwise."""
    return memoryview(
        np.ascontiguousarray(data, dtype=desc.dtype).view(np.uint8))


def write_block(scratch: Path, desc: ArrayDesc, block: int, data: np.ndarray,
                *, metrics: MetricsRegistry | None = None) -> None:
    """Persist one block (creating/growing the backing as needed).

    Raw layout: :func:`repro.util.atomicio.atomic_write` splices the block
    into a complete fsynced temporary and renames it over the array file,
    so a crash mid-write never leaves a torn block — and its per-path lock
    serializes concurrent first-writes of different blocks.  An array of
    one block has nothing to splice into: the file is replaced by the
    block, without reading what stood there.  Compressed layouts write
    one self-contained chunk file per block, so the same atomic-rename
    guarantee costs one small file, not a whole-array rewrite.
    """
    expected = desc.block_length(block)
    if data.shape != (expected,):
        raise StorageError(
            f"block {block} of {desc.name!r} has length {expected}, "
            f"got shape {data.shape}"
        )
    raw = _raw_bytes(data, desc)
    codec_name = desc_codec(desc)
    if codec_name == "raw":
        atomic_write(array_path(scratch, desc.name), raw,
                     offset=(block_offset(desc, block)
                             if desc.n_blocks > 1 else None))
        _inc(metrics, "disk_bytes_written", raw.nbytes)
    else:
        blob = pack_chunk(codec_name, raw, desc.itemsize)
        atomic_write(chunk_path(scratch, desc.name, block), blob)
        _inc(metrics, "disk_bytes_written", len(blob))
    _inc(metrics, "logical_bytes_written", raw.nbytes)


def _read_chunk_blob(scratch: Path, desc: ArrayDesc, block: int) -> bytes:
    path = chunk_path(scratch, desc.name, block)
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise BlockMissingError(
            f"block {block} of {desc.name!r} was never written: "
            f"no chunk file {path}") from None


def _layout(scratch: Path, desc: ArrayDesc) -> str:
    """Which layout backs this array on disk right now?

    Readers self-describe from the filesystem: the chunk directory wins
    when present (a compressed writer created it), the raw file
    otherwise.  Neither existing is a missing *array* — reported as a
    missing block so sparse/never-written reads stay reconstructable.
    """
    if chunk_dir(scratch, desc.name).is_dir():
        return "chunk"
    return "raw"


_libc = ctypes.CDLL(None, use_errno=True)
_libc.mmap.restype = ctypes.c_void_p
_libc.mmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int,
                       ctypes.c_int, ctypes.c_int, ctypes.c_long)
_libc.munmap.restype = ctypes.c_int
_libc.munmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t)
_MAP_FAILED = ctypes.c_void_p(-1).value


class _FileMapping:
    """A read-only private mapping of one byte range of a file, exposed
    through the array interface.

    Every mapping in the package is made here, which is what keeps three
    properties in one place (lint rule ``DOOC008``).  It holds **no file
    descriptor**: ``mmap.mmap(fd, ...)`` dups one per mapping and keeps it
    (CPython < 3.13), so a store of resident blocks would run into
    ``RLIMIT_NOFILE``; ``libc.mmap`` needs the caller's descriptor only
    for the duration of the call.  It is unmapped when the last array
    over it dies (numpy keeps this object as the arrays' base), so
    resident memory follows the store's budget.  And it is read-only to
    numpy (``data``'s flag, which ``setflags(write=True)`` cannot undo)
    and to the MMU (``PROT_READ``) alike.

    The pages are populated at map time, so a cold read waits here, in
    the I/O filter, and not in the task that first touches the block.
    """

    __slots__ = ("_addr", "_length", "__array_interface__")

    def __init__(self, fd: int, offset: int, nbytes: int):
        self._length = 0  # nothing to unmap until the call succeeds
        skew = offset % mmap.ALLOCATIONGRANULARITY
        length = nbytes + skew
        addr = _libc.mmap(None, length, mmap.PROT_READ,
                          mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0),
                          fd, offset - skew)
        if addr == _MAP_FAILED:
            err = ctypes.get_errno()
            raise OSError(err, f"mmap of {nbytes} bytes at offset {offset}: "
                               f"{os.strerror(err)}")
        self._addr, self._length = addr, length
        self.__array_interface__ = {
            "version": 3, "shape": (nbytes,), "typestr": "|u1",
            "data": (addr + skew, True)}

    def __del__(self, _munmap=_libc.munmap):  # bound: globals go first at exit
        if self._length:
            _munmap(self._addr, self._length)


def block_buffer(count: int, dtype=np.uint8) -> np.ndarray:
    """Zero-filled writable memory for ``count`` elements of one block:
    the allocator behind every block-sized buffer of the thread plane.

    A large block gets an anonymous mapping of its own, which returns to
    the operating system the moment its last view dies, whichever thread
    drops it.  From the heap it would not: glibc raises its mmap
    threshold to the first large block freed, serves the next ones from
    the allocating thread's arena, and keeps up to twice that size of
    freed memory at the top of every arena the threads of a run used —
    resident memory then follows the number of runs a process has made,
    not the budget.  Below ``_MMAP_MIN_BYTES`` a mapping costs more than
    it returns, and the heap serves the block.

    The array is wrapped here and nowhere else, so it is writable until
    whoever publishes it freezes it (lint rule ``DOOC010`` takes every
    other ``np.frombuffer`` for a sealed view).
    """
    dtype = np.dtype(dtype)
    nbytes = count * dtype.itemsize
    if nbytes < _MMAP_MIN_BYTES:
        buf = bytearray(nbytes)
    else:
        # Pre-faulting in one call is a third cheaper than 4 KiB at a time.
        buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
                        | getattr(mmap, "MAP_POPULATE", 0))
    return np.frombuffer(buf, dtype=dtype)


def _short_read(desc: ArrayDesc, block: int, path: Path,
                got: int, want: int) -> StorageError:
    return StorageError(
        f"short read of block {block} of {desc.name!r} from {path}: "
        f"got {got} of {want} bytes (torn or truncated file)")


@contextlib.contextmanager
def _raw_block_file(scratch: Path, desc: ArrayDesc, block: int):
    """Open the raw array file for reading ``block``: yields ``(file,
    offset)``.

    Whether the block is missing (no file, or offset past its end) or
    torn (the file ends inside it) is decided from ``fstat`` before a
    byte is read or mapped, so a short file is a named error and can
    never become a ``SIGBUS`` on a mapped page.
    """
    path = array_path(scratch, desc.name)
    offset = block_offset(desc, block)
    want = desc.block_nbytes(block)
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise BlockMissingError(
            f"block {block} of {desc.name!r} was never written: "
            f"no backing file {path}") from None
    with fh:
        size = os.fstat(fh.fileno()).st_size
        if offset >= size:
            raise BlockMissingError(
                f"block {block} of {desc.name!r} was never written: "
                f"offset {offset} past end of {path} ({size} bytes)")
        if size - offset < want:
            raise _short_read(desc, block, path, size - offset, want)
        yield fh, offset


def read_block(scratch: Path, desc: ArrayDesc, block: int,
               *, metrics: MetricsRegistry | None = None) -> np.ndarray:
    """Load one block; returns it frozen.

    Blocks entering the store through this path are sealed under
    write-once, so a read-only buffer is exactly the invariant the rest
    of the data plane wants to hand out.  A large raw block is not copied
    at all: the array is a view of the page cache's own pages (see
    :class:`_FileMapping`), which every later holder of the block shares.
    That is sound because array files are written once and replaced only
    by ``atomic_write``'s rename: a replaced or unlinked file leaves the
    mapping on the old inode, with the bytes that were loaded.  Small
    blocks are read into a heap buffer, compressed ones decoded into a
    buffer of their own.
    """
    want = desc.block_nbytes(block)
    if want >= _MMAP_MIN_BYTES and _layout(scratch, desc) == "raw":
        with _raw_block_file(scratch, desc, block) as (fh, offset):
            mapping = _FileMapping(fh.fileno(), offset, want)
        _inc(metrics, "disk_bytes_read", want)
        _inc(metrics, "logical_bytes_read", want)
        _inc(metrics, "bytes_mapped", want)
        return np.asarray(mapping).view(desc.dtype)
    out = block_buffer(desc.block_length(block), desc.dtype)
    read_block_into(scratch, desc, block, out, metrics=metrics)
    out.flags.writeable = False
    return out


def read_block_into(scratch: Path, desc: ArrayDesc, block: int,
                    out: np.ndarray,
                    *, metrics: MetricsRegistry | None = None) -> np.ndarray:
    """Load one block into ``out``.

    The segment-pool load path: ``out`` is a writable view over a
    shared-memory segment.  Raw blocks ``readinto`` it directly from the
    file, with no intermediate block buffer; compressed blocks are
    decoded by their codec's ``decode_into``, which for the zlib codecs
    inflates to a temporary first (see :mod:`repro.core.codecs`).
    """
    want = desc.block_nbytes(block)
    if out.nbytes != want:
        raise StorageError(
            f"destination for block {block} of {desc.name!r} holds "
            f"{out.nbytes} bytes, want {want}")
    dest = memoryview(out).cast("B")
    if _layout(scratch, desc) == "chunk":
        blob = _read_chunk_blob(scratch, desc, block)
        unpack_chunk_into(blob, dest, desc.itemsize,
                          f"block {block} of {desc.name!r}")
        _inc(metrics, "disk_bytes_read", len(blob))
        _inc(metrics, "logical_bytes_read", want)
        return out
    with _raw_block_file(scratch, desc, block) as (fh, offset):
        fh.seek(offset)
        got = fh.readinto(dest)
    if got != want:
        raise _short_read(desc, block, array_path(scratch, desc.name),
                          got, want)
    _inc(metrics, "disk_bytes_read", want)
    _inc(metrics, "logical_bytes_read", want)
    return out


def write_array(scratch: Path, desc: ArrayDesc, data: np.ndarray,
                *, metrics: MetricsRegistry | None = None) -> None:
    """Persist a whole array (used to seed initial data).

    The raw layout seeds with a **single** atomic write of the complete
    file.  (It used to call :func:`write_block` per block, and every such
    call re-ran ``atomic_write``'s read-splice-fsync-rename of the whole
    array file: O(blocks x file size) rewrite churn — one rename and one
    fsync per *block* — on every seed.)  Compressed layouts write one
    chunk file per block; each is small and independently atomic.
    """
    if data.shape != (desc.length,):
        raise StorageError(
            f"array {desc.name!r} has length {desc.length}, got {data.shape}"
        )
    if desc_codec(desc) == "raw":
        raw = _raw_bytes(data, desc)
        atomic_write(array_path(scratch, desc.name), raw)
        _inc(metrics, "disk_bytes_written", raw.nbytes)
        return
    for b in desc.blocks():
        lo, hi = desc.block_bounds(b)
        write_block(scratch, desc, b,
                    np.asarray(data[lo:hi], dtype=desc.dtype),
                    metrics=metrics)


def read_array(scratch: Path, desc: ArrayDesc,
               *, metrics: MetricsRegistry | None = None) -> np.ndarray:
    """Load a whole array from its backing file(s)."""
    return np.concatenate([
        read_block(scratch, desc, b, metrics=metrics) for b in desc.blocks()
    ])


def delete_array_file(scratch: Path, name: str) -> None:
    path = array_path(scratch, name)
    if path.exists():
        os.unlink(path)
    cdir = chunk_dir(scratch, name)
    if cdir.is_dir():
        shutil.rmtree(cdir, ignore_errors=True)


def copy_array_files(src: Path, dst: Path, name: str) -> None:
    """Re-seed an array's backing bytes into another scratch directory.

    Used by node-loss recovery: whichever layout backs the array at the
    source is reproduced at the destination, each file crash-atomically.
    """
    copied = False
    spath = array_path(src, name)
    if spath.exists():
        atomic_write(array_path(dst, name), spath.read_bytes())
        copied = True
    sdir = chunk_dir(src, name)
    if sdir.is_dir():
        for chunk in sorted(sdir.iterdir()):
            atomic_write(chunk_dir(dst, name) / chunk.name,
                         chunk.read_bytes())
        copied = True
    if not copied:
        raise BlockMissingError(
            f"array {name!r} has no backing files under {src}")


def discover_arrays(scratch: Path) -> list[str]:
    """Array names present in a scratch directory (startup scan).

    Mirrors the paper's storage start-up: "the storage looks for files in
    that directory and records the name of the arrays as well as their
    sizes".  Both layouts are discovered — raw ``.arr`` files and
    compressed ``.arrc`` chunk directories.
    """
    root = Path(scratch)
    if not root.exists():
        return []
    names = set()
    for path in root.glob(f"*{_SUFFIX}"):
        if path.is_file():
            names.add(unescape_name(path.name[: -len(_SUFFIX)]))
    for path in root.glob(f"*{_CHUNK_SUFFIX}"):
        if path.is_dir():
            names.add(unescape_name(path.name[: -len(_CHUNK_SUFFIX)]))
    return sorted(names)


class IOFilter(Filter):
    """Executes load/store commands against a scratch directory.

    Input buffers: ``{"op": "load"|"store", "desc": ArrayDesc, "block": int,
    "data": ndarray (store only), "token": any}``.  Replies mirror the
    command with ``data`` filled for loads; a command that keeps failing
    after ``retry.attempts`` tries is answered with ``{"op": "io_error",
    "failed_op": ..., "error": ..., "token": ...}`` instead of killing the
    filter thread.  Deploy "as many I/O filters as is necessary to
    efficiently use the parallelism contained in the I/O subsystem" —
    instances are stateless and replicable.
    """

    inputs = ("in",)
    outputs = ("out",)

    def __init__(self, scratch: Path, *, node: int = -1,
                 tracer: Tracer | None = None,
                 retry: RetryPolicy | None = None,
                 injector: FaultInjector | None = None,
                 metrics: MetricsRegistry | None = None,
                 segment_pool=None):
        self.scratch = Path(scratch)
        self.node = node
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.retry = retry if retry is not None else RetryPolicy()
        self.injector = injector
        self.metrics = metrics
        #: repro.core.shm.SegmentPool when loads must land in shared
        #: memory (process worker plane); None for plain heap loads
        self.segment_pool = segment_pool
        self._jitter_rng = random.Random(node * 2654435761 + 17)

    def _inc(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, n)

    def _attempt(self, fn, op: str, desc: ArrayDesc, block: int, lane: str):
        """Run ``fn`` with fault injection and retry/backoff.

        Returns ``(result, None)`` on success or ``(None, error)`` once the
        policy is exhausted (or a permanent fault is injected).  A
        :class:`BlockMissingError` short-circuits the retry loop: the
        block was never on disk, so no amount of backoff will produce it
        — the named error reaches the storage layer on the first attempt.
        """
        last: BaseException | None = None
        for attempt in range(self.retry.attempts):
            if attempt > 0:
                self._inc("io_retries")
                self.tracer.instant(self.node, lane, "io", "io_retry",
                                    op=op, array=desc.name, block=block,
                                    attempt=attempt)
                time.sleep(self.retry.delay(attempt, self._jitter_rng))
            if self.injector is not None:
                kind = self.injector.io_fault(op, desc.name, block, attempt)
                if kind == "permanent":
                    last = InjectedIOError(
                        f"injected permanent {op} fault on "
                        f"{desc.name}[{block}] (node {self.node})")
                    break
                if kind == "transient":
                    last = InjectedIOError(
                        f"injected transient {op} fault on "
                        f"{desc.name}[{block}] attempt {attempt}")
                    continue
            try:
                return fn(), None
            except BlockMissingError as exc:
                last = exc
                break  # retries cannot conjure never-written bytes
            except (OSError, StorageError) as exc:
                last = exc
        self._inc("io_failures")
        self.tracer.instant(self.node, lane, "io", "io_error", op=op,
                            array=desc.name, block=block, error=repr(last))
        return None, last

    def process(self, ctx: FilterContext) -> None:
        tracer = self.tracer
        lane = f"io/{ctx.instance}"
        while True:
            buf = ctx.read("in")
            if buf is END_OF_STREAM:
                return
            cmd = buf.payload
            desc: ArrayDesc = cmd["desc"]
            block: int = cmd["block"]
            op: str = cmd["op"]
            token = cmd.get("token")
            start = tracer.now()
            if op == "load":
                segment = cmd.get("segment") or ""
                if segment and self.segment_pool is not None:
                    # Destination segment pre-allocated by the store:
                    # readinto (or decode into) it directly, then hand
                    # back the sealed (frozen) view.
                    def _load_into(segment=segment):
                        out = self.segment_pool.ndarray(
                            segment, desc.block_length(block), desc.dtype)
                        read_block_into(self.scratch, desc, block, out,
                                        metrics=self.metrics)
                        out.flags.writeable = False
                        return out

                    data, error = self._attempt(
                        _load_into, op, desc, block, lane)
                else:
                    data, error = self._attempt(
                        lambda: read_block(self.scratch, desc, block,
                                           metrics=self.metrics),
                        op, desc, block, lane)
                if error is None:
                    tracer.complete(self.node, lane, "io", "read", start,
                                    array=desc.name, block=block)
                    ctx.write("out", DataBuffer(
                        {"op": "loaded", "desc": desc, "block": block,
                         "data": data, "token": token}))
                    continue
            elif op == "store":
                _, error = self._attempt(
                    lambda: write_block(self.scratch, desc, block,
                                        cmd["data"], metrics=self.metrics),
                    op, desc, block, lane)
                if error is None:
                    tracer.complete(self.node, lane, "io", "write", start,
                                    array=desc.name, block=block)
                    ctx.write("out", DataBuffer(
                        {"op": "stored", "desc": desc, "block": block,
                         "token": token}))
                    continue
            elif op == "unlink":
                _, error = self._attempt(
                    lambda: delete_array_file(self.scratch, desc.name),
                    op, desc, block, lane)
                if error is None:
                    tracer.complete(self.node, lane, "io", "unlink", start,
                                    array=desc.name)
                    ctx.write("out", DataBuffer(
                        {"op": "unlinked", "desc": desc, "block": -1,
                         "token": token}))
                    continue
            else:
                raise StorageError(f"unknown I/O op {op!r}")
            ctx.write("out", DataBuffer(
                {"op": "io_error", "failed_op": op, "desc": desc,
                 "block": block, "error": repr(error), "token": token}))
