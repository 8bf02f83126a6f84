"""Scratch-directory block I/O.

Each node's storage filter uses a scratch directory as its out-of-core
backing store.  A block is one file, named by the array's descriptor
alone (:func:`block_path`, zarr's one key per chunk):

* the suffix is the codec's class: ``.arr`` for ``raw`` (codec unset),
  ``.arrc`` for any other codec (:mod:`repro.core.codecs`);
* an array of one block is the file ``<name>.arr`` or ``<name>.arrc``;
  one of several blocks is the directory of that name, holding one
  ``<block:08d>.blk`` per block;
* a raw file is exactly the block's bytes; an encoded one is a small
  header (magic, codec name, raw/payload sizes, CRC-32) followed by the
  encoded payload.

Writing a block therefore replaces one whole file by one atomic rename,
whatever the codec, and a load opens the one file the descriptor names
and asks the file system about no other path.  An array is read with the
codec and blocking it was written with: the engine stamps the codec of
an array declared from scratch from its files once per run
(:func:`backing_codec`), and a file where a directory belongs, or the
reverse, is a :class:`StorageError` that says to re-seed.

A load takes one path per kind of destination, with no switch between
them: a raw block of ``_MMAP_MIN_BYTES`` and more on the thread plane is
a read-only mapping of its own file — not a copy of it
(:class:`_FileMapping`, :func:`maps_file`); any other lands in the
destination the store allocated when the load started
(:func:`read_block_into`): a shared-memory segment on the process plane,
memory from the store's free list on the thread plane
(:class:`BufferPool`), read into or decoded into, from a mapping of its
chunk file when that is as large.

``IOFilter`` (a DataCutter filter) performs the actual reads/writes so
"the interactions with the file system [are] completely asynchronous" —
the storage filter never blocks on disk.

Failure semantics: every command is retried under a
:class:`~repro.faults.RetryPolicy` (exponential backoff + jitter); a
command whose retries are exhausted is answered with a structured
``io_error`` reply carrying the original ``token`` — the filter itself
never dies on an I/O error, so the storage layer can fail the blocked
tickets fast instead of stranding them.  A
:class:`~repro.core.errors.BlockMissingError` (block never written: its
file absent) is **not** retried — the bytes
were never there, so backoff cannot help; the named type lets recovery
tell a reconstructable miss from real corruption.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import mmap
import os
import random
import shutil
import struct
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np


from repro.core.array import ArrayDesc
from repro.core.codecs import checksum, get_codec
from repro.core.errors import BlockMissingError, ChunkFormatError, StorageError
from repro.datacutter.buffers import END_OF_STREAM, DataBuffer
from repro.datacutter.filters import Filter, FilterContext
from repro.faults import FaultInjector, InjectedIOError, RetryPolicy
from repro.obs import MetricsRegistry, Tracer
from repro.util.atomicio import atomic_file, atomic_write

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import RunState

_SUFFIX = ".arr"
_CHUNK_SUFFIX = ".arrc"

#: chunk container framing: magic, codec name (NUL-padded ASCII),
#: raw byte count, encoded payload byte count, CRC-32 of the payload
CHUNK_MAGIC = b"DOOCCHK3"
#: the same framing's earlier magics, each refused (by what its payloads
#: lack) rather than decoded into other bytes
_EARLIER_MAGICS = {
    b"DOOCCHK1": "before delta-coded zlib payloads",
    b"DOOCCHK2": "before zlib payloads kept raw segments unfiltered",
}
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
    """The file of a one-block raw array ``name`` (array names may
    contain '/' -> subdirs not allowed; they are mangled to keep one flat
    directory)."""
    return Path(scratch) / f"{escape_name(name)}{_SUFFIX}"


def desc_codec(desc: ArrayDesc) -> str:
    """The codec this descriptor *writes* with (``None`` -> raw)."""
    return desc.codec or "raw"


def block_path(scratch: Path, desc: ArrayDesc, block: int) -> Path:
    """The one file that holds ``block`` of ``desc``: ``<name>.arr``
    (raw) or ``<name>.arrc`` (encoded) when the array has one block,
    ``<block:08d>.blk`` in the directory of that name otherwise."""
    desc.block_bounds(block)
    suffix = _SUFFIX if desc_codec(desc) == "raw" else _CHUNK_SUFFIX
    path = Path(scratch) / f"{escape_name(desc.name)}{suffix}"
    return path if desc.n_blocks == 1 else path / f"{block:08d}.blk"


def _backings(scratch: Path, name: str) -> list[Path]:
    """Every file or directory of ``name`` on disk, under either suffix."""
    stem = escape_name(name)
    return [path for suffix in (_SUFFIX, _CHUNK_SUFFIX)
            if (path := Path(scratch) / f"{stem}{suffix}").exists()]


def backing_identity(scratch: Path, name: str) -> tuple | None:
    """``(file, st_ino, st_size, st_mtime_ns)`` of every file that backs
    ``name`` (``file`` relative to ``scratch``, in order: a directory's
    block files by block); ``None`` when nothing backs it.

    Equal identities at two moments mean the bytes between them are the
    same: every writer in this package replaces a file through
    ``atomic_write``'s rename, which gives it a new inode.
    """
    root = Path(scratch)
    try:
        files = [f for path in _backings(root, name)
                 for f in (sorted(path.iterdir()) if path.is_dir() else [path])]
        stats = [(f.relative_to(root).as_posix(), os.stat(f)) for f in files]
    except FileNotFoundError:
        return None
    return tuple((fname, st.st_ino, st.st_size, st.st_mtime_ns)
                 for fname, st in stats) or None


def backing_codec(scratch: Path, identity: tuple) -> str:
    """The codec of the files :func:`backing_identity` named: ``raw``
    for an ``.arr`` backing, the codec the first chunk's header names for
    an ``.arrc`` one."""
    fname, _, size, _ = identity[0]
    if fname.partition("/")[0].endswith(_SUFFIX):
        return "raw"
    with open(Path(scratch) / fname, "rb") as fh:
        return _chunk_header(fh.read(CHUNK_HEADER_NBYTES), size, fname)[0]


def _inc(metrics, name: str, n: int) -> None:
    if metrics is not None and n:
        metrics.inc(name, int(n))


def _write_chunk(fh, codec_name: str, raw: memoryview, itemsize: int) -> int:
    """Write one block's bytes as a self-describing chunk container into
    the binary file ``fh``, from its start; returns the bytes written.

    The codec's payload pieces go to the file as they come, behind room
    left for the header, which is written last, when the payload's
    length and CRC-32 are known: the payload is never whole in memory.
    """
    name_bytes = codec_name.encode("ascii")
    if len(name_bytes) > 16:
        raise StorageError(f"codec name {codec_name!r} exceeds 16 bytes")
    fh.seek(CHUNK_HEADER_NBYTES)
    crc = size = 0
    for piece in get_codec(codec_name).encode_pieces(raw, itemsize):
        fh.write(piece)
        crc = checksum(piece, crc)
        size += memoryview(piece).nbytes
    fh.seek(0)
    fh.write(_CHUNK_HEADER.pack(CHUNK_MAGIC, name_bytes.ljust(16, b"\0"),
                                raw.nbytes, size, crc))
    return CHUNK_HEADER_NBYTES + size


def pack_chunk(codec_name: str, raw, itemsize: int) -> tuple[bytes, bytes]:
    """The chunk container :func:`write_block` writes for ``raw``, in
    memory: ``(header, payload)``."""
    buf = io.BytesIO()
    _write_chunk(buf, codec_name, memoryview(raw).cast("B"), itemsize)
    blob = buf.getvalue()
    return blob[:CHUNK_HEADER_NBYTES], blob[CHUNK_HEADER_NBYTES:]


def _chunk_header(header, file_nbytes: int, what: str):
    """Validate a chunk container's header against the length of the file
    holding it: ``(codec_name, raw_nbytes, crc)``.

    A short header, bad magic, a codec name that is not ASCII, or a file
    shorter (or longer) than the header promises is a
    :class:`StorageError` naming ``what``; a chunk of an earlier format
    is a :class:`ChunkFormatError`.
    """
    if len(header) < CHUNK_HEADER_NBYTES:
        raise StorageError(f"truncated chunk header for {what}")
    magic, codec_name, raw_nbytes, payload_nbytes, crc = \
        _CHUNK_HEADER.unpack_from(header, 0)
    if magic in _EARLIER_MAGICS:
        raise ChunkFormatError(
            f"chunk for {what} has the format {_EARLIER_MAGICS[magic]} "
            f"({magic!r}, want {CHUNK_MAGIC!r}); re-seed the array")
    if magic != CHUNK_MAGIC:
        raise StorageError(f"bad chunk magic {magic!r} for {what}")
    if file_nbytes - CHUNK_HEADER_NBYTES != payload_nbytes:
        raise StorageError(
            f"chunk for {what} truncated: header promises {payload_nbytes} "
            f"payload bytes, file holds {file_nbytes - CHUNK_HEADER_NBYTES}")
    try:
        name = codec_name.rstrip(b"\0").decode("ascii")
    except UnicodeDecodeError:
        raise StorageError(f"chunk codec name {codec_name!r} for {what} is "
                           "not ASCII") from None
    return name, raw_nbytes, crc


def _parse_chunk(blob, what: str):
    """Validate a chunk container's framing: ``(codec_name, raw_nbytes,
    payload)``.

    Every failure mode of a torn, truncated, or bit-flipped chunk file —
    :func:`_chunk_header`'s, and a CRC mismatch — surfaces as a
    :class:`StorageError` naming ``what``.  ``payload`` is a view of
    ``blob``, not a copy.
    """
    name, raw_nbytes, crc = _chunk_header(blob, len(blob), what)
    payload = memoryview(blob)[CHUNK_HEADER_NBYTES:]
    if checksum(payload) != crc:
        raise StorageError(f"chunk checksum mismatch for {what} (torn write "
                           "or bit rot)")
    return name, raw_nbytes, payload


def unpack_chunk_into(blob, out: memoryview, itemsize: int,
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
                *, metrics: MetricsRegistry | None = None,
                durable: bool = True) -> None:
    """Persist one block: replace its one file (see the module notes).

    :func:`repro.util.atomicio.atomic_file` takes the block's bytes (or
    its chunk container, streamed by :func:`_write_chunk`) into a
    temporary and renames it over the block's file, so a crash mid-write
    never leaves a torn block, and nothing else of the array is read or
    rewritten.  The temporary is fsynced unless ``durable=False`` (a
    spill: scratch the engine deletes itself).
    """
    expected = desc.block_length(block)
    if data.shape != (expected,):
        raise StorageError(
            f"block {block} of {desc.name!r} has length {expected}, "
            f"got shape {data.shape}"
        )
    raw = _raw_bytes(data, desc)
    codec_name = desc_codec(desc)
    path = block_path(scratch, desc, block)
    if codec_name == "raw":
        atomic_write(path, raw, durable=durable)
        written = raw.nbytes
    else:
        with atomic_file(path, durable=durable) as fh:
            written = _write_chunk(fh, codec_name, raw, desc.itemsize)
    _inc(metrics, "disk_bytes_written", written)
    _inc(metrics, "logical_bytes_written", raw.nbytes)


_libc = ctypes.CDLL(None, use_errno=True)
_libc.mmap.restype = ctypes.c_void_p
_libc.mmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int,
                       ctypes.c_int, ctypes.c_int, ctypes.c_long)
_libc.munmap.restype = ctypes.c_int
_libc.munmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t)
_MAP_FAILED = ctypes.c_void_p(-1).value


class _FileMapping:
    """A read-only private mapping of the first ``nbytes`` of a file,
    exposed through the array interface.

    Every mapping in the package is made in this module, here or in
    :class:`_AnonMapping`, which is what keeps three properties in one
    place (lint rule ``DOOC008``).  It holds **no file
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

    def __init__(self, fd: int, nbytes: int):
        self._length = 0  # nothing to unmap until the call succeeds
        addr = _libc.mmap(None, nbytes, mmap.PROT_READ,
                          mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0),
                          fd, 0)
        if addr == _MAP_FAILED:
            err = ctypes.get_errno()
            raise OSError(err, f"mmap of {nbytes} bytes: {os.strerror(err)}")
        self._addr, self._length = addr, nbytes
        self.__array_interface__ = {
            "version": 3, "shape": (nbytes,), "typestr": "|u1",
            "data": (addr, True)}

    def __del__(self, _munmap=_libc.munmap):  # bound: globals go first at exit
        if self._length:
            _munmap(self._addr, self._length)


def _pages(nbytes: int) -> int:
    """``nbytes`` rounded up to whole pages: the length of its mapping."""
    return -(-nbytes // mmap.PAGESIZE) * mmap.PAGESIZE


class _AnonMapping:
    """Private anonymous memory of ``length`` bytes, exposed through the
    array interface as its first ``nbytes``, writable.

    Like :class:`_FileMapping` it lives exactly as long as the last array
    over it.  Then it goes back to ``spare``, the free list of the store
    it was made for, when that has room for it (:class:`BufferPool`), and
    to the operating system otherwise.  So no live view ever sees its
    bytes reused.
    """

    __slots__ = ("_addr", "_length", "_spare", "__array_interface__")

    def __init__(self, nbytes: int, spare: BufferPool | None = None,
                 addr: int | None = None):
        self._length = 0  # nothing to unmap until the call succeeds
        length = _pages(nbytes)
        if addr is None:
            # Pre-faulting in one call is a third cheaper than 4 KiB at a
            # time.
            addr = _libc.mmap(None, length, mmap.PROT_READ | mmap.PROT_WRITE,
                              mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
                              | getattr(mmap, "MAP_POPULATE", 0), -1, 0)
            if addr == _MAP_FAILED:
                err = ctypes.get_errno()
                raise OSError(err, f"mmap of {length} bytes: "
                              f"{os.strerror(err)}")
        self._addr, self._length, self._spare = addr, length, spare
        self.__array_interface__ = {
            "version": 3, "shape": (nbytes,), "typestr": "|u1",
            "data": (addr, False)}

    def __del__(self, _munmap=_libc.munmap):  # bound: globals go first at exit
        if self._length and (self._spare is None
                             or not self._spare._keep(self._addr,
                                                      self._length)):
            _munmap(self._addr, self._length)


def block_buffer(count: int, dtype=np.uint8) -> np.ndarray:
    """Zero-filled writable memory for ``count`` elements of one block:
    the allocator behind every block-sized buffer of the thread plane
    that no store makes (a store's come from its :class:`BufferPool`).

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
        return np.frombuffer(bytearray(nbytes), dtype=dtype)
    return np.asarray(_AnonMapping(nbytes)).view(dtype)


class BufferPool:
    """A thread-plane store's free list: the anonymous mappings of the
    blocks it dropped, by page-rounded length, kept for its next write
    grants and load destinations.

    A mapping comes back here when the last view of its block dies
    (:class:`_AnonMapping`), whichever thread drops it, and is kept only
    if it fits in ``room``, which the store sets to its budget less its
    ``in_use`` whenever that changes: the free list lives inside the
    budget.  :meth:`take` trims the list to ``room`` after it takes, and
    :meth:`trim` does when the store's ``in_use`` grows without a take;
    :meth:`close` unmaps it all, for good.
    """

    def __init__(self) -> None:
        #: the most bytes the free list may keep
        self.room = 0
        #: bytes of the mappings it keeps
        self.nbytes = 0
        self.closed = False
        self._free: dict[int, list[int]] = {}  # length -> addresses
        # Reentrant: a view dropped by a collection that runs while this
        # thread holds the lock gives its mapping back on the same thread.
        self._lock = threading.RLock()

    def take(self, count: int, dtype=np.uint8, *, zeroed: bool,
             metrics: MetricsRegistry | None = None) -> np.ndarray:
        """Writable memory for ``count`` elements of one block: a kept
        mapping of its length (counted in ``buffers_recycled``; zeroed
        only when ``zeroed``, a write grant's, since a load fills every
        byte or fails), or a new zero-filled one; heap memory below
        ``_MMAP_MIN_BYTES``, as :func:`block_buffer`'s."""
        dtype = np.dtype(dtype)
        nbytes = count * dtype.itemsize
        if nbytes < _MMAP_MIN_BYTES:
            self.trim()
            return block_buffer(count, dtype)
        length = _pages(nbytes)
        with self._lock:
            kept = self._free.get(length)
            addr = kept.pop() if kept else None
            if addr is not None:
                self.nbytes -= length
                if not kept:
                    del self._free[length]
            self.trim()
        if addr is None:
            return np.asarray(_AnonMapping(nbytes, self)).view(dtype)
        _inc(metrics, "buffers_recycled", 1)
        if zeroed:
            ctypes.memset(addr, 0, nbytes)
        return np.asarray(_AnonMapping(nbytes, self, addr)).view(dtype)

    def trim(self, _munmap=_libc.munmap) -> None:
        """Unmap kept mappings until the list fits in ``room``."""
        with self._lock:
            while self.nbytes > self.room:
                length = next(iter(self._free))
                kept = self._free[length]
                _munmap(kept.pop(), length)
                self.nbytes -= length
                if not kept:
                    del self._free[length]

    def close(self) -> None:
        """Unmap every kept mapping; what comes back later is unmapped
        too."""
        self.closed = True
        self.room = 0
        self.trim()

    __del__ = close

    def _keep(self, addr: int, length: int) -> bool:
        """A mapping whose last view died: keep it if it fits."""
        with self._lock:
            if self.closed or self.nbytes + length > self.room:
                return False
            self._free.setdefault(length, []).append(addr)
            self.nbytes += length
            return True


@contextlib.contextmanager
def _open_block(scratch: Path, desc: ArrayDesc, block: int):
    """Open the one file of ``block`` (:func:`block_path`): yields it
    with its size.

    A missing file is a :class:`BlockMissingError`; a file where the
    descriptor puts a directory, or the reverse (another blocking, or a
    one-block ``.arrc/`` directory of the layout before one file per
    block), is a :class:`StorageError` that says to re-seed.  A raw file
    that does not hold exactly the block — torn, or written with another
    blocking — is a :class:`StorageError` decided from ``fstat`` before a
    byte is read or mapped, so it can never become a ``SIGBUS`` on a
    mapped page.
    """
    path = block_path(scratch, desc, block)
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise BlockMissingError(
            f"block {block} of {desc.name!r} was never written: "
            f"no backing file {path}") from None
    except (IsADirectoryError, NotADirectoryError):
        raise StorageError(
            f"{path if desc.n_blocks == 1 else path.parent} holds "
            f"{desc.name!r} in another layout than {desc.n_blocks} "
            "block(s) of one file each (another blocking, or written "
            "before one file per block); re-seed it") from None
    with fh:
        size = os.fstat(fh.fileno()).st_size
        want = desc.block_nbytes(block)
        if desc_codec(desc) == "raw" and size != want:
            raise StorageError(
                f"block {block} of {desc.name!r} in {path} holds {size} "
                f"bytes, want {want} (torn or truncated file, or another "
                "blocking)")
        yield fh, size


def maps_file(desc: ArrayDesc, block: int) -> bool:
    """Is ``block`` loaded as a mapping of its own file (a raw block of
    ``_MMAP_MIN_BYTES`` and more), not into a destination?"""
    return (desc_codec(desc) == "raw"
            and desc.block_nbytes(block) >= _MMAP_MIN_BYTES)


def read_block(scratch: Path, desc: ArrayDesc, block: int,
               *, metrics: MetricsRegistry | None = None) -> np.ndarray:
    """Load one block; returns it frozen.

    Blocks entering the store through this path are sealed under
    write-once, so a read-only buffer is exactly the invariant the rest
    of the data plane wants to hand out.  A large raw block is not copied
    at all: the array is a view of the page cache's own pages (see
    :class:`_FileMapping`), which every later holder of the block shares.
    That is sound because block files are written once and replaced only
    by ``atomic_write``'s rename: a replaced or unlinked file leaves the
    mapping on the old inode, with the bytes that were loaded.  Small
    blocks are read into a heap buffer, compressed ones decoded into a
    buffer of their own.
    """
    want = desc.block_nbytes(block)
    if maps_file(desc, block):
        with _open_block(scratch, desc, block) as (fh, _):
            mapping = _FileMapping(fh.fileno(), want)
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
    """Load one block into ``out``, every byte of it, or raise.

    The store's load path: ``out`` is the destination the store
    allocated when the load started — a view over a shared-memory
    segment on the process plane, memory from its free list on the
    thread plane (:class:`BufferPool`; its old bytes are overwritten,
    never read).  Raw blocks ``readinto`` it directly from the file, with
    no intermediate block buffer; compressed blocks are
    decoded by their codec's ``decode_into`` straight into ``out``, in
    pieces, with no block-sized temporary (see :mod:`repro.core.codecs`),
    from the chunk file's pages: a read-only mapping of them
    (:class:`_FileMapping`) when the file is ``_MMAP_MIN_BYTES`` and
    more, a ``bytes`` read otherwise.  A torn chunk file (shorter than
    its header promises) is a named error decided from the header and
    ``fstat`` before anything is mapped.
    """
    want = desc.block_nbytes(block)
    if out.nbytes != want:
        raise StorageError(
            f"destination for block {block} of {desc.name!r} holds "
            f"{out.nbytes} bytes, want {want}")
    dest = memoryview(out).cast("B")
    what = f"block {block} of {desc.name!r}"
    with _open_block(scratch, desc, block) as (fh, size):
        if desc_codec(desc) == "raw":
            if fh.readinto(dest) != want:
                raise StorageError(f"short read of {what}")
        else:
            if size < _MMAP_MIN_BYTES:
                blob = fh.read()
            else:
                _chunk_header(fh.read(CHUNK_HEADER_NBYTES), size, what)
                blob = np.asarray(_FileMapping(fh.fileno(), size))
            unpack_chunk_into(blob, dest, desc.itemsize, what)
    _inc(metrics, "disk_bytes_read", size)
    _inc(metrics, "logical_bytes_read", want)
    return out


def write_array(scratch: Path, desc: ArrayDesc, data: np.ndarray,
                *, metrics: MetricsRegistry | None = None,
                durable: bool = True) -> None:
    """Persist a whole array (used to seed initial data): one
    :func:`write_block` per block, each file independently crash-atomic.
    Every file is also fsynced, so it survives a power loss, unless the
    caller passes ``durable=False`` for scratch the engine deletes within
    its session.  Whatever backed the name before is deleted first, so
    the array's files are exactly its blocks' under ``desc``.
    """
    if data.shape != (desc.length,):
        raise StorageError(
            f"array {desc.name!r} has length {desc.length}, got {data.shape}"
        )
    delete_array_file(scratch, desc.name)
    for b in desc.blocks():
        lo, hi = desc.block_bounds(b)
        write_block(scratch, desc, b, data[lo:hi], metrics=metrics,
                    durable=durable)


def read_array(scratch: Path, desc: ArrayDesc,
               *, metrics: MetricsRegistry | None = None) -> np.ndarray:
    """Load a whole array from its backing file(s)."""
    return np.concatenate([
        read_block(scratch, desc, b, metrics=metrics) for b in desc.blocks()
    ])


def delete_array_file(scratch: Path, name: str) -> None:
    """Unlink an array's files, under either suffix; a name with no files
    is not an error."""
    for path in _backings(scratch, name):
        if path.is_dir():
            shutil.rmtree(path, ignore_errors=True)
        else:
            path.unlink(missing_ok=True)


def copy_array_files(src: Path, dst: Path, name: str) -> None:
    """Re-seed an array's backing bytes into another scratch directory.

    Used by node-loss recovery: the files that back the array at the
    source are reproduced at the destination, each file crash-atomically.
    The copy is engine scratch, so it is not fsynced.
    """
    paths = _backings(src, name)
    if not paths:
        raise BlockMissingError(
            f"array {name!r} has no backing files under {src}")
    for path in paths:
        for f in sorted(path.iterdir()) if path.is_dir() else [path]:
            atomic_write(Path(dst) / f.relative_to(src), f.read_bytes(),
                         durable=False)


def discover_arrays(scratch: Path) -> list[str]:
    """Array names present in a scratch directory (startup scan).

    Mirrors the paper's storage start-up: "the storage looks for files in
    that directory and records the name of the arrays as well as their
    sizes".  Both suffixes are discovered, as files and as directories.
    """
    root = Path(scratch)
    if not root.exists():
        return []
    names = set()
    for suffix in (_SUFFIX, _CHUNK_SUFFIX):
        for path in root.glob(f"*{suffix}"):
            names.add(unescape_name(path.name[: -len(suffix)]))
    return sorted(names)


def _jitter_rng(node: int) -> random.Random:
    """A node's retry-jitter stream, the same in every run."""
    return random.Random(node * 2654435761 + 17)


class IOFilter(Filter):
    """Executes load/store commands against a scratch directory.

    Input buffers: ``{"op": "load"|"store", "desc": ArrayDesc, "block": int,
    "data": ndarray (store only), "out": ndarray or None (load only),
    "token": any}``.  A load fills ``out``, the writable destination the
    store allocated for it (:func:`read_block_into`); one with no ``out``
    — a raw block the store lets :func:`read_block` map from its file —
    is read by :func:`read_block`.  Replies mirror the command with
    ``data`` filled for loads, frozen; a command that keeps failing
    after ``retry.attempts`` tries is answered with ``{"op": "io_error",
    "failed_op": ..., "error": ..., "token": ...}`` instead of killing the
    filter thread.  The engine deploys one per node, a single copy: the
    storage filter's ``io_cmd`` stream names no destination copy.
    """

    inputs = ("in",)
    outputs = ("out",)

    def __init__(self, scratch: Path, *, node: int = -1,
                 tracer: Tracer | None = None,
                 retry: RetryPolicy | None = None,
                 injector: FaultInjector | None = None,
                 metrics: MetricsRegistry | None = None):
        self.scratch = Path(scratch)
        self.node = node
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.retry = retry if retry is not None else RetryPolicy()
        self.injector = injector
        self.metrics = metrics
        self._jitter_rng = _jitter_rng(node)

    def begin(self, run: RunState) -> None:
        """Bind the engine's next run (the constructor's keywords are the
        first one's): its faults and counters."""
        self.injector = run.injectors.get(self.node)
        self.metrics = run.stores[self.node].metrics
        self._jitter_rng = _jitter_rng(self.node)

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
        So does a :class:`ChunkFormatError`: an old file stays old.
        """
        last: BaseException | None = None
        for attempt in range(self.retry.attempts):
            if attempt > 0:
                self._inc("io_retries")
                self.tracer.instant(self.node, lane, "io", "io_retry",
                                    op=op, array=desc.name, block=block,
                                    attempt=attempt)
                # A backoff between attempts of one command, not a liveness
                # poll: nothing waits on this thread to notice an event.
                time.sleep(self.retry.delay(attempt, self._jitter_rng))  # dooc: noqa[DOOC014]
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
            except (BlockMissingError, ChunkFormatError) as exc:
                last = exc
                break  # retries cannot conjure never-written bytes
            except (OSError, StorageError) as exc:
                last = exc
        self._inc("io_failures")
        self.tracer.instant(self.node, lane, "io", "io_error", op=op,
                            array=desc.name, block=block, error=repr(last))
        return None, last

    def on(self, ctx: FilterContext, port: str | None, buf) -> bool:
        if buf is END_OF_STREAM:
            return True
        lane = f"io/{ctx.instance}"
        cmd = buf.payload
        desc: ArrayDesc = cmd["desc"]
        block: int = cmd["block"]
        op: str = cmd["op"]
        start = self.tracer.now()
        if op == "load":
            def fn():
                out = cmd.get("out")
                if out is None:
                    return read_block(self.scratch, desc, block,
                                      metrics=self.metrics)
                read_block_into(self.scratch, desc, block, out,
                                metrics=self.metrics)
                out.flags.writeable = False
                return out
        elif op == "store":
            def fn():
                write_block(self.scratch, desc, block, cmd["data"],
                            metrics=self.metrics, durable=False)
        elif op == "unlink":
            def fn():
                delete_array_file(self.scratch, desc.name)
        else:
            raise StorageError(f"unknown I/O op {op!r}")
        data, error = self._attempt(fn, op, desc, block, lane)
        if error is not None:
            reply = {"op": "io_error", "failed_op": op, "error": repr(error)}
        else:
            span, reply = {"load": ("read", {"op": "loaded", "data": data}),
                           "store": ("write", {"op": "stored"}),
                           "unlink": ("unlink", {"op": "unlinked"})}[op]
            where = {"array": desc.name} if op == "unlink" else {
                "array": desc.name, "block": block}
            self.tracer.complete(self.node, lane, "io", span, start, **where)
        ctx.write("out", DataBuffer(
            {**reply, "desc": desc, "block": block, "token": cmd.get("token")}))
        return False
