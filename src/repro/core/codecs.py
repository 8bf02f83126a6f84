"""Per-block compression codecs and the ``DOOC_CODEC`` knob.

The paper's thesis is that the dominant cost of an out-of-core solver is
moving sub-matrices between the filesystem and memory — so the cheapest
byte is the one never read.  This module shrinks the bytes: every block
that crosses the spill/load boundary can be encoded by a named codec, and
the on-disk chunk container (:mod:`repro.core.iofilter`) records which one,
so readers self-describe.

Design (zarr-style chunk+codec layering):

* a :class:`Codec` turns a block's raw bytes into an encoded payload and
  back; ``decode_into`` fills a **caller-provided buffer** (a pooled
  shared-memory segment on the process worker plane), so the store never
  sees a staging block.  ``raw`` copies the payload into it once; the
  zlib codecs inflate the payload where it lies (a mapping of the chunk
  file's pages, for a large chunk) in bounded pieces, each written
  straight into the buffer — contiguously for ``zlib``, into its byte
  plane for ``shuffle-zlib`` — so no block-sized temporary is ever built
  (:func:`_inflate_into`).  Those piece copies are cache-sized and not
  counted by ``bytes_copied`` (it counts the data plane's gather/scatter
  copies only).  A stream that ends short of the buffer, runs past it,
  or is followed by trailing bytes is a :class:`CodecError`;
* the zlib codecs skip what DEFLATE cannot shrink (as Blosc stores a
  chunk its compressor cannot shrink): the input is judged in 256 KiB
  segments, and a segment whose first and last 4 KiB each shrink by
  less than 10 % at level 1 (the float64 values of a CSR block) is
  written as DEFLATE *stored* blocks, which cost no match search to
  write and a copy to inflate.  The payload is still one stock RFC 1950
  stream — a bare ``zlib.decompress`` reads it — and an input with no
  such segment encodes to exactly ``zlib.compress(data, level)``;
* codecs are looked up by name in a registry (:func:`register_codec` /
  :func:`get_codec`), so block headers and checkpoint manifests can name
  their codec and new codecs plug in without touching the I/O layer;
* :func:`resolve_codec` normalizes the engine-level choice: an explicit
  argument beats the ``DOOC_CODEC`` environment variable, which is
  sampled **once** (at ``DOoCEngine`` construction) — a mid-run flip
  cannot de-cohere readers from writers.

This is the only module allowed to touch :mod:`zlib`/:mod:`lzma`/:mod:`bz2`
directly — lint rule ``DOOC007`` (:mod:`repro.analysis.rules`) flags any
other call site, so compression policy stays in one place.
"""

from __future__ import annotations

import os
import struct
import zlib
from itertools import groupby

import numpy as np

from repro.core.errors import CodecError, UnknownCodecError

__all__ = [
    "CODEC_ENV",
    "Codec",
    "RawCodec",
    "ZlibCodec",
    "ShuffleZlibCodec",
    "register_codec",
    "get_codec",
    "available_codecs",
    "resolve_codec",
    "checksum",
]

#: environment switch naming the engine-default codec (snapshot semantics)
CODEC_ENV = "DOOC_CODEC"


def checksum(data) -> int:
    """CRC-32 of ``data`` (the chunk container's torn-payload detector)."""
    return zlib.crc32(memoryview(data)) & 0xFFFFFFFF


#: the stored-segment rule (:func:`_deflate`): judge the input in
#: segments of ``_SEGMENT`` bytes by compressing the first and the last
#: ``_SAMPLE`` of each at level 1; one whose samples both shrink by less
#: than ``_MIN_SAVING`` is stored
_SEGMENT = 256 * 1024
_SAMPLE = 4 * 1024
_MIN_SAVING = 0.10
#: the largest DEFLATE stored block (RFC 1951 §3.2.4: LEN is 16 bits)
_STORED_MAX = 0xFFFF
_STORED_HEADER = struct.Struct("<BHH")  # BFINAL/BTYPE=00 byte, LEN, NLEN
#: the streaming inflate (:func:`_inflate_into`): the payload is fed
#: ``_INFLATE_IN`` bytes at a time, so ``unconsumed_tail`` never copies
#: more than that, and each call returns at most ``_INFLATE_OUT`` bytes,
#: however far one input piece expands (an all-zero block: ≈ 1000×)
_INFLATE_IN = 64 * 1024
_INFLATE_OUT = 128 * 1024


def _incompressible(segment: memoryview) -> bool:
    """Both ends of ``segment`` resist DEFLATE.  Sampling the tail too
    keeps a segment that straddles noise and a compressible region (a
    shuffled block's mantissa plane running into the next plane's zero
    high bytes) in the compressor."""
    if len(segment) < _SAMPLE:
        return False
    return all(len(zlib.compress(sample, 1)) > (1 - _MIN_SAVING) * _SAMPLE
               for sample in (segment[:_SAMPLE], segment[-_SAMPLE:]))


def _deflate(data: memoryview, level: int) -> bytes:
    """``data`` as one zlib (RFC 1950) stream, incompressible segments stored.

    Each run of compressible segments goes through its own raw-deflate
    compressor at ``level``; a run followed by stored blocks ends on a sync
    flush, which byte-aligns the stream without ending it.  The
    compressor is fresh per run: one that had not seen the stored bytes
    in between would measure its back-references over the wrong window.
    With nothing to store this is ``zlib.compress``, byte for byte.
    """
    n = len(data)
    stored = [_incompressible(data[lo:lo + _SEGMENT])
              for lo in range(0, n, _SEGMENT)]
    if not any(stored):
        return zlib.compress(data, level)
    parts = [zlib.compress(b"", level)[:2]]  # CMF/FLG, FLEVEL for ``level``
    lo = 0
    for store, run in groupby(stored):
        hi = min(n, lo + _SEGMENT * len(list(run)))
        if store:
            for off in range(lo, hi, _STORED_MAX):
                end = min(hi, off + _STORED_MAX)
                size = end - off
                parts += (_STORED_HEADER.pack(end == n, size, size ^ 0xFFFF),
                          data[off:end])
        else:
            deflate = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS)
            parts += (deflate.compress(data[lo:hi]), deflate.flush(
                zlib.Z_FINISH if hi == n else zlib.Z_SYNC_FLUSH))
        lo = hi
    parts.append(struct.pack(">I", zlib.adler32(data)))
    return b"".join(parts)


def _inflate_into(payload, out: memoryview, planes: int, what: str) -> None:
    """Inflate the zlib stream ``payload`` straight into ``out``.

    The stream fills ``planes`` equal byte planes of ``out``: plane ``p``
    is byte ``p`` of every ``planes``-byte element (``zlib`` has one
    plane, so the stream lands in order; ``shuffle-zlib`` has one per
    byte of its item).  The payload is read where it lies, ``_INFLATE_IN``
    bytes at a time, and each inflated piece of at most ``_INFLATE_OUT``
    bytes is written to its place in ``out`` at once: decoding holds one
    piece, never a block.  A payload that does not inflate to exactly
    ``len(out)`` bytes, or that has bytes after the end of its stream, is
    a :class:`CodecError` naming ``what``.
    """
    payload = memoryview(payload).cast("B")
    nbytes = len(out)
    # Stream byte p * rows + j goes to dest[j, p].  np.asarray, not
    # np.frombuffer: frombuffer views are sealed by data-plane convention
    # (DOOC010), and this is caller-owned writable scratch.
    dest = np.asarray(out).reshape(-1, planes)
    rows = len(dest)
    d = zlib.decompressobj()
    data = payload[:0]
    done = fed = 0
    full = False  # the last piece hit _INFLATE_OUT: output may be pending
    try:
        while not d.eof and (data or full or fed < len(payload)):
            if not data:
                data = payload[fed:fed + _INFLATE_IN]
                fed += len(data)
            piece = d.decompress(data, _INFLATE_OUT)
            data = d.unconsumed_tail
            full = len(piece) == _INFLATE_OUT
            if len(piece) > nbytes - done:
                raise CodecError(
                    f"{what} payload decodes past {nbytes} bytes (corrupt)")
            src = np.frombuffer(piece, dtype=np.uint8)
            while len(src):
                p, j = divmod(done, rows)
                k = min(len(src), rows - j)
                dest[j:j + k, p] = src[:k]
                src = src[k:]
                done += k
    except zlib.error as exc:
        raise CodecError(f"{what} payload does not decode: {exc}") from exc
    if not d.eof or done != nbytes:
        raise CodecError(
            f"{what} payload decoded to {done} bytes, want {nbytes} "
            "(truncated or corrupt)")
    trailing = len(d.unused_data) + len(payload) - fed
    if trailing:
        raise CodecError(f"{what} payload has {trailing} trailing bytes "
                         "after the end of its zlib stream")


class Codec:
    """One reversible bytes→bytes transform, named for self-description.

    ``itemsize`` is the element width of the block being coded; codecs
    that exploit numeric layout (byte shuffling) need it, byte-oriented
    codecs ignore it.  Encoding is lossless: ``decode_into`` of
    ``encode(b)`` fills its buffer with ``b`` for every input, which is
    what keeps solver results bit-identical across codec choices.
    """

    name: str = ""

    def encode(self, data, itemsize: int = 1):
        """Encode the bytes-like ``data``, read where it lies (no staging
        copy); returns a bytes-like payload — ``raw``'s is ``data`` itself.
        """
        raise NotImplementedError

    def decode_into(self, payload, out: memoryview, itemsize: int = 1) -> None:
        """Decode ``payload`` into the writable buffer ``out`` (exact fit).

        ``out`` is typically a view over a pooled shared-memory segment.
        Raises :class:`CodecError` when the payload does not decode to
        exactly ``len(out)`` bytes — a truncated or corrupt payload must
        surface as a clean error, never as a garbage block.
        """
        raise NotImplementedError


class RawCodec(Codec):
    """Identity codec: a block's file is its bytes, with no container
    (the ``.arr`` layout of :mod:`repro.core.iofilter`)."""

    name = "raw"

    def encode(self, data, itemsize: int = 1):
        return memoryview(data).cast("B")  # the caller's bytes, not a copy

    def decode_into(self, payload, out: memoryview, itemsize: int = 1) -> None:
        payload = memoryview(payload).cast("B")
        if len(payload) != len(out):
            raise CodecError(
                f"raw payload holds {len(payload)} bytes, want {len(out)}")
        out[:] = payload


class ZlibCodec(Codec):
    """DEFLATE at a configurable level (the zarr default pipeline).

    Segments DEFLATE cannot shrink are stored, not compressed (the module
    docstring's rule); the payload is one stock zlib stream either way.
    """

    name = "zlib"

    def __init__(self, level: int = 6):
        if not 0 <= level <= 9:
            raise CodecError(f"zlib level {level} outside 0..9")
        self.level = level

    def encode(self, data, itemsize: int = 1) -> bytes:
        return _deflate(memoryview(data).cast("B"), self.level)

    def decode_into(self, payload, out: memoryview, itemsize: int = 1) -> None:
        _inflate_into(payload, memoryview(out).cast("B"), 1, self.name)


class ShuffleZlibCodec(Codec):
    """Byte-shuffle + fast DEFLATE (the lz4/blosc-style pipeline).

    Transposing the block to ``itemsize`` byte planes groups the
    slowly-varying high-order bytes of floating-point data together,
    which DEFLATE then squeezes far better than the interleaved layout —
    at level 1 the shuffle+deflate combination approaches zlib-6 ratios
    at a fraction of the CPU cost on smooth numeric data.  The shuffled
    bytes go through the same writer as :class:`ZlibCodec`'s, so byte
    planes DEFLATE cannot shrink (low mantissa bytes) are stored.
    """

    name = "shuffle-zlib"

    def __init__(self, level: int = 1):
        if not 0 <= level <= 9:
            raise CodecError(f"zlib level {level} outside 0..9")
        self.level = level

    @staticmethod
    def _shuffle(data: memoryview, itemsize: int) -> bytes:
        arr = np.frombuffer(data, dtype=np.uint8)
        return arr.reshape(-1, itemsize).T.tobytes()

    def encode(self, data, itemsize: int = 1) -> bytes:
        data = memoryview(data).cast("B")
        if itemsize < 1 or len(data) % itemsize:
            raise CodecError(
                f"cannot shuffle {len(data)} bytes by itemsize {itemsize}")
        return _deflate(memoryview(self._shuffle(data, itemsize)), self.level)

    def decode_into(self, payload, out: memoryview, itemsize: int = 1) -> None:
        out = memoryview(out).cast("B")
        if itemsize < 1 or len(out) % itemsize:
            raise CodecError(
                f"cannot unshuffle {len(out)} bytes by itemsize {itemsize}")
        _inflate_into(payload, out, itemsize, self.name)


_REGISTRY: dict[str, Codec] = {}


def register_codec(codec: Codec, *, replace: bool = False) -> Codec:
    """Add a codec to the registry (headers resolve codecs by this name)."""
    if not codec.name:
        raise CodecError("codec needs a non-empty name")
    if codec.name in _REGISTRY and not replace:
        raise CodecError(f"codec {codec.name!r} registered twice")
    _REGISTRY[codec.name] = codec
    return codec


def get_codec(name: str) -> Codec:
    """Look up a codec by name; :class:`UnknownCodecError` if unregistered."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownCodecError(
            f"unknown codec {name!r}: registered codecs are "
            f"{sorted(_REGISTRY)}") from None


def available_codecs() -> list[str]:
    return sorted(_REGISTRY)


def resolve_codec(value: str | None = None) -> str:
    """Normalize a codec choice to a registered name.

    ``value=None`` samples ``DOOC_CODEC`` — once, at the caller's
    construction site (``DOoCEngine.__init__``, ``CheckpointManager``);
    an explicit value overrides the environment entirely.  An empty or
    unset environment means ``"raw"``.
    """
    if value is None:
        value = os.environ.get(CODEC_ENV, "").strip() or "raw"
    value = value.strip().lower()
    get_codec(value)  # raises UnknownCodecError on junk
    return value


register_codec(RawCodec())
register_codec(ZlibCodec())
register_codec(ShuffleZlibCodec())
