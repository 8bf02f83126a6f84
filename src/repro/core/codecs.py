"""Per-block compression codecs and the ``DOOC_CODEC`` knob.

The paper's thesis is that the dominant cost of an out-of-core solver is
moving sub-matrices between the filesystem and memory — so the cheapest
byte is the one never read.  This module shrinks the bytes: every block
that crosses the spill/load boundary can be encoded by a named codec, and
the on-disk chunk container (:mod:`repro.core.iofilter`) records which one:
a chunk decodes by its header's codec, and an array declared from scratch
runs under the codec its files were written with.

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
* ``zlib`` puts the ``delta32`` filter in front of DEFLATE (zarr's
  filter-then-compressor pipeline): each little-endian 4-byte word
  becomes itself minus the word before it, mod 2**32 (a tail of fewer
  than 4 bytes stays as it is).  The filter knows nothing of the block's
  structure, yet turns a sub-matrix's sorted 4-byte indices into small,
  repetitive deltas; it is exactly invertible, so decoding stays
  bit-identical.  It is applied a piece at a time on the way into the
  compressor and undone by an in-place running sum over each inflated
  piece's completed words, so neither direction builds a block-sized
  temporary.  A ``zlib`` payload is one stock stream of the delta-coded
  bytes;
* the zlib codecs skip what DEFLATE cannot shrink (as Blosc stores a
  chunk its compressor cannot shrink): the input is judged in 256 KiB
  segments, and a segment whose first and last 4 KiB each shrink by
  less than 10 % at level 1 (the float64 values of a CSR block) is
  written as DEFLATE *stored* blocks, which cost no match search to
  write and a copy to inflate.  The segments are judged after the
  filter.  The payload is still one stock RFC 1950 stream — a bare
  ``zlib.decompress`` reads it — and an input with no such segment
  encodes to exactly ``zlib.compress`` of the (filtered) bytes;
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
#: the ``delta32`` filter's word, and how many input bytes the encoder
#: filters and hands to the compressor at a time
_WORD = np.dtype("<u4")
_FILTER_PIECE = 64 * 1024


def _delta32(data: memoryview, lo: int, hi: int) -> np.ndarray:
    """Bytes ``lo:hi`` of ``data`` after the ``delta32`` filter: word
    ``k`` becomes word ``k`` minus word ``k - 1`` mod 2**32 (word -1 is
    0); the tail of fewer than 4 bytes is left as it is.  A word's delta
    reads only ``data``, so any range filters on its own, into a new
    array the size of the whole words it touches."""
    whole = len(data) - len(data) % 4
    start = lo - lo % 4
    stop = max(start, min(hi + -hi % 4, whole))  # the words lo:hi touches
    out = np.frombuffer(data, np.uint8, max(stop, hi) - start, start).copy()
    first = int(start == 0)  # word 0 is its own delta
    count = (stop - start) // 4 - first
    if count > 0:
        at = start + 4 * first
        np.subtract(np.frombuffer(data, _WORD, count, at),
                    np.frombuffer(data, _WORD, count, at - 4),
                    out=out[4 * first:stop - start].view(_WORD))
    return out[lo - start:hi - start]


def _undelta32(words: np.ndarray, lo: int, hi: int) -> int:
    """Undo ``delta32`` over ``words[lo:hi]`` in place, ``words[:lo]``
    being restored already: a running sum carried on from word
    ``lo - 1``.  Returns ``hi``, where the next call carries on."""
    run = words[lo:hi]
    if len(run):
        if lo:
            run[:1] += words[lo - 1:lo]  # array arithmetic wraps silently
        np.add.accumulate(run, dtype=_WORD, out=run)
    return hi


def _shuffled(data: memoryview, itemsize: int):
    """The byte-plane transpose of ``data``, a range at a time:
    ``view(lo, hi)`` returns bytes ``lo:hi`` of the block shuffled into
    ``itemsize`` planes (byte ``p * rows + j`` is byte ``p`` of element
    ``j``), gathered into a new array of ``hi - lo`` bytes."""
    planes = np.frombuffer(data, np.uint8).reshape(-1, itemsize)
    rows = len(planes)

    def view(lo: int, hi: int) -> memoryview:
        out = np.empty(hi - lo, np.uint8)
        at = 0
        while at < len(out):
            p, j = divmod(lo + at, rows)
            k = min(len(out) - at, rows - j)
            out[at:at + k] = planes[j:j + k, p]
            at += k
        return memoryview(out)
    return view


def _incompressible(view, lo: int, hi: int) -> bool:
    """Both ends of the segment ``lo:hi`` resist DEFLATE, read as
    ``view(a, b)`` returns them (the bytes the compressor would see).
    Sampling the tail too keeps a segment that straddles noise and a
    compressible region (a shuffled block's mantissa plane running into
    the next plane's zero high bytes) in the compressor."""
    if hi - lo < _SAMPLE:
        return False
    return all(len(zlib.compress(view(a, a + _SAMPLE), 1))
               > (1 - _MIN_SAVING) * _SAMPLE for a in (lo, hi - _SAMPLE))


def _deflate(n: int, view, level: int) -> bytearray:
    """The ``n`` bytes ``view(lo, hi)`` reads as one zlib (RFC 1950)
    stream, incompressible segments stored.

    ``view`` returns the bytes the compressor sees — the block itself,
    its ``delta32`` form, or its byte planes — a piece at a time (made
    on the way by the filter or the shuffle), so nothing block-sized is
    made beside the payload.  Each
    run of compressible segments goes through its own raw-deflate
    compressor at ``level``; a run followed by stored blocks ends on a
    sync flush, which byte-aligns the stream without ending it.  The
    compressor is fresh per run: one that had not seen the stored bytes
    in between would measure its back-references over the wrong window.
    With nothing to store this is ``zlib.compress`` of the (filtered)
    bytes, byte for byte: DEFLATE's output does not depend on how its
    input is split.
    """
    # An empty input is one compressible segment: the stream still needs
    # its one (empty) final block.
    stored = [_incompressible(view, lo, min(n, lo + _SEGMENT))
              for lo in range(0, max(n, 1), _SEGMENT)]
    out = bytearray(zlib.compress(b"", level)[:2])  # CMF/FLG for ``level``
    adler = zlib.adler32(b"")
    lo = 0
    for store, run in groupby(stored):
        hi = min(n, lo + _SEGMENT * len(list(run)))
        if store:
            for off in range(lo, hi, _STORED_MAX):
                end = min(hi, off + _STORED_MAX)
                size = end - off
                piece = view(off, end)
                adler = zlib.adler32(piece, adler)
                out += _STORED_HEADER.pack(end == n, size, size ^ 0xFFFF)
                out += piece
        else:
            deflate = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS)
            for off in range(lo, hi, _FILTER_PIECE):
                piece = view(off, min(hi, off + _FILTER_PIECE))
                adler = zlib.adler32(piece, adler)
                out += deflate.compress(piece)
            out += deflate.flush(zlib.Z_FINISH if hi == n
                                 else zlib.Z_SYNC_FLUSH)
        lo = hi
    out += struct.pack(">I", adler)
    return out


def _inflate_into(payload, out: memoryview, planes: int, what: str,
                  delta: bool = False) -> None:
    """Inflate the zlib stream ``payload`` straight into ``out``.

    The stream fills ``planes`` equal byte planes of ``out``: plane ``p``
    is byte ``p`` of every ``planes``-byte element (``zlib`` has one
    plane, so the stream lands in order; ``shuffle-zlib`` has one per
    byte of its item).  The payload is read where it lies, ``_INFLATE_IN``
    bytes at a time, and each inflated piece of at most ``_INFLATE_OUT``
    bytes is written to its place in ``out`` at once: decoding holds one
    piece, never a block.  With ``delta`` (one plane only) the stream is
    the ``delta32`` form, undone in ``out`` over the words each piece
    completes.  A payload that does not inflate to exactly ``len(out)``
    bytes, or that has bytes after the end of its stream, is a
    :class:`CodecError` naming ``what``.
    """
    payload = memoryview(payload).cast("B")
    nbytes = len(out)
    # Stream byte p * rows + j goes to dest[j, p].  np.asarray, not
    # np.frombuffer: frombuffer views are sealed by data-plane convention
    # (DOOC010), and this is caller-owned writable scratch.
    dest = np.asarray(out).reshape(-1, planes)
    rows = len(dest)
    words = dest.reshape(-1)[: nbytes - nbytes % 4].view(_WORD)
    restored = 0  # words[:restored] hold their bytes again
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
            if delta:  # a piece may end inside a word: that one waits
                restored = _undelta32(words, restored, done // 4)
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
    """Identity codec: a block's file is its bytes, with no container.
    It is the one codec whose files take the ``.arr`` suffix; every
    other codec's are framed chunks named ``.arrc``
    (:func:`repro.core.iofilter.block_path`)."""

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
    """``delta32`` then DEFLATE at a configurable level (zarr's
    filter-then-compressor pipeline).

    The word deltas turn sorted 4-byte indices into short repeats DEFLATE
    can find; segments it still cannot shrink are stored, not compressed
    (the module docstring's rules).  The payload is one stock zlib stream
    of the delta-coded bytes either way.
    """

    name = "zlib"

    def __init__(self, level: int = 6):
        if not 0 <= level <= 9:
            raise CodecError(f"zlib level {level} outside 0..9")
        self.level = level

    def encode(self, data, itemsize: int = 1) -> bytearray:
        data = memoryview(data).cast("B")
        return _deflate(len(data),
                        lambda lo, hi: memoryview(_delta32(data, lo, hi)),
                        self.level)

    def decode_into(self, payload, out: memoryview, itemsize: int = 1) -> None:
        _inflate_into(payload, memoryview(out).cast("B"), 1, self.name,
                      delta=True)


class ShuffleZlibCodec(Codec):
    """Byte-shuffle + fast DEFLATE (the lz4/blosc-style pipeline).

    Transposing the block to ``itemsize`` byte planes groups the
    slowly-varying high-order bytes of floating-point data together,
    which DEFLATE then squeezes far better than the interleaved layout —
    at level 1 the shuffle+deflate combination approaches zlib-6 ratios
    at a fraction of the CPU cost on smooth numeric data.  The shuffled
    bytes go through the same writer as :class:`ZlibCodec`'s, a piece at
    a time (:func:`_shuffled`), so byte planes DEFLATE cannot shrink (low
    mantissa bytes) are stored and no shuffled block is ever built.
    """

    name = "shuffle-zlib"

    def __init__(self, level: int = 1):
        if not 0 <= level <= 9:
            raise CodecError(f"zlib level {level} outside 0..9")
        self.level = level

    def encode(self, data, itemsize: int = 1) -> bytearray:
        data = memoryview(data).cast("B")
        if itemsize < 1 or len(data) % itemsize:
            raise CodecError(
                f"cannot shuffle {len(data)} bytes by itemsize {itemsize}")
        return _deflate(len(data), _shuffled(data, itemsize), self.level)

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
