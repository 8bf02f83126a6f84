"""Per-block compression codecs and the ``DOOC_CODEC`` knob.

The paper's thesis is that the dominant cost of an out-of-core solver is
moving sub-matrices between the filesystem and memory — so the cheapest
byte is the one never read.  This module shrinks the bytes: every block
that crosses the spill/load boundary can be encoded by a named codec, and
the on-disk chunk container (:mod:`repro.core.iofilter`, magic
``DOOCCHK3``) records which one: a chunk decodes by its header's codec,
and an array declared from scratch runs under the codec its files were
written with.

Design (zarr-style chunk+codec layering):

* a :class:`Codec` turns a block's raw bytes into an encoded payload and
  back; ``encode_pieces`` hands the payload out a piece at a time (the
  chunk writer puts each in the file before it asks for the next), and
  ``decode_into`` fills a **caller-provided buffer** (the destination
  the store allocated for the load), so the store never sees a staging
  block.  ``raw`` copies the payload into it once; the zlib codecs
  inflate the payload where it lies (a mapping of the chunk file's
  pages, for a large chunk) a piece at a time, so no block-sized
  temporary is ever built in either direction (:func:`_deflate`,
  :func:`_inflate_into`; those cache-sized copies are not counted by
  ``bytes_copied``).  A stream that ends short of the buffer, runs past
  it, or is followed by trailing bytes is a :class:`CodecError`;
* the zlib codecs filter and deflate only what shrinks (zarr's
  filter-then-compressor pipeline, Blosc's shuffle within blocks).  A
  256 KiB segment is *filtered* — filtered, byte-shuffled inside each
  64 KiB piece, deflated at level 1, each byte plane of 4 KiB or more to
  a DEFLATE block (its own Huffman code) — when it is shorter than
  4 KiB or a sample at each end (4 KiB of every plane), coded so,
  shrinks by 10 %.  Any other (a CSR block's values under ``zlib``) is
  *raw*: stored as it is, with no match search, and only inflated;
* ``zlib``'s filter is ``delta32`` (each little-endian 4-byte word minus
  the one before, mod 2**32; a tail of under 4 bytes stays) and its
  shuffle is by 4, so sorted 4-byte indices become small deltas whose
  high bytes line up as runs of zeros.  ``shuffle-zlib`` only shuffles,
  by the item size.  Both are exactly invertible: decoding is
  bit-identical;
* the payload is one stock RFC 1950 stream (a bare ``zlib.decompress``
  reads it) of the segment map — bit ``i % 8`` of byte ``i // 8`` set
  when segment ``i`` is filtered, none past the last — then each
  segment in its form;
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
from collections.abc import Iterator
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


def checksum(data, crc: int = 0) -> int:
    """CRC-32 of ``data`` (the chunk container's torn-payload detector),
    carried on from ``crc``, the CRC-32 of the bytes before it."""
    return zlib.crc32(memoryview(data), crc) & 0xFFFFFFFF


#: the segment rule (:func:`_shrinks`; ``_SAMPLE`` is also the least
#: byte plane that gets a code of its own, :func:`_parts`), and the
#: pieces a filtered segment is shuffled in (a segment is whole pieces)
_SEGMENT = 256 * 1024
_SAMPLE = 4 * 1024
_MIN_SAVING = 0.10
_PIECE = 64 * 1024
#: the largest DEFLATE stored block (RFC 1951 §3.2.4: LEN is 16 bits)
_STORED_MAX = 0xFFFF
_STORED_HEADER = struct.Struct("<BHH")  # BFINAL/BTYPE=00 byte, LEN, NLEN
#: the streaming inflate (:func:`_inflate_into`): the payload is fed
#: ``_INFLATE_IN`` bytes at a time, so ``unconsumed_tail`` never copies
#: more than that, and each call returns at most ``_INFLATE_OUT`` bytes,
#: however far one input piece expands (an all-zero block: ≈ 1000×)
_INFLATE_IN = 64 * 1024
_INFLATE_OUT = 128 * 1024
_WORD = np.dtype("<u4")  # the ``delta32`` filter's word


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


def _undelta32(words: np.ndarray, lo: int, hi: int) -> None:
    """Undo ``delta32`` over ``words[lo:hi]`` in place, ``words[:lo]``
    being restored already: a running sum carried on from word
    ``lo - 1``."""
    run = words[lo:hi]
    if lo and len(run):
        run[:1] += words[lo - 1:lo]  # array arithmetic wraps silently
    np.add.accumulate(run, dtype=_WORD, out=run)


def _shuffle(piece: np.ndarray, width: int) -> np.ndarray:
    """The byte planes of ``piece``'s whole ``width``-byte items (byte
    ``p * rows + j`` is byte ``p`` of item ``j``), then its tail of fewer
    than ``width`` bytes, as a new array."""
    whole = len(piece) - len(piece) % width
    out = piece.copy()
    out[:whole].reshape(width, -1)[...] = piece[:whole].reshape(-1, width).T
    return out


def _unshuffle(piece: np.ndarray, dest: np.ndarray, width: int) -> None:
    """Write the inverse of :func:`_shuffle` of ``piece`` into ``dest``,
    a plane at a time (one transposed copy runs 3x slower)."""
    whole = len(piece) - len(piece) % width
    items = dest[:whole].reshape(-1, width)
    for p, plane in enumerate(piece[:whole].reshape(width, -1)):
        items[:, p] = plane
    dest[whole:] = piece[whole:]


def _parts(data: memoryview, lo: int, hi: int, width: int,
           delta: bool) -> list:
    """Bytes ``lo:hi`` of ``data`` filtered (``delta32``-coded when
    ``delta``, then shuffled by ``width``) as the parts that each end a
    DEFLATE block: its byte planes, then any tail of fewer than
    ``width`` bytes, when it has several planes of at least ``_SAMPLE``
    bytes (each gets its own Huffman code), else the whole."""
    piece = _shuffle(_delta32(data, lo, hi) if delta
                     else np.frombuffer(data, np.uint8, hi - lo, lo), width)
    plane = (hi - lo) // width
    if width == 1 or plane < _SAMPLE:
        return [piece]
    return [piece[at:at + plane] for at in range(0, hi - lo, plane)]


def _shrinks(data: memoryview, lo: int, hi: int, width: int,
             delta: bool) -> bool:
    """The segment ``lo:hi`` is shorter than ``_SAMPLE``, or a sample at
    each end (``_SAMPLE`` bytes of every byte plane, at most a piece),
    coded in its :func:`_parts`, shrinks by ``_MIN_SAVING`` at level 1.
    Sampling both ends keeps a segment that runs from indices into
    values (a CSR block's) raw when the values do not."""
    size = min(_SAMPLE * width, _PIECE, hi - lo)
    return hi - lo < _SAMPLE or all(
        sum(len(zlib.compress(part, 1))
            for part in _parts(data, a, a + size, width, delta))
        <= (1 - _MIN_SAVING) * size for a in (lo, hi - size))


def _deflate(data: memoryview, width: int, delta: bool,
             level: int) -> Iterator:
    """``data`` as one zlib (RFC 1950) stream, in the pieces it is made
    of: the segment map, then each segment filtered and deflated, or raw
    in stored blocks.  The caller writes each piece where it goes (the
    chunk's file) before it asks for the next, so the payload is never
    whole in memory.

    Filtered bytes are made a piece at a time, in :func:`_parts`, and
    raw ones are read where they lie.  The map leads the first run of
    segments.  Each run of filtered segments has its own raw-deflate
    compressor at ``level`` (one that had not seen the stored bytes in
    between would measure its back-references over the wrong window); a
    run followed by stored blocks ends on a sync flush, which byte-aligns
    the stream.
    """
    n = len(data)
    if not n:  # no segment, so an empty map
        yield zlib.compress(b"", level)
        return
    kinds = [_shrinks(data, lo, min(n, lo + _SEGMENT), width, delta)
             for lo in range(0, n, _SEGMENT)]
    head = np.packbits(kinds, bitorder="little").tobytes()
    yield zlib.compress(b"", level)[:2]  # CMF/FLG for ``level``
    adler = zlib.adler32(b"")
    lo = 0
    for filtered, run in groupby(kinds):
        hi = min(n, lo + _SEGMENT * len(list(run)))
        if filtered:
            deflate = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS)
            adler = zlib.adler32(head, adler)
            yield deflate.compress(head)
            for off in range(lo, hi, _PIECE):
                for part in _parts(data, off, min(hi, off + _PIECE), width,
                                   delta):
                    adler = zlib.adler32(part, adler)
                    yield deflate.compress(part)
                    yield deflate.flush(zlib.Z_BLOCK)
            yield deflate.flush(zlib.Z_FINISH if hi == n
                                else zlib.Z_SYNC_FLUSH)
        else:
            while lo < hi:
                piece = data[lo:min(hi, lo + _STORED_MAX - len(head))]
                adler = zlib.adler32(piece, zlib.adler32(head, adler))
                lo, size = lo + len(piece), len(head) + len(piece)
                yield _STORED_HEADER.pack(lo == n, size, size ^ 0xFFFF) + head
                yield piece
                head = b""
        lo, head = hi, b""
    yield struct.pack(">I", adler)


def _inflate_into(payload, out: memoryview, width: int, delta: bool,
                  what: str) -> None:
    """Inflate the zlib stream ``payload`` (as :func:`_deflate` writes
    it) straight into ``out``.

    The payload is read where it lies, ``_INFLATE_IN`` bytes at a time,
    and inflated at most ``_INFLATE_OUT`` bytes at a time.  A raw
    segment inflates straight into its place in ``out``; a filtered
    piece inflates into a piece-sized buffer, is unshuffled into its
    place and, with ``delta``, restored there by a running sum.  A map
    that marks a segment past the last, a payload that does not inflate
    to exactly ``len(out)`` bytes, or one with bytes after the end of its
    stream, is a :class:`CodecError` naming ``what``.
    """
    payload = memoryview(payload).cast("B")
    nbytes = len(out)
    segments = -(-nbytes // _SEGMENT)
    # np.asarray, not np.frombuffer: frombuffer views are sealed by
    # data-plane convention (DOOC010), and this is caller-owned scratch.
    dest = np.asarray(out)
    words = dest[: nbytes - nbytes % 4].view(_WORD)
    d = zlib.decompressobj()
    data = payload[:0]
    fed = 0

    def fill(into: np.ndarray) -> int:
        """Inflate the stream's next ``len(into)`` bytes into ``into``;
        returns how many (fewer only at the stream's end)."""
        nonlocal data, fed
        got = 0
        while got < len(into) and not d.eof:  # past it, input is unused
            part = d.decompress(data, min(len(into) - got, _INFLATE_OUT))
            data = d.unconsumed_tail
            into[got:got + len(part)] = np.frombuffer(part, np.uint8)
            got += len(part)
            if not part and not data:
                if fed == len(payload):
                    break
                data = payload[fed:fed + _INFLATE_IN]
                fed += len(data)
        return got

    segmap = np.zeros(-(-segments // 8), np.uint8)  # short: all raw
    piece = np.empty(min(nbytes, _PIECE) or 1, np.uint8)
    done = 0
    try:
        fill(segmap)
        kinds = np.unpackbits(segmap, bitorder="little")
        if kinds[segments:].any():
            raise CodecError(f"{what} payload's segment map marks a segment "
                             f"past the last of {segments} (corrupt)")
        while done < nbytes:
            end = min(nbytes, done + _PIECE)
            filtered = kinds[done // _SEGMENT]
            got = fill(piece[:end - done] if filtered else dest[done:end])
            if got < end - done:
                done += got
                break
            if filtered:
                _unshuffle(piece[:end - done], dest[done:end], width)
                if delta:  # pieces end on a word, but for the block's tail
                    _undelta32(words, done // 4, end // 4)
            done = end
        if done == nbytes and fill(piece[:1]):
            raise CodecError(
                f"{what} payload decodes past {nbytes} bytes (corrupt)")
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

    def encode_pieces(self, data, itemsize: int = 1) -> Iterator:
        """Encode the bytes-like ``data``, read where it lies (no staging
        copy), as the bytes-like pieces of its payload in order; a piece
        is written out before the next is asked for.  ``raw``'s one
        piece is ``data`` itself."""
        raise NotImplementedError

    def encode(self, data, itemsize: int = 1):
        """The payload of :meth:`encode_pieces`, joined."""
        out = bytearray()
        for piece in self.encode_pieces(data, itemsize):
            out += piece
        return out

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

    def encode_pieces(self, data, itemsize: int = 1) -> Iterator:
        yield self.encode(data, itemsize)

    def decode_into(self, payload, out: memoryview, itemsize: int = 1) -> None:
        payload = memoryview(payload).cast("B")
        if len(payload) != len(out):
            raise CodecError(
                f"raw payload holds {len(payload)} bytes, want {len(out)}")
        out[:] = payload


class ZlibCodec(Codec):
    """``delta32`` and a 4-byte shuffle, then DEFLATE at ``level``, over
    the segments that shrink; the others stored as they are (the module
    docstring's rules)."""

    name = "zlib"
    _delta = True

    def __init__(self, level: int = 1):
        if not 0 <= level <= 9:
            raise CodecError(f"zlib level {level} outside 0..9")
        self.level = level

    def _width(self, nbytes: int, itemsize: int) -> int:
        return 4  # the delta32 word

    def encode_pieces(self, data, itemsize: int = 1) -> Iterator:
        data = memoryview(data).cast("B")
        return _deflate(data, self._width(len(data), itemsize), self._delta,
                        self.level)

    def decode_into(self, payload, out: memoryview, itemsize: int = 1) -> None:
        out = memoryview(out).cast("B")
        _inflate_into(payload, out, self._width(len(out), itemsize),
                      self._delta, self.name)


class ShuffleZlibCodec(ZlibCodec):
    """Byte-shuffle by the item size + fast DEFLATE (the Blosc pipeline):
    byte planes group the slowly-varying high-order bytes of numeric
    data, which DEFLATE squeezes better than the interleaved layout.
    :class:`ZlibCodec`'s writer and reader, without the word deltas."""

    name = "shuffle-zlib"
    _delta = False

    def _width(self, nbytes: int, itemsize: int) -> int:
        if itemsize < 1 or nbytes % itemsize:
            raise CodecError(
                f"cannot shuffle {nbytes} bytes by itemsize {itemsize}")
        return itemsize


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
