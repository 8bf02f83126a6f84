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
  zlib codecs hand the payload to :mod:`zlib` as it is, inflate to a
  temporary ``bytes`` of the block's size, then copy (or unshuffle) that
  into the buffer — one allocation and one copy per decoded block that
  ``bytes_copied`` does **not** count (it counts the data plane's
  gather/scatter copies only);
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
import zlib

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


class Codec:
    """One reversible bytes→bytes transform, named for self-description.

    ``itemsize`` is the element width of the block being coded; codecs
    that exploit numeric layout (byte shuffling) need it, byte-oriented
    codecs ignore it.  Encoding is lossless: ``decode(encode(b)) == b``
    for every input, which is what keeps solver results bit-identical
    across codec choices.
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

    def decode(self, payload, raw_nbytes: int, itemsize: int = 1) -> bytes:
        """Decode to a fresh immutable buffer of ``raw_nbytes`` bytes."""
        out = bytearray(raw_nbytes)
        self.decode_into(payload, memoryview(out), itemsize)
        return bytes(out)


class RawCodec(Codec):
    """Identity codec: the fixed-offset ``.arr`` layout, no container."""

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
    """DEFLATE at a configurable level (the zarr default pipeline)."""

    name = "zlib"

    def __init__(self, level: int = 6):
        if not 0 <= level <= 9:
            raise CodecError(f"zlib level {level} outside 0..9")
        self.level = level

    def encode(self, data, itemsize: int = 1) -> bytes:
        return zlib.compress(memoryview(data).cast("B"), self.level)

    def decode_into(self, payload, out: memoryview, itemsize: int = 1) -> None:
        out = memoryview(out).cast("B")
        d = zlib.decompressobj()
        try:
            raw = d.decompress(payload, len(out) + 1)
        except zlib.error as exc:
            raise CodecError(f"zlib payload does not decode: {exc}") from exc
        if len(raw) != len(out) or not d.eof:
            raise CodecError(
                f"zlib payload decoded to {len(raw)} bytes, want {len(out)} "
                "(truncated or corrupt)")
        out[:] = raw


class ShuffleZlibCodec(Codec):
    """Byte-shuffle + fast DEFLATE (the lz4/blosc-style pipeline).

    Transposing the block to ``itemsize`` byte planes groups the
    slowly-varying high-order bytes of floating-point data together,
    which DEFLATE then squeezes far better than the interleaved layout —
    at level 1 the shuffle+deflate combination approaches zlib-6 ratios
    at a fraction of the CPU cost on smooth numeric data.
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

    @staticmethod
    def _unshuffle_into(raw: bytes, out: memoryview, itemsize: int) -> None:
        planes = np.frombuffer(raw, dtype=np.uint8).reshape(itemsize, -1)
        # Scatter straight into the caller's buffer.  np.asarray (not
        # np.frombuffer) is deliberate: frombuffer views are sealed by
        # data-plane convention (DOOC010), while this is the one place a
        # decode writes into caller-owned writable scratch.
        np.asarray(out)[:] = planes.T.reshape(-1)

    def encode(self, data, itemsize: int = 1) -> bytes:
        data = memoryview(data).cast("B")
        if itemsize < 1 or len(data) % itemsize:
            raise CodecError(
                f"cannot shuffle {len(data)} bytes by itemsize {itemsize}")
        return zlib.compress(self._shuffle(data, itemsize), self.level)

    def decode_into(self, payload, out: memoryview, itemsize: int = 1) -> None:
        out = memoryview(out).cast("B")
        if itemsize < 1 or len(out) % itemsize:
            raise CodecError(
                f"cannot unshuffle {len(out)} bytes by itemsize {itemsize}")
        d = zlib.decompressobj()
        try:
            raw = d.decompress(payload, len(out) + 1)
        except zlib.error as exc:
            raise CodecError(
                f"shuffle-zlib payload does not decode: {exc}") from exc
        if len(raw) != len(out) or not d.eof:
            raise CodecError(
                f"shuffle-zlib payload decoded to {len(raw)} bytes, want "
                f"{len(out)} (truncated or corrupt)")
        self._unshuffle_into(raw, out, itemsize)


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
