"""Codec pipeline: registry, chunk container, engine/checkpoint wiring.

Covers the compressed round-trip story end to end: codecs invert exactly
(per dtype, including partial blocks), torn/truncated/bit-flipped chunk
files surface as clean StorageErrors (never a garbage decode), solver
results stay bit-identical per codec with fewer bytes read off disk, and
checkpoint/restart across a codec change is refused by name.
"""

import os
import warnings
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DOoCEngine, Program
from repro.core.array import ArrayDesc
from repro.core.codecs import (
    _PIECE,
    _SAMPLE,
    _SEGMENT,
    CODEC_ENV,
    Codec,
    RawCodec,
    ShuffleZlibCodec,
    ZlibCodec,
    available_codecs,
    get_codec,
    register_codec,
    resolve_codec,
)
from repro.core.errors import (
    BlockMissingError,
    CheckpointFormatError,
    ChunkFormatError,
    CodecError,
    CodecMismatchError,
    RecoveryError,
    StorageError,
    UnknownCodecError,
)
from repro.core.iofilter import (
    block_path,
    pack_chunk,
    read_array,
    read_block,
    read_block_into,
    write_array,
    write_block,
)
from repro.obs import MetricsRegistry
from repro.recovery.checkpoint import CheckpointManager


def desc(name="a", length=100, block=40, dtype="float64", codec=None):
    return ArrayDesc(name, length=length, block_elems=block, dtype=dtype,
                     codec=codec)


def delta32(data: bytes) -> bytes:
    """The ``zlib`` codec's filter, written without the code under test:
    each little-endian 4-byte word minus the word before it, mod 2**32,
    and the tail of fewer than 4 bytes as it is."""
    whole = len(data) - len(data) % 4
    words = np.frombuffer(data[:whole], dtype="<u4")
    return np.diff(words, prepend=np.uint32(0)).tobytes() + data[whole:]


def shuffle(data: bytes, itemsize: int) -> bytes:
    """A byte shuffle, written without the code under test: byte ``k`` of
    every whole ``itemsize``-byte element, for each ``k`` in turn, then
    the tail of fewer than ``itemsize`` bytes as it is."""
    whole = len(data) - len(data) % itemsize
    return (np.frombuffer(data[:whole], np.uint8).reshape(-1, itemsize)
            .T.tobytes() + data[whole:])


def inflated(name: str, data: bytes, itemsize: int, kinds) -> bytes:
    """What a ``zlib`` or ``shuffle-zlib`` payload inflates to, written
    without the code under test: the segment map (bit ``i % 8`` of byte
    ``i // 8`` set when segment ``i`` is filtered), then each 256 KiB
    segment as it is or, filtered, in 64 KiB pieces, each shuffled by 4
    after ``delta32`` over the whole block (``zlib``) or by ``itemsize``
    (``shuffle-zlib``)."""
    coded, width = (delta32(data), 4) if name == "zlib" else (data, itemsize)
    parts = [np.packbits(np.array(kinds, bool), bitorder="little").tobytes()]
    for i, filtered in enumerate(kinds):
        lo, hi = i * _SEGMENT, min(len(data), (i + 1) * _SEGMENT)
        parts += ([shuffle(coded[a:min(hi, a + _PIECE)], width)
                   for a in range(lo, hi, _PIECE)] if filtered
                  else [data[lo:hi]])
    return b"".join(parts)


def deflated(name: str, data: bytes, itemsize: int) -> bytes:
    """The payload of a block whose segments are all filtered, written
    without the code under test: one level-1 compressor over
    ``inflated``'s stream, ending a DEFLATE block after each part of
    every piece (its byte planes when it has several of at least 4 KiB,
    else the piece whole)."""
    width = 4 if name == "zlib" else itemsize
    stream = inflated(name, data, itemsize,
                      [True] * -(-len(data) // _SEGMENT))
    head = len(stream) - len(data)  # the map
    deflate = zlib.compressobj(1, zlib.DEFLATED, -zlib.MAX_WBITS)
    body = deflate.compress(stream[:head])
    for at in range(head, len(stream), _PIECE):
        piece = stream[at:at + _PIECE]
        plane = len(piece) // width
        step = plane if width > 1 and plane >= _SAMPLE else len(piece)
        for a in range(0, len(piece), step):
            body += deflate.compress(piece[a:a + step])
            body += deflate.flush(zlib.Z_BLOCK)
    body += deflate.flush()
    return (zlib.compress(b"", 1)[:2] + body
            + zlib.adler32(stream).to_bytes(4, "big"))


def segment_kinds(payload, nbytes: int) -> list:
    """The segment map at the head of ``payload``'s stream, as a list of
    "filtered" flags, one per segment of an ``nbytes`` block."""
    segments = -(-nbytes // _SEGMENT)
    head = zlib.decompressobj().decompress(bytes(payload), -(-segments // 8))
    bits = np.unpackbits(np.frombuffer(head, np.uint8), bitorder="little")
    return [bool(b) for b in bits[:segments]]


class TestRegistry:
    def test_builtins_registered(self):
        assert {"raw", "zlib", "shuffle-zlib"} <= set(available_codecs())

    def test_unknown_codec_raises(self):
        with pytest.raises(UnknownCodecError):
            get_codec("snappy")

    def test_duplicate_registration_refused(self):
        with pytest.raises(CodecError):
            register_codec(RawCodec())
        register_codec(RawCodec(), replace=True)  # explicit replace is fine

    def test_desc_validates_codec(self):
        with pytest.raises(UnknownCodecError):
            desc(codec="snappy")

    def test_plugging_in_a_codec(self):
        class Xor(Codec):
            name = "test-xor"

            def encode(self, data, itemsize=1):
                return bytes(b ^ 0x5A for b in memoryview(data).cast("B"))

            def decode_into(self, payload, out, itemsize=1):
                decoded = bytes(b ^ 0x5A for b in memoryview(payload))
                if len(decoded) != len(out):
                    raise CodecError("length mismatch")
                out[:] = decoded

        register_codec(Xor(), replace=True)
        try:
            c = get_codec("test-xor")
            out = bytearray(5)
            c.decode_into(c.encode(b"hello"), memoryview(out))
            assert out == b"hello"
        finally:
            from repro.core import codecs
            codecs._REGISTRY.pop("test-xor", None)


class TestResolve:
    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv(CODEC_ENV, "zlib")
        assert resolve_codec("raw") == "raw"

    def test_environment_sampled(self, monkeypatch):
        monkeypatch.setenv(CODEC_ENV, "zlib")
        assert resolve_codec() == "zlib"
        monkeypatch.delenv(CODEC_ENV)
        assert resolve_codec() == "raw"
        monkeypatch.setenv(CODEC_ENV, "")
        assert resolve_codec() == "raw"

    def test_junk_environment_raises(self, monkeypatch):
        monkeypatch.setenv(CODEC_ENV, "snappy")
        with pytest.raises(UnknownCodecError):
            resolve_codec()

    def test_engine_snapshots_at_construction(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CODEC_ENV, "zlib")
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path)
        monkeypatch.setenv(CODEC_ENV, "shuffle-zlib")
        assert eng.codec == "zlib"  # construction-time snapshot holds
        eng.cleanup()

    def test_engine_explicit_codec_beats_environment(self, monkeypatch,
                                                     tmp_path):
        monkeypatch.setenv(CODEC_ENV, "zlib")
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path, codec="raw")
        assert eng.codec == "raw"
        eng.cleanup()


class TestRoundTrips:
    @pytest.mark.parametrize("codec", ["raw", "zlib", "shuffle-zlib"])
    @pytest.mark.parametrize("dtype", ["float64", "int32", "uint8"])
    def test_codec_inverts_exactly(self, codec, dtype):
        rng = np.random.default_rng(7)
        data = (rng.integers(0, 250, size=999).astype(dtype)
                if dtype != "float64" else rng.standard_normal(999))
        raw = data.tobytes()
        c = get_codec(codec)
        itemsize = data.dtype.itemsize
        out = bytearray(len(raw))
        c.decode_into(c.encode(raw, itemsize), memoryview(out), itemsize)
        assert out == raw

    @pytest.mark.parametrize("codec", ["zlib", "shuffle-zlib"])
    def test_block_files_round_trip_with_partial_last_block(self, codec,
                                                            tmp_path):
        d = desc(length=100, block=40, codec=codec)  # last block = 20 elems
        data = np.sin(np.arange(100.0))
        write_array(tmp_path, d, data)
        assert (tmp_path / "a.arrc").is_dir()
        np.testing.assert_array_equal(read_array(tmp_path, d), data)
        out = np.empty(20)
        read_block_into(tmp_path, d, 2, out)
        np.testing.assert_array_equal(out, data[80:])

    def test_shuffle_groups_byte_planes(self):
        data = np.arange(8, dtype="<f8").tobytes()
        shuffled = shuffle(data, 8)
        # plane k holds byte k of every element
        assert shuffled[:8] == bytes(data[i * 8] for i in range(8))
        # any stock stream of the map (one filtered segment) and the
        # planes decodes, whoever deflated it
        out = bytearray(len(data))
        ShuffleZlibCodec().decode_into(zlib.compress(b"\x01" + shuffled, 9),
                                       memoryview(out), 8)
        assert bytes(out) == data

    def test_shuffle_rejects_misaligned(self):
        with pytest.raises(CodecError):
            ShuffleZlibCodec().encode(b"12345", 8)

    def test_compressible_data_actually_shrinks(self, tmp_path):
        d = desc(length=5000, block=5000, codec="zlib")
        write_array(tmp_path, d, np.zeros(5000))
        assert block_path(tmp_path, d, 0).stat().st_size < 5000 * 8 // 10


def _csr_block_bytes(nrows=1024, nnz_per_row=256, seed=1):
    """A serialized CSR sub-matrix as the benchmark builds one: one column
    drawn from each of ``nnz_per_row`` equal strata per row, values
    uniform on a small bound (float64 mantissas DEFLATE cannot shrink)."""
    from repro.spmv.csr import CSRBlock
    from repro.spmv.csrfile import serialize_csr

    rng = np.random.default_rng(seed)
    width = nrows // nnz_per_row
    cols = (np.arange(nnz_per_row, dtype=np.int64) * width
            + rng.integers(0, width, size=(nrows, nnz_per_row)))
    bound = 1.0 / (3 * nnz_per_row)
    return serialize_csr(CSRBlock(
        nrows=nrows, ncols=nrows,
        indptr=np.arange(nrows + 1, dtype=np.int64) * nnz_per_row,
        indices=cols.ravel(),
        values=rng.uniform(-bound, bound, size=nrows * nnz_per_row))
    ).tobytes()


class TestStoredSegments:
    """The zlib encoders filter and deflate the segments that shrink and
    store the others as they are; the payload stays one stock zlib
    stream."""

    LENGTHS = [0, 1, _SAMPLE - 1, _SEGMENT - 1, _SEGMENT + 1,
               3 * _SEGMENT + 7]
    CODECS = ["zlib", "shuffle-zlib"]

    @staticmethod
    def itemsize(data: bytes) -> int:
        return 8 if len(data) % 8 == 0 else 1

    @staticmethod
    def encode_checked(name, data, itemsize):
        codec = get_codec(name)
        payload = codec.encode(data, itemsize)
        kinds = segment_kinds(payload, len(data))
        # a bare stock stream of the map and the segments in their forms
        assert zlib.decompress(payload) == inflated(name, data, itemsize,
                                                    kinds)
        out = bytearray(len(data))
        codec.decode_into(payload, memoryview(out), itemsize)
        assert bytes(out) == data
        return payload, kinds

    @pytest.mark.parametrize("name", CODECS)
    @pytest.mark.parametrize("n", LENGTHS)
    def test_random_bytes_grow_by_stored_block_headers_only(self, name, n):
        data = np.random.default_rng(n).bytes(n)
        payload, kinds = self.encode_checked(name, data, self.itemsize(data))
        # whole segments are stored; a tail shorter than a sample is not
        # judged
        assert not any(kinds[:n // _SEGMENT])
        # 5 header bytes per stored block of at most 64 KiB, plus the
        # zlib framing, the map and a compressed tail shorter than the
        # sample
        assert len(payload) <= n + 5 * -(-n // 65536) + 16

    @pytest.mark.parametrize("name", CODECS)
    @pytest.mark.parametrize("n", LENGTHS)
    def test_compressible_input_is_byte_identical_to_zlib_compress(
            self, name, n):
        rng = np.random.default_rng(5)
        data = np.repeat(rng.integers(0, 9, n // 64 + 1, dtype=np.uint8),
                         64)[:n].tobytes()
        itemsize = self.itemsize(data)
        payload, kinds = self.encode_checked(name, data, itemsize)
        assert all(kinds)
        # one compressor over the whole stream, which ends a block where
        # the format says
        assert payload == deflated(name, data, itemsize)

    @pytest.mark.parametrize("name", CODECS)
    @pytest.mark.parametrize("itemsize", [1, 8])
    def test_csr_block_stores_its_values_and_keeps_its_ratio(
            self, name, itemsize):
        # ooc_zlib's block (2048 rows of 256): the segments of indices
        # are filtered.  The values are stored where they do not shrink:
        # after zlib's deltas, and unshuffled.  Shuffled by 8, each byte
        # plane of a whole segment has its own code, and the exponent
        # planes shrink, so those are filtered (the 8 KiB tail's planes
        # are too short for codes of their own: it is stored).  Either
        # way the payload keeps the size the earlier format's (one
        # compressor over the whole block filtered, zlib at level 6) had.
        data = _csr_block_bytes(nrows=2048)
        payload, kinds = self.encode_checked(name, data, itemsize)
        values = len(data) - 8 * 2048 * 256  # the values run to the end
        end = len(data) if (name, itemsize) == ("shuffle-zlib", 8) else values
        assert kinds == [(i + 1) * _SEGMENT <= end for i in range(len(kinds))]
        earlier = zlib.compress(
            delta32(data) if name == "zlib" else shuffle(data, itemsize),
            6 if name == "zlib" else 1)
        assert len(payload) <= 1.05 * len(earlier)

    @pytest.mark.parametrize("name", ["zlib", "shuffle-zlib"])
    def test_damaged_stored_segments_raise(self, name):
        codec = get_codec(name)
        data = _csr_block_bytes()
        payload = codec.encode(data, 8)
        out = memoryview(bytearray(len(data)))
        with pytest.raises(CodecError):
            codec.decode_into(payload[:-5000], out, 8)
        flipped = bytearray(payload)
        flipped[-5000] ^= 0x01  # inside the stored values: Adler-32 fails
        with pytest.raises(CodecError):
            codec.decode_into(bytes(flipped), out, 8)


def _block_of(kind: str, nbytes: int = 8 * 2**20) -> bytes:
    """An ``nbytes`` block: all zeros (the largest expansion per input
    piece) or serialized CSR, as the benchmark stores A."""
    if kind == "zeros":
        return bytes(nbytes)
    return _csr_block_bytes(nrows=nbytes // (16 * 256))


class TestStreamingDecode:
    """The zlib codecs inflate in bounded pieces straight into ``out``;
    every way a payload can be wrong is still a CodecError."""

    CODECS = ["zlib", "shuffle-zlib"]

    @pytest.mark.parametrize("name", CODECS)
    @pytest.mark.parametrize("kind", ["zeros", "csr"])
    def test_block_decodes_with_less_than_a_mebibyte(self, name, kind):
        import tracemalloc

        codec = get_codec(name)
        raw = _block_of(kind)
        payload = codec.encode(raw, 8)
        out = np.empty(len(raw) // 8)
        tracemalloc.start()
        try:
            codec.decode_into(payload, memoryview(out), 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.tobytes() == raw
        assert peak < 2**20

    @pytest.mark.parametrize("name", CODECS)
    def test_block_encodes_beside_its_payload_only(self, name):
        # Filtered bytes reach the compressor a piece at a time, and
        # stored ones are read where they lie: an 8 MiB block of random
        # values peaks below the block and one mebibyte, stored (zlib's
        # deltas leave them nothing to shrink) or filtered (shuffle-zlib
        # codes their exponent plane on its own); a whole filtered copy
        # made it twice that.
        import tracemalloc

        raw = np.random.default_rng(8).standard_normal(2**20).tobytes()
        codec = get_codec(name)
        tracemalloc.start()
        try:
            payload = codec.encode(raw, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kinds = [name == "shuffle-zlib"] * 32
        assert segment_kinds(payload, len(raw)) == kinds
        assert zlib.decompress(payload) == inflated(name, raw, 8, kinds)
        assert peak <= len(raw) + 2**20, peak

    @pytest.mark.parametrize("name", CODECS)
    @pytest.mark.parametrize("n", [0, 1, 8, 13 * 8, 1000 * 8 + 1])
    def test_tiny_pieces_cross_every_boundary(self, name, n, monkeypatch):
        # Pieces of a few bytes split planes, stored blocks and the
        # stream's end at every offset the defaults would hide.
        from repro.core import codecs

        monkeypatch.setattr(codecs, "_INFLATE_IN", 7)
        monkeypatch.setattr(codecs, "_INFLATE_OUT", 13)
        itemsize = 8 if n % 8 == 0 else 1
        rng = np.random.default_rng(n)
        for raw in (bytes(n), rng.bytes(n)):
            codec = get_codec(name)
            out = bytearray(n)
            codec.decode_into(codec.encode(raw, itemsize), memoryview(out),
                              itemsize)
            assert out == raw

    @pytest.mark.parametrize("name", CODECS)
    @pytest.mark.parametrize("kind", ["zeros", "csr"])
    def test_damaged_payloads_raise(self, name, kind):
        codec = get_codec(name)
        raw = _block_of(kind, 2**20)
        payload = codec.encode(raw, 8)
        out = memoryview(bytearray(len(raw)))
        with pytest.raises(CodecError, match="truncated or corrupt"):
            codec.decode_into(payload[:-9], out, 8)
        refused = 0
        for at in range(2, len(payload), max(1, len(payload) // 16)):
            flipped = bytearray(payload)
            flipped[at] ^= 0x10
            try:
                codec.decode_into(bytes(flipped), out, 8)
            except CodecError:
                refused += 1
            else:  # a flip DEFLATE reads as the same bytes (a run of 0s)
                assert bytes(out) == raw
        assert refused
        with pytest.raises(CodecError, match=f"past {len(raw) - 8} bytes"):
            codec.decode_into(payload, out[:-8], 8)
        with pytest.raises(CodecError, match="truncated or corrupt"):
            codec.decode_into(payload, memoryview(bytearray(len(raw) + 8)), 8)

    @pytest.mark.parametrize("name", CODECS)
    @pytest.mark.parametrize("junk", [b"\0", b"junk", bytes(100_000)])
    def test_trailing_bytes_are_refused_by_count(self, name, junk):
        codec = get_codec(name)
        raw = np.arange(512.0).tobytes()
        out = memoryview(bytearray(len(raw)))
        with pytest.raises(CodecError,
                           match=f"{len(junk)} trailing bytes after the end"):
            codec.decode_into(codec.encode(raw, 8) + junk, out, 8)


class TestDelta32:
    """The ``zlib`` codec's word-delta filter is exactly invertible at any
    length and however the inflated stream is cut into pieces, and its
    mod-2**32 arithmetic wraps without a warning."""

    @given(data=st.binary(max_size=600).filter(lambda b: len(b) % 4),
           piece=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_at_lengths_and_pieces_that_split_words(self, data,
                                                               piece):
        from repro.core import codecs

        codec = get_codec("zlib")
        payload = codec.encode(data)
        assert zlib.decompress(payload) == inflated(
            "zlib", data, 1, segment_kinds(payload, len(data)))
        out = bytearray(len(data))
        # Pieces of 1..64 bytes end inside a word at every offset.
        with mock.patch.object(codecs, "_INFLATE_OUT", piece), \
                mock.patch.object(codecs, "_INFLATE_IN", 3):
            codec.decode_into(payload, memoryview(out))
        assert out == data

    def test_wraparound_is_silent_and_exact(self):
        # Every delta below wraps: alternating 0 and 2**32 - 1 words.
        data = np.tile(np.array([0, 2**32 - 1], dtype="<u4"), 50_000
                       ).tobytes() + b"\xff\x01"
        codec = get_codec("zlib")
        out = np.empty(len(data), dtype=np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codec.decode_into(codec.encode(data), memoryview(out))
        assert out.tobytes() == data

    def test_segments_are_judged_after_the_filter(self):
        # An arithmetic ramp of random start is noise to DEFLATE until the
        # filter turns it into one repeated delta: nothing is stored.
        ramp = (np.uint32(123456789) + np.arange(2 * _SEGMENT // 4,
                                                 dtype=np.uint32) * 40503)
        data = ramp.astype("<u4").tobytes()
        assert len(zlib.compress(data[:_SAMPLE], 1)) > 0.9 * _SAMPLE
        payload = get_codec("zlib").encode(data)
        assert bytes(payload) == deflated("zlib", data, 1)
        assert len(payload) < len(data) // 100


class TestSegmentMap:
    """A payload's stream leads with the map of its filtered segments;
    a raw segment is inflated and nothing else, and a map that does not
    fit the block is a CodecError."""

    @staticmethod
    def mixed(*noisy: bool, tail: int = 0) -> bytes:
        """Whole segments, random where ``noisy``, else runs of a few
        byte values, then ``tail`` bytes of runs."""
        rng = np.random.default_rng(len(noisy))
        runs = np.repeat(rng.integers(0, 9, _SEGMENT // 64 + 1,
                                      dtype=np.uint8), 64).tobytes()
        return b"".join(rng.bytes(_SEGMENT) if n else runs[:_SEGMENT]
                        for n in noisy) + runs[:tail]

    @pytest.mark.parametrize("name", ["zlib", "shuffle-zlib"])
    def test_incompressible_segment_is_verbatim_in_the_stream(self, name):
        data = self.mixed(False, True, tail=8 * 1000)
        payload = get_codec(name).encode(data, 8)
        assert segment_kinds(payload, len(data)) == [True, False, True]
        stream = zlib.decompress(payload)
        assert stream[1 + _SEGMENT:1 + 2 * _SEGMENT] == \
            data[_SEGMENT:2 * _SEGMENT]

    def test_values_are_inflated_and_nothing_more(self, monkeypatch):
        # ooc_zlib's block: no running sum touches a word of its float64
        # values, and the ratio holds.
        from repro.core import codecs

        data = _csr_block_bytes(nrows=2048)
        values = (len(data) - 8 * 2048 * 256) // 4  # first values word
        summed = []
        real = codecs._undelta32

        def undelta32(words, lo, hi):
            summed.append((lo, hi))
            real(words, lo, hi)
        monkeypatch.setattr(codecs, "_undelta32", undelta32)
        codec = get_codec("zlib")
        payload = codec.encode(data, 8)
        out = bytearray(len(data))
        codec.decode_into(payload, memoryview(out), 8)
        assert bytes(out) == data
        assert summed and max(hi for _, hi in summed) <= values
        assert len(data) / len(payload) >= 1.39

    @pytest.mark.parametrize("name", ["zlib", "shuffle-zlib"])
    def test_a_map_that_does_not_fit_is_a_codec_error(self, name):
        codec = get_codec(name)
        data = self.mixed(True, False)
        payload = codec.encode(data, 8)
        # a raw first segment: the map is the first byte of its stored
        # block, after the 2-byte zlib header and 5-byte block header
        assert payload[7] == 0b10
        out = memoryview(bytearray(len(data)))
        for bit in (0, 1, 2):  # flipped, or set past the last segment
            flipped = bytearray(payload)
            flipped[7] ^= 1 << bit
            with pytest.raises(CodecError):
                codec.decode_into(bytes(flipped), out, 8)
        # a stock stream, Adler-32 and all, that marks a third segment
        stream = bytearray(zlib.decompress(payload))
        stream[0] |= 0b100
        with pytest.raises(CodecError, match="segment past the last of 2"):
            codec.decode_into(zlib.compress(bytes(stream), 1), out, 8)

    @given(name=st.sampled_from(["zlib", "shuffle-zlib"]),
           itemsize=st.sampled_from([1, 8]),
           base=st.sampled_from([4, _PIECE, _SEGMENT, 3 * _SEGMENT]),
           step=st.integers(-1, 1),
           noisy=st.lists(st.booleans(), min_size=13, max_size=13),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_across_piece_and_segment_edges(
            self, name, itemsize, base, step, noisy, seed):
        n = base + step
        if name == "shuffle-zlib":
            n -= n % itemsize
        rng = np.random.default_rng(seed)
        data = b"".join(
            rng.bytes(_PIECE) if noise else np.repeat(
                rng.integers(0, 9, _PIECE // 64, dtype=np.uint8), 64
            ).tobytes() for noise in noisy)[:n]
        codec = get_codec(name)
        payload = codec.encode(data, itemsize)
        assert zlib.decompress(payload) == inflated(
            name, data, itemsize, segment_kinds(payload, n))
        out = bytearray(n)
        codec.decode_into(payload, memoryview(out), itemsize)
        assert out == data


class TestEarlierFormats:
    """A ``zlib`` chunk or checkpoint written before the filter would
    decode to other bytes: each is refused by name, never decoded."""

    @staticmethod
    def earlier_chunk(raw: bytes, magic: bytes = b"DOOCCHK1") -> bytes:
        """A ``zlib`` chunk as an earlier format wrote it, built without
        the code under test: magic ``DOOCCHK1``, payload not filtered,
        or ``DOOCCHK2``, payload delta-coded with no segment map."""
        import struct

        payload = zlib.compress(raw if magic == b"DOOCCHK1"
                                else delta32(raw), 6)
        return struct.pack("<8s16sQQI", magic, b"zlib".ljust(16, b"\0"),
                           len(raw), len(payload),
                           zlib.crc32(payload)) + payload

    @pytest.mark.parametrize("nbytes", [800, 512 * 1024])  # read, mapped
    def test_earlier_zlib_chunk_is_refused_by_name(self, tmp_path, nbytes):
        d = desc(length=nbytes // 8, block=nbytes // 8, codec="zlib")
        raw = np.arange(nbytes // 8, dtype=np.float64).tobytes()
        block_path(tmp_path, d, 0).write_bytes(self.earlier_chunk(raw))
        with pytest.raises(ChunkFormatError, match="DOOCCHK1.*re-seed"):
            read_block(tmp_path, d, 0)
        out = np.full(nbytes // 8, -1.0)
        with pytest.raises(ChunkFormatError):
            read_block_into(tmp_path, d, 0, out)
        assert (out == -1.0).all()  # nothing was decoded into it

    def test_earlier_chunk_is_not_retried(self, tmp_path):
        from repro.core.iofilter import IOFilter

        d = desc(length=100, block=100, codec="zlib")
        block_path(tmp_path, d, 0).write_bytes(
            self.earlier_chunk(np.zeros(100).tobytes()))
        metrics = MetricsRegistry()
        io = IOFilter(tmp_path, metrics=metrics)
        result, error = io._attempt(lambda: read_block(tmp_path, d, 0),
                                    "load", d, 0, "io")
        assert result is None and isinstance(error, ChunkFormatError)
        assert "io_retries" not in metrics.as_dict()

    def test_format_2_seed_is_refused_at_run_start(self, tmp_path,
                                                   monkeypatch):
        # An array declared from scratch over DOOCCHK2 files: the engine
        # learns its codec from the first chunk's header (backing_codec)
        # before any load runs, and that is where the run stops.
        from repro.core import iofilter
        from repro.core.iofilter import backing_codec, backing_identity

        loads = []

        def counted(read):
            def load(*args, **kwargs):
                loads.append(args)
                return read(*args, **kwargs)
            return load
        for fn in ("read_block", "read_block_into"):
            monkeypatch.setattr(iofilter, fn, counted(getattr(iofilter, fn)))
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path, codec="zlib")
        try:
            scratch = eng.node_scratch(0)
            x = desc("x", 1000, 400, codec="zlib")
            write_array(scratch, x, np.arange(1000.0))
            for b in range(3):
                raw = np.arange(b * 400.0, min(1000, b * 400 + 400)).tobytes()
                block_path(scratch, x, b).write_bytes(
                    self.earlier_chunk(raw, b"DOOCCHK2"))
            with pytest.raises(ChunkFormatError, match="DOOCCHK2.*re-seed"):
                backing_codec(scratch, backing_identity(scratch, "x"))
            prog = Program("format-2")
            prog.initial_from_scratch("x", 1000, block_elems=400)
            prog.array("y", 1000, block_elems=400)

            def double(ins, outs, meta):
                outs["y"][:] = 2 * ins["x"]
            prog.add_task("double", double, ["x"], ["y"])
            with pytest.raises(ChunkFormatError, match="DOOCCHK2.*re-seed"):
                eng.run(prog, timeout=60)
        finally:
            eng.cleanup()
        assert loads == []

    def test_format_2_checkpoint_is_refused_by_name(self, tmp_path):
        import json

        mgr = CheckpointManager(tmp_path, codec="zlib")
        mgr.save(1, {"x": np.arange(64.0)})
        mpath = tmp_path / "ckpt-00000001.ckpt"
        manifest = json.loads(mpath.read_text())
        manifest["format"] = 2
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointFormatError, match="format 2, before"):
            mgr.load(1)

    def test_earlier_checkpoint_is_refused_by_name(self, tmp_path):
        import json

        mgr = CheckpointManager(tmp_path, codec="zlib")
        mgr.save(1, {"x": np.arange(64.0)})
        mpath = tmp_path / "ckpt-00000001.ckpt"
        manifest = json.loads(mpath.read_text())
        manifest["format"] = 1
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointFormatError, match="format 1"):
            mgr.load(1)
        # load_latest surfaces it: skipping it would restart from scratch
        with pytest.raises(CheckpointFormatError):
            mgr.load_latest()
        manifest["format"] = "two"
        mpath.write_text(json.dumps(manifest))
        assert mgr.load_latest() is None  # junk is corruption, skipped


class TestMappedChunks:
    """A chunk file of ``_MMAP_MIN_BYTES`` and more is decoded from a
    mapping of its pages; a smaller one is read; a torn one is refused
    before anything is mapped."""

    def _seed(self, tmp_path, codec, length):
        d = desc(length=length, block=length, codec=codec)
        data = np.random.default_rng(3).standard_normal(length)
        write_array(tmp_path, d, data)
        return d, data, block_path(tmp_path, d, 0)

    @staticmethod
    def _count_mappings(monkeypatch):
        from repro.core import iofilter

        made = []

        class Counting(iofilter._FileMapping):
            __slots__ = ()

            def __init__(self, fd, nbytes):
                made.append(nbytes)
                super().__init__(fd, nbytes)

        monkeypatch.setattr(iofilter, "_FileMapping", Counting)
        return made

    @pytest.mark.parametrize("codec", ["zlib", "shuffle-zlib"])
    def test_large_chunk_is_decoded_from_its_mapping(self, codec, tmp_path,
                                                     monkeypatch):
        from repro.core.iofilter import _MMAP_MIN_BYTES

        d, data, path = self._seed(tmp_path, codec, 40_000)
        size = path.stat().st_size
        assert size >= _MMAP_MIN_BYTES
        made = self._count_mappings(monkeypatch)
        metrics = MetricsRegistry()
        np.testing.assert_array_equal(
            read_block(tmp_path, d, 0, metrics=metrics), data)
        out = np.empty(40_000)
        read_block_into(tmp_path, d, 0, out, metrics=metrics)
        np.testing.assert_array_equal(out, data)
        assert made == [size, size]
        assert metrics.get("disk_bytes_read") == 2 * size
        assert "bytes_mapped" not in metrics.as_dict()  # decoded: no view

    def test_small_chunk_is_read_not_mapped(self, tmp_path, monkeypatch):
        from repro.core.iofilter import _MMAP_MIN_BYTES

        d, data, path = self._seed(tmp_path, "zlib", 1000)
        assert path.stat().st_size < _MMAP_MIN_BYTES
        made = self._count_mappings(monkeypatch)
        np.testing.assert_array_equal(read_block(tmp_path, d, 0), data)
        assert made == []

    @pytest.mark.parametrize("keep", [10, 100_000, -1])
    def test_torn_large_chunk_is_refused_before_mapping(self, tmp_path,
                                                        monkeypatch, keep):
        d, _, path = self._seed(tmp_path, "zlib", 40_000)
        blob = path.read_bytes()
        path.write_bytes(blob[:keep])
        made = self._count_mappings(monkeypatch)
        with pytest.raises(StorageError, match="truncated"):
            read_block(tmp_path, d, 0)
        assert made == []

    def test_bit_flipped_large_chunk_fails_checksum(self, tmp_path):
        d, _, path = self._seed(tmp_path, "zlib", 40_000)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(StorageError, match="checksum mismatch"):
            read_block(tmp_path, d, 0)

    def test_trailing_bytes_inside_a_framed_chunk(self, tmp_path):
        # Framing and CRC intact, stream followed by junk: the codec's
        # refusal reaches the reader as the StorageError it is.
        from repro.core.codecs import checksum
        from repro.core.iofilter import _CHUNK_HEADER, CHUNK_MAGIC

        raw = np.arange(40.0).tobytes()
        payload = get_codec("zlib").encode(raw) + b"junk"
        d = desc(length=40, block=40, codec="zlib")
        block_path(tmp_path, d, 0).write_bytes(_CHUNK_HEADER.pack(
            CHUNK_MAGIC, b"zlib".ljust(16, b"\0"), len(raw), len(payload),
            checksum(payload)) + payload)
        with pytest.raises(CodecError, match="4 trailing bytes"):
            read_block(tmp_path, d, 0)


class TestCorruption:
    """Torn/truncated/bit-flipped compressed blocks -> clean errors."""

    def _seed(self, tmp_path, codec="zlib"):
        d = desc(length=80, block=40, codec=codec)
        write_array(tmp_path, d, np.arange(80.0))
        return d, block_path(tmp_path, d, 0)

    def test_truncated_chunk_is_storage_error(self, tmp_path):
        d, p = self._seed(tmp_path)
        p.write_bytes(p.read_bytes()[:-7])
        with pytest.raises(StorageError, match="truncated"):
            read_block(tmp_path, d, 0)

    def test_bit_flip_fails_checksum(self, tmp_path):
        d, p = self._seed(tmp_path)
        blob = bytearray(p.read_bytes())
        blob[-1] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(StorageError, match="checksum mismatch"):
            read_block(tmp_path, d, 0)

    def test_bad_magic_rejected(self, tmp_path):
        d, p = self._seed(tmp_path)
        blob = bytearray(p.read_bytes())
        blob[:8] = b"NOTCHUNK"
        p.write_bytes(bytes(blob))
        with pytest.raises(StorageError, match="bad chunk magic"):
            read_block(tmp_path, d, 0)

    def test_non_ascii_codec_name_is_storage_error(self, tmp_path):
        # The CRC covers the payload, not the header's codec-name field.
        d, p = self._seed(tmp_path)
        blob = bytearray(p.read_bytes())
        blob[8] = 0xE9
        p.write_bytes(bytes(blob))
        with pytest.raises(StorageError, match="block 0 of 'a'"):
            read_block(tmp_path, d, 0)

    def test_corrupt_payload_never_garbage_decodes(self, tmp_path):
        # Valid framing + CRC over a *wrong* payload: the codec's own
        # length/eof verification still refuses to install bytes.
        d = desc(length=40, block=40, codec="zlib")
        blob = b"".join(pack_chunk("zlib", np.arange(20.0).tobytes(), 8))
        block_path(tmp_path, d, 0).write_bytes(blob)
        with pytest.raises(StorageError):
            read_block(tmp_path, d, 0)

    def test_missing_chunk_is_block_missing(self, tmp_path):
        d = desc(length=80, block=40, codec="zlib")
        write_block(tmp_path, d, 0, np.arange(40.0))  # block 1 never lands
        with pytest.raises(BlockMissingError, match="never written"):
            read_block(tmp_path, d, 1)

    def test_decode_into_same_taxonomy(self, tmp_path):
        d, p = self._seed(tmp_path)
        p.write_bytes(p.read_bytes()[:-7])
        out = np.empty(40)
        with pytest.raises(StorageError, match="truncated"):
            read_block_into(tmp_path, d, 0, out)
        block_path(tmp_path, d, 1).unlink()
        with pytest.raises(BlockMissingError):
            read_block_into(tmp_path, d, 1, out)


def _spmv_like_program(seed=3):
    """A small multi-block pipeline with spill-sized arrays."""
    rng = np.random.default_rng(seed)
    prog = Program("codec-e2e", default_block_elems=256)
    # Low-entropy payload (16 distinct values): compressible on disk while
    # the scale chain below still produces non-trivial float64 bit patterns.
    x = rng.integers(0, 16, size=1024).astype("float64")

    def fn(factor):
        def run(ins, outs, meta):
            (i,) = list(ins)
            (o,) = list(outs)
            outs[o][:] = ins[i] * factor
        return run

    prog.initial_array("a0", x)
    for i in range(6):
        prog.array(f"a{i+1}", 1024)
        prog.add_task(f"t{i}", fn(1.0 + i / 7.0), [f"a{i}"], [f"a{i+1}"])
    return prog, x


class TestEngineEndToEnd:
    @pytest.mark.parametrize("codec", ["zlib", "shuffle-zlib"])
    def test_bit_identical_across_codecs(self, codec, tmp_path):
        prog_raw, x = _spmv_like_program()
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path / "raw",
                         memory_budget_per_node=64 * 2**10, codec="raw")
        try:
            report_raw = eng.run(prog_raw, timeout=60)
            want = eng.fetch("a6")
        finally:
            eng.cleanup()
        copies_raw = sum(m.get("bytes_copied", 0)
                         for m in report_raw.metrics.values())
        disk_raw = sum(m.get("disk_bytes_read", 0)
                       for m in report_raw.metrics.values())

        prog_c, _ = _spmv_like_program()
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path / codec,
                         memory_budget_per_node=64 * 2**10, codec=codec)
        try:
            report = eng.run(prog_c, timeout=60)
            got = eng.fetch("a6")
        finally:
            eng.cleanup()
        assert np.array_equal(got, want)  # bit-identical, not allclose
        metrics = report.metrics
        # A codec adds no data-plane copy: the only counted copies are the
        # engine's deterministic gather/scatter ones, identical to raw.
        assert sum(m.get("bytes_copied", 0)
                   for m in metrics.values()) == copies_raw
        disk = sum(m.get("disk_bytes_read", 0) for m in metrics.values())
        logical = sum(m.get("logical_bytes_read", 0)
                      for m in metrics.values())
        assert 0 < disk < logical  # compression took bytes off the read path
        assert disk < disk_raw     # ... fewer than the same run stored raw

    def test_compressed_spills_write_chunk_dirs(self, tmp_path):
        prog, _ = _spmv_like_program()
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path,
                         memory_budget_per_node=64 * 2**10, codec="zlib")
        try:
            eng.run(prog, timeout=60)
        finally:
            eng.cleanup()
        dirs = list(tmp_path.glob("**/*.arrc"))
        assert dirs, "compressed run should have produced chunk directories"

    def test_process_plane_decodes_into_segments(self, tmp_path):
        prog, _ = _spmv_like_program()
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path,
                         memory_budget_per_node=64 * 2**10,
                         worker_plane="process", codec="zlib")
        try:
            report = eng.run(prog, timeout=120)
            got = eng.fetch("a6")
        finally:
            eng.cleanup()
        assert got.shape == (1024,)
        disk = sum(m.get("disk_bytes_read", 0)
                   for m in report.metrics.values())
        logical = sum(m.get("logical_bytes_read", 0)
                      for m in report.metrics.values())
        assert 0 < disk < logical


class TestCrossCodecSeeds:
    """An array declared from scratch runs under the codec its files were
    written with, whatever the engine's: the engine learns it once per
    run, and on the thread plane the array stays resident into the
    session's next run (the process plane starts every run cold)."""

    @staticmethod
    def program(run: int) -> Program:
        prog = Program(f"cross-{run}")
        prog.initial_from_scratch("x", 1000, block_elems=400)  # a directory
        prog.initial_from_scratch("c", 64, block_elems=64)     # a file
        prog.array("y", 1000, block_elems=400)

        def scale(ins, outs, meta):
            outs["y"][:] = ins["x"] * 1.1 + ins["c"][run]
        prog.add_task("scale", scale, ["x", "c"], ["y"])
        return prog

    @pytest.mark.parametrize("plane", ["thread", "process"])
    @pytest.mark.parametrize("seeded,engine", [
        ("raw", "zlib"), ("zlib", "raw"), ("shuffle-zlib", "zlib")])
    def test_seed_under_other_codec(self, tmp_path, seeded, engine, plane):
        x = np.sin(np.arange(1000.0))
        c = np.cos(np.arange(64.0))
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path, codec=engine,
                         worker_plane=plane)
        try:
            scratch = eng.node_scratch(0)
            write_array(scratch, desc("x", 1000, 400, codec=seeded), x)
            write_array(scratch, desc("c", 64, 64, codec=seeded), c)
            for run in range(2):
                report = eng.run(self.program(run), timeout=120)
                assert np.array_equal(eng.fetch("y"), x * 1.1 + c[run])
                loads = report.metrics[0].get("loads_by_label", {})
                if run == 0 or plane == "process":  # it carries nothing
                    assert loads == {"x": 3, "c": 1}, loads
                else:  # carried resident: nothing of them is read again
                    assert "x" not in loads and "c" not in loads, loads
        finally:
            eng.cleanup()


class TestCheckpointCodecs:
    def test_round_trip_compressed(self, tmp_path):
        mgr = CheckpointManager(tmp_path, codec="zlib")
        arrays = {"x": np.arange(100.0), "it": np.array([7])}
        mgr.save(3, arrays, extra={"k": 1})
        ckpt = mgr.load(3)
        np.testing.assert_array_equal(ckpt.arrays["x"], arrays["x"])
        assert ckpt.extra == {"k": 1}

    def test_restore_across_codec_change_refused(self, tmp_path):
        CheckpointManager(tmp_path, codec="zlib").save(1, {"x": np.ones(4)})
        mgr = CheckpointManager(tmp_path, codec="raw")
        with pytest.raises(CodecMismatchError, match="zlib"):
            mgr.load(1)
        # load_latest must surface the refusal, not silently skip to None
        with pytest.raises(CodecMismatchError):
            mgr.load_latest()

    def test_pre_codec_manifests_still_load(self, tmp_path):
        # A manifest whose entries lack the codec key is raw by definition.
        import json
        mgr = CheckpointManager(tmp_path, codec="raw")
        mgr.save(1, {"x": np.arange(8.0)})
        mpath = tmp_path / "ckpt-00000001.ckpt"
        manifest = json.loads(mpath.read_text())
        for entry in manifest["blocks"].values():
            del entry["codec"], entry["raw_nbytes"]
        mpath.write_text(json.dumps(manifest))
        np.testing.assert_array_equal(mgr.load(1).arrays["x"],
                                      np.arange(8.0))

    def test_load_decodes_into_the_array_it_returns(self, tmp_path):
        mgr = CheckpointManager(tmp_path, codec="shuffle-zlib")
        grid = np.arange(24.0).reshape(4, 6)
        mgr.save(2, {"grid": grid, "it": np.array([7], dtype=np.int32)})
        arrays = mgr.load(2).arrays
        np.testing.assert_array_equal(arrays["grid"], grid)
        np.testing.assert_array_equal(arrays["it"], [7])
        assert arrays["it"].dtype == np.int32
        for arr in arrays.values():
            assert arr.flags.owndata and arr.flags.writeable

    def test_raw_size_disagreeing_with_shape_rejected(self, tmp_path):
        import json
        mgr = CheckpointManager(tmp_path, codec="zlib")
        mgr.save(1, {"x": np.arange(8.0)})
        mpath = tmp_path / "ckpt-00000001.ckpt"
        manifest = json.loads(mpath.read_text())
        manifest["blocks"]["x"]["shape"] = [4]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(RecoveryError, match="holds 64 raw bytes"):
            mgr.load(1)

    @pytest.mark.parametrize("name", ["raw", "zlib"])
    def test_no_payload_sits_beside_the_array(self, tmp_path, name):
        # A save streams the codec's pieces into the file and its hash,
        # and a raw restore reads the file into the array it returns.  On
        # 8 MiB of normal float64 values (stored whole under zlib, so the
        # payload is as large as the array) saving peaks under a
        # mebibyte, where joining the payload made it the array again; a
        # raw restore peaks at the array and a mebibyte, where reading
        # the file whole made it twice the array; an encoded restore
        # still reads its payload whole beside the array.
        import tracemalloc

        x = np.random.default_rng(8).standard_normal(2**20)
        mgr = CheckpointManager(tmp_path, codec=name)
        tracemalloc.start()
        try:
            mgr.save(1, {"x": x})
            saved = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            restored = mgr.load(1).arrays["x"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert restored.tobytes() == x.tobytes()
        assert saved < 2**20, saved
        payload = next(tmp_path.glob("ckpt-00000001-*.blk")).stat().st_size
        beside = 0 if name == "raw" else payload
        assert peak <= x.nbytes + beside + 2**20, peak

    def test_corrupt_compressed_payload_rejected(self, tmp_path):
        mgr = CheckpointManager(tmp_path, codec="zlib")
        mgr.save(1, {"x": np.zeros(100)})
        blk = next(tmp_path.glob("ckpt-00000001-*.blk"))
        payload = bytearray(blk.read_bytes())
        payload[len(payload) // 2] ^= 0x40
        blk.write_bytes(bytes(payload))
        with pytest.raises(RecoveryError):
            mgr.load(1)


class TestPruneExactness:
    """After prune, the directory holds exactly the referenced payloads."""

    @staticmethod
    def _payloads(path):
        return sorted(p.name for p in path.glob("ckpt-*-*.blk"))

    def _referenced(self, mgr):
        return sorted(mgr._referenced_payloads())

    def test_steady_state_is_exact(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=2)
        for step in range(6):
            mgr.save(step, {"x": np.full(10, float(step)),
                            "y": np.zeros(4)})
        assert mgr.steps() == [4, 5]
        assert self._payloads(tmp_path) == self._referenced(mgr)

    def test_corrupt_manifest_payloads_not_orphaned(self, tmp_path):
        # The bug: pruning a manifest that no longer parses used to skip
        # its payloads, leaking them forever.
        mgr = CheckpointManager(tmp_path, keep=1)
        mgr.save(0, {"x": np.zeros(10)})
        (tmp_path / "ckpt-00000000.ckpt").write_text("{ not json")
        mgr.save(1, {"x": np.ones(10)})
        mgr.save(2, {"x": np.full(10, 2.0)})
        assert self._payloads(tmp_path) == self._referenced(mgr)
        assert not list(tmp_path.glob("ckpt-00000000-*.blk"))

    def test_crashed_save_payloads_swept(self, tmp_path):
        # Payloads written by a save that died before its manifest landed
        # are unreferenced; the next prune collects them.
        mgr = CheckpointManager(tmp_path, keep=1)
        mgr.save(0, {"x": np.zeros(10)})
        (tmp_path / "ckpt-00000000-orphan.blk").write_bytes(b"abandoned")
        mgr.save(1, {"x": np.ones(10)})
        mgr.save(2, {"x": np.full(10, 2.0)})
        assert self._payloads(tmp_path) == self._referenced(mgr)

    def test_surviving_manifests_keep_their_payloads(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=3)
        for step in range(4):
            mgr.save(step, {"x": np.full(6, float(step))})
        for step in mgr.steps():
            ckpt = mgr.load(step)
            np.testing.assert_array_equal(ckpt.arrays["x"],
                                          np.full(6, float(step)))


class TestSeedWriteChurn:
    """Seeding an array writes each block's file once, and nothing else."""

    def test_raw_seed_is_one_rename_one_fsync_per_block(self, tmp_path,
                                                        monkeypatch):
        counts = {"replace": 0, "fsync": 0}
        real_replace, real_fsync = os.replace, os.fsync

        def counting_replace(*a, **k):
            counts["replace"] += 1
            return real_replace(*a, **k)

        def counting_fsync(*a, **k):
            counts["fsync"] += 1
            return real_fsync(*a, **k)

        monkeypatch.setattr(os, "replace", counting_replace)
        monkeypatch.setattr(os, "fsync", counting_fsync)
        d = desc(length=1000, block=100)  # 10 blocks
        write_array(tmp_path, d, np.arange(1000.0))
        # One atomic write of each block's own file — not a re-splice of
        # an ever-growing shared file per block (O(blocks x file size)).
        assert counts["replace"] == 10
        assert counts["fsync"] == 10
        assert sum(f.stat().st_size for f in tmp_path.rglob("*.blk")) == 8000
        np.testing.assert_array_equal(read_array(tmp_path, d),
                                      np.arange(1000.0))

    def test_compressed_seed_is_one_write_per_block(self, tmp_path,
                                                    monkeypatch):
        counts = {"replace": 0}
        real_replace = os.replace

        def counting_replace(*a, **k):
            counts["replace"] += 1
            return real_replace(*a, **k)

        monkeypatch.setattr(os, "replace", counting_replace)
        d = desc(length=1000, block=100, codec="zlib")
        write_array(tmp_path, d, np.arange(1000.0))
        assert counts["replace"] == 10  # one small chunk file per block

    def test_block_writes_still_splice(self, tmp_path):
        d = desc(length=100, block=40)
        write_block(tmp_path, d, 1, np.ones(40))
        write_block(tmp_path, d, 0, np.zeros(40))
        np.testing.assert_array_equal(read_block(tmp_path, d, 1),
                                      np.ones(40))


class TestMetrics:
    def test_disk_vs_logical_accounting(self, tmp_path):
        d = desc(length=1000, block=1000, codec="zlib")
        m = MetricsRegistry()
        write_array(tmp_path, d, np.zeros(1000), metrics=m)
        read_array(tmp_path, d, metrics=m)
        assert m.get("logical_bytes_read") == 8000
        assert 0 < m.get("disk_bytes_read") < 8000
        assert 0 < m.get("disk_bytes_written") < m.get(
            "logical_bytes_written") == 8000


class TestLintDOOC007:
    def test_flags_direct_compression_imports(self):
        from repro.analysis.lint import lint_source
        src = "import zlib\nfrom lzma import compress\nimport bz2.util\n"
        codes = [v.code for v in lint_source(src, "src/repro/core/foo.py")]
        assert codes.count("DOOC007") == 3

    def test_codecs_home_exempt(self):
        from repro.analysis.lint import lint_source
        violations = lint_source(
            "import zlib\n", "src/repro/core/codecs.py")
        assert not [v for v in violations if v.code == "DOOC007"]

    def test_tree_is_clean(self):
        # The source tree routes all compression through repro.core.codecs.
        from pathlib import Path

        from repro.analysis.lint import lint_paths
        src = Path(__file__).resolve().parents[1] / "src"
        violations = [v for v in lint_paths([src])
                      if v.code == "DOOC007"]
        assert violations == []
