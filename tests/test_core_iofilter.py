"""Tests for scratch-directory block I/O and the I/O filter."""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array import ArrayDesc
from repro.core.errors import BlockMissingError, StorageError
from repro.core.iofilter import (
    IOFilter,
    array_path,
    block_path,
    delete_array_file,
    discover_arrays,
    escape_name,
    read_array,
    read_block,
    unescape_name,
    write_array,
    write_block,
)
from repro.datacutter import DataBuffer, END_OF_STREAM, Filter, Layout, ThreadedRuntime
from repro.faults import FaultInjector, FaultPlan, RetryPolicy


def desc(name="a", length=100, block=40):
    return ArrayDesc(name, length=length, block_elems=block)


class TestBlockIO:
    def test_write_read_round_trip(self, tmp_path):
        d = desc()
        data = np.arange(100, dtype=float)
        write_array(tmp_path, d, data)
        np.testing.assert_array_equal(read_array(tmp_path, d), data)

    def test_out_of_order_block_writes(self, tmp_path):
        d = desc(length=100, block=40)
        write_block(tmp_path, d, 2, np.full(20, 2.0))
        write_block(tmp_path, d, 0, np.full(40, 0.0))
        write_block(tmp_path, d, 1, np.full(40, 1.0))
        np.testing.assert_array_equal(
            read_block(tmp_path, d, 1), np.full(40, 1.0))
        np.testing.assert_array_equal(
            read_block(tmp_path, d, 2), np.full(20, 2.0))

    def test_shape_validation(self, tmp_path):
        d = desc()
        with pytest.raises(StorageError):
            write_block(tmp_path, d, 0, np.zeros(7))
        with pytest.raises(StorageError):
            write_array(tmp_path, d, np.zeros(99))

    def test_never_written_block_is_a_missing_block(self, tmp_path):
        # No file for the block means it was never written — a
        # reconstructable miss, not corruption (a torn file is a
        # StorageError).
        d = desc(length=100, block=40)
        write_block(tmp_path, d, 0, np.zeros(40))
        with pytest.raises(BlockMissingError, match="never written"):
            read_block(tmp_path, d, 2)
        with pytest.raises(BlockMissingError, match="no backing file"):
            read_block(tmp_path, desc("ghost"), 0)

    def test_short_read_detected(self, tmp_path):
        # A file truncated *mid-block* is corruption, not a missing block.
        d = desc(length=100, block=40)
        write_block(tmp_path, d, 0, np.zeros(40))
        path = block_path(tmp_path, d, 0)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(StorageError, match="holds 100 bytes, want 320") \
                as ei:
            read_block(tmp_path, d, 0)
        assert not isinstance(ei.value, BlockMissingError)

    def test_another_blocking_is_a_named_error(self, tmp_path):
        # A raw array is read with the blocking it was written with.
        one, three = desc("a", length=100, block=100), desc("a")
        write_array(tmp_path, one, np.arange(100.0))
        with pytest.raises(StorageError, match="another blocking") as ei:
            read_block(tmp_path, three, 0)
        assert not isinstance(ei.value, BlockMissingError)
        write_array(tmp_path, three, np.arange(100.0))
        with pytest.raises(StorageError, match="another blocking"):
            read_block(tmp_path, one, 0)
        with pytest.raises(StorageError, match="holds 320 bytes, want 160"):
            read_block(tmp_path, desc("a", block=20), 0)

    def test_a_one_block_chunk_directory_is_a_named_error(self, tmp_path):
        # One-block encoded arrays were once a chunk directory; that is
        # refused with a word to re-seed, not taken for a missing block
        # (test_another_blocking_is_a_named_error is the raw twin).
        one = ArrayDesc("a", length=100, block_elems=100, codec="zlib")
        write_array(tmp_path, one, np.arange(100.0))
        path = block_path(tmp_path, one, 0)
        blob = path.read_bytes()
        path.unlink()
        path.mkdir()
        (path / "00000000.blk").write_bytes(blob)
        with pytest.raises(StorageError, match="re-seed") as ei:
            read_block(tmp_path, one, 0)
        assert not isinstance(ei.value, BlockMissingError)
        write_array(tmp_path, one, np.arange(100.0))
        np.testing.assert_array_equal(read_array(tmp_path, one),
                                      np.arange(100.0))

    @pytest.mark.parametrize("before", [
        dict(block=40), dict(block=100), dict(block=100, codec="zlib"),
        dict(block=40, codec="zlib")])
    @pytest.mark.parametrize("after", [
        dict(block=40), dict(block=100), dict(block=100, codec="zlib")])
    def test_a_seed_replaces_any_earlier_layout(self, tmp_path, before,
                                                after):
        old = ArrayDesc("a", length=100, block_elems=before["block"],
                        codec=before.get("codec"))
        new = ArrayDesc("a", length=100, block_elems=after["block"],
                        codec=after.get("codec"))
        write_array(tmp_path, old, np.zeros(100))
        write_array(tmp_path, new, np.arange(100.0))
        np.testing.assert_array_equal(read_array(tmp_path, new),
                                      np.arange(100.0))
        assert len(list(tmp_path.iterdir())) == 1

    def test_name_mangling_round_trips(self, tmp_path):
        d = ArrayDesc("dir/like\\name", length=10, block_elems=10)
        write_array(tmp_path, d, np.arange(10.0))
        assert discover_arrays(tmp_path) == ["dir/like\\name"]
        np.testing.assert_array_equal(read_array(tmp_path, d), np.arange(10.0))

    def test_delete_and_discover(self, tmp_path):
        d = desc("x")
        write_array(tmp_path, d, np.zeros(100))
        assert discover_arrays(tmp_path) == ["x"]
        delete_array_file(tmp_path, "x")
        assert discover_arrays(tmp_path) == []
        delete_array_file(tmp_path, "x")  # idempotent

    def test_discover_missing_dir(self, tmp_path):
        assert discover_arrays(tmp_path / "nope") == []

    def test_concurrent_first_writes_do_not_zero_each_other(self, tmp_path):
        """Regression: two threads writing different blocks of a *new*
        array concurrently must not zero each other's block.  Each block
        has a file of its own, in a directory both may create."""
        d = desc(length=80, block=40)
        want0, want1 = np.full(40, 1.0), np.full(40, 2.0)
        for _round_no in range(50):
            delete_array_file(tmp_path, d.name)
            barrier = threading.Barrier(2)
            errors = []

            def writer(block, data):
                try:
                    barrier.wait()
                    write_block(tmp_path, d, block, data)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=writer, args=(0, want0)),
                       threading.Thread(target=writer, args=(1, want1))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            np.testing.assert_array_equal(read_block(tmp_path, d, 0), want0)
            np.testing.assert_array_equal(read_block(tmp_path, d, 1), want1)


class TestWritesReadTheBlockInPlace:
    """``write_block`` / ``write_array`` hand the block's own bytes to the
    file write (raw) or to the encoder (zlib): no ``tobytes()``, no
    ``bytes()`` on the way.  An input that is not C-contiguous or not of
    the array's dtype costs the one copy that converts it."""

    N = 131072  # 1 MiB of float64

    @pytest.fixture
    def handed(self, monkeypatch):
        """What reached ``atomic_write`` and the zlib encoder, as arrays
        over the very buffers they were given."""
        from repro.core import iofilter
        from repro.core.codecs import ZlibCodec, get_codec

        seen = {"file": [], "encoder": []}
        write = iofilter.atomic_write

        def atomic_write(path, *parts, **kwargs):
            seen["file"].append(np.frombuffer(parts[-1], dtype=np.uint8))
            write(path, *parts, **kwargs)

        def encode_pieces(data, itemsize=1):
            seen["encoder"].append(np.frombuffer(data, dtype=np.uint8))
            return ZlibCodec.encode_pieces(get_codec("zlib"), data, itemsize)

        monkeypatch.setattr(iofilter, "atomic_write", atomic_write)
        monkeypatch.setattr(get_codec("zlib"), "encode_pieces", encode_pieces,
                            raising=False)
        return seen

    @staticmethod
    def chunk_bytes(raw: bytes) -> bytes:
        """A zlib chunk file of a block whose segments all shrink, as the
        format defines it, built without the code under test: the
        header, then ``deflated``'s payload."""
        import struct
        import zlib

        from tests.test_codecs import deflated

        payload = deflated("zlib", raw, 8)
        return struct.pack("<8s16sQQI", b"DOOCCHK3", b"zlib".ljust(16, b"\0"),
                           len(raw), len(payload),
                           zlib.crc32(payload)) + payload

    def inputs(self):
        """(label, array, shares): the conforming input, then the two that
        need converting."""
        base = np.repeat(np.random.default_rng(3).integers(0, 9, self.N // 32),
                         64)  # runs: deflate shrinks it a hundredfold
        return [("contiguous", base[: self.N].astype(np.float64), True),
                ("strided", base.astype(np.float64)[::2], False),
                ("wrong dtype", base[: self.N].astype(np.int64), False)]

    @pytest.mark.parametrize("whole", [False, True],
                             ids=["write_block", "write_array"])
    def test_raw_file_write_reads_the_input_buffer(self, tmp_path, handed,
                                                   whole):
        for label, data, shares in self.inputs():
            d = ArrayDesc(f"r{label[0]}", length=self.N, block_elems=self.N)
            if whole:
                write_array(tmp_path, d, data)
            else:
                write_block(tmp_path, d, 0, data)
            (given,) = handed["file"]
            handed["file"].clear()
            assert np.shares_memory(given, data) == shares, label
            want = np.asarray(data, dtype=np.float64).tobytes()
            assert array_path(tmp_path, d.name).read_bytes() == want, label

    def test_several_raw_blocks_own_files(self, tmp_path, handed):
        d = ArrayDesc("multi", length=2 * self.N, block_elems=self.N)
        blocks = [np.full(self.N, 1.0), np.full(self.N, 2.0)]
        for b in (1, 0):
            write_block(tmp_path, d, b, blocks[b])
            assert np.shares_memory(handed["file"][-1], blocks[b])
        assert sorted(p.name for p in array_path(tmp_path, "multi").iterdir()
                      ) == ["00000000.blk", "00000001.blk"]
        for b in (0, 1):
            assert block_path(tmp_path, d, b).read_bytes() == \
                blocks[b].tobytes()

    def test_zlib_encoder_reads_the_input_buffer(self, tmp_path, handed):
        for label, data, shares in self.inputs():
            d = ArrayDesc(f"z{label[0]}", length=self.N, block_elems=self.N,
                          codec="zlib")
            write_block(tmp_path, d, 0, data)
            (given,) = handed["encoder"]
            handed["encoder"].clear()
            assert np.shares_memory(given, data) == shares, label
            want = self.chunk_bytes(np.asarray(data, np.float64).tobytes())
            assert block_path(tmp_path, d, 0).read_bytes() == want, label

    def test_a_chunk_file_is_written_without_joining_its_parts(
            self, tmp_path):
        """Header and payload go to the file one after the other: an 8 MiB
        block of random values (stored, so its payload is as large) peaks
        below its payload and one mebibyte, not at twice the payload."""
        import tracemalloc

        from repro.core.iofilter import pack_chunk

        data = np.random.default_rng(4).standard_normal(2**20)
        d = ArrayDesc("r", length=len(data), block_elems=len(data),
                      codec="zlib")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_block(tmp_path, d, 0, data)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        header, payload = pack_chunk("zlib", data, 8)
        assert block_path(tmp_path, d, 0).read_bytes() == header + payload
        assert peak <= len(payload) + 2**20, (peak, len(payload))

    @pytest.mark.parametrize("codec", [None, "zlib"])
    def test_copies_made_on_the_way_to_the_file(self, tmp_path, codec):
        """Counted by the allocator's own tracer: nothing of the block's
        size for a conforming input, one block for one that is converted
        (``tobytes()`` then ``bytes()`` used to make two and three)."""
        import tracemalloc

        nbytes = self.N * 8
        peaks = {}
        for label, data, _ in self.inputs():
            d = ArrayDesc(f"t{label[0]}", length=self.N, block_elems=self.N,
                          codec=codec)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                write_block(tmp_path, d, 0, data)
                peaks[label] = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        # beside the copies: deflate's own state (about 270 KB at level
        # 6), the payload and its chunk frame (a few KB each)
        assert peaks["contiguous"] < 0.5 * nbytes, peaks
        assert nbytes <= peaks["strided"] < 1.5 * nbytes, peaks
        assert nbytes <= peaks["wrong dtype"] < 1.5 * nbytes, peaks


class TestEveryLayout:
    """One body over every codec and blocking (zarr's
    ``test_nbytes_stored`` runs one body over every store): a block is one
    file, the bytes come back bit for bit, and ``disk_bytes_written`` is
    what the files hold."""

    BLOCK = 20_000  # float64 elements: 160 KB, so raw loads are mapped

    @staticmethod
    def files(root):
        return {str(p.relative_to(root)): p.stat().st_size
                for p in root.rglob("*") if p.is_file()}

    @pytest.mark.parametrize("read", ["read_block", "read_block_into"])
    @pytest.mark.parametrize("write", ["write_array", "write_block"])
    @pytest.mark.parametrize("n_blocks", [1, 3])
    @pytest.mark.parametrize("codec", ["raw", "zlib", "shuffle-zlib"])
    def test_layout_bytes_and_counters(self, tmp_path, codec, n_blocks,
                                       write, read):
        from repro.core.iofilter import CHUNK_MAGIC, read_block_into
        from repro.obs import MetricsRegistry

        length = (n_blocks - 1) * self.BLOCK + 7_000
        d = ArrayDesc("a/b", length=length, codec=codec,
                      block_elems=self.BLOCK if n_blocks > 1 else length)
        data = np.random.default_rng(n_blocks).integers(
            0, 50, length).astype(np.float64)
        metrics = MetricsRegistry()
        if write == "write_array":
            write_array(tmp_path, d, data, metrics=metrics)
        else:
            for b in reversed(d.blocks()):
                lo, hi = d.block_bounds(b)
                write_block(tmp_path, d, b, data[lo:hi], metrics=metrics)

        files = self.files(tmp_path)
        # one rule: the codec's suffix, and a directory for several blocks
        where = "a%2Fb.arr" if codec == "raw" else "a%2Fb.arrc"
        assert sorted(files) == ([where] if n_blocks == 1 else [
            f"{where}/{b:08d}.blk" for b in d.blocks()])
        for b in d.blocks():
            lo, hi = d.block_bounds(b)
            path = block_path(tmp_path, d, b)
            assert path.relative_to(tmp_path).as_posix() in files
            if codec == "raw":
                assert path.read_bytes() == data[lo:hi].tobytes()
            else:
                assert path.read_bytes().startswith(CHUNK_MAGIC)
        snap = metrics.as_dict()
        assert snap["disk_bytes_written"] == sum(files.values())
        assert snap["logical_bytes_written"] == d.nbytes
        assert discover_arrays(tmp_path) == ["a/b"]

        if read == "read_block":
            got = [read_block(tmp_path, d, b) for b in d.blocks()]
        else:
            got = [read_block_into(tmp_path, d, b,
                                   np.empty(d.block_length(b)))
                   for b in d.blocks()]
        assert np.concatenate(got).tobytes() == data.tobytes()

    @pytest.mark.parametrize("read", ["read_block", "read_block_into"])
    @pytest.mark.parametrize("n_blocks", [1, 3])
    @pytest.mark.parametrize("codec", ["raw", "zlib", "shuffle-zlib"])
    def test_a_load_touches_only_the_file_it_opens(
            self, tmp_path, monkeypatch, codec, n_blocks, read):
        """The descriptor names the file: a load opens ``block_path`` and
        asks the file system about no other path (no layout probe)."""
        import builtins
        from pathlib import Path

        from repro.core.iofilter import read_block_into

        length = (n_blocks - 1) * self.BLOCK + 7_000
        d = ArrayDesc("a", length=length, codec=codec,
                      block_elems=self.BLOCK if n_blocks > 1 else length)
        data = np.arange(length, dtype=np.float64)
        write_array(tmp_path, d, data)
        touched = []

        def spy(fn):
            def call(path, *args, **kwargs):
                if not isinstance(path, int):  # a descriptor names no path
                    touched.append(Path(path))
                return fn(path, *args, **kwargs)
            return call

        for owner, name in [(os, "stat"), (os, "lstat"), (os, "listdir"),
                            (os, "scandir"), (builtins, "open"),
                            (Path, "is_dir"), (Path, "is_file"),
                            (Path, "exists")]:
            monkeypatch.setattr(owner, name, spy(getattr(owner, name)))
        got = []
        for b in d.blocks():
            del touched[:]
            if read == "read_block":
                got.append(read_block(tmp_path, d, b))
            else:
                got.append(read_block_into(tmp_path, d, b,
                                           np.empty(d.block_length(b))))
            assert touched == [block_path(tmp_path, d, b)], touched
        monkeypatch.undo()
        assert np.concatenate(got).tobytes() == data.tobytes()

    def test_raw_blocks_are_written_without_reading_the_array(
            self, tmp_path, monkeypatch):
        from pathlib import Path

        def no_read(self):
            raise AssertionError(f"read {self} while writing a block")

        monkeypatch.setattr(Path, "read_bytes", no_read)
        d = desc(length=160, block=40)
        blocks = [np.full(40, float(b)) for b in d.blocks()]
        for b in (3, 1, 0, 2):
            write_block(tmp_path, d, b, blocks[b])
        monkeypatch.undo()
        for b in d.blocks():
            assert block_path(tmp_path, d, b).read_bytes() == \
                blocks[b].tobytes()

    def test_block_writes_write_each_byte_once(self, tmp_path, monkeypatch):
        """16 blocks of 512 KiB written one at a time put 8 MiB through
        the file writes — what ``disk_bytes_written`` says and what the
        files hold (a shared file rewrote 68 MiB for them)."""
        from repro.obs import MetricsRegistry

        written = []
        fdopen = os.fdopen

        class Counting:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, data):
                written.append(memoryview(data).nbytes)
                return self.fh.write(data)

            def __getattr__(self, name):
                return getattr(self.fh, name)

        monkeypatch.setattr("repro.util.atomicio.os.fdopen",
                            lambda fd, mode: Counting(fdopen(fd, mode)))
        block = 512 * 1024 // 8
        d = desc(length=16 * block, block=block)
        metrics = MetricsRegistry()
        for b in d.blocks():
            write_block(tmp_path, d, b, np.full(block, float(b)),
                        metrics=metrics, durable=False)
        on_disk = sum(f.stat().st_size for f in tmp_path.rglob("*.blk"))
        assert sum(written) == metrics.get("disk_bytes_written") \
            == on_disk == 8 << 20


class TestNameMangling:
    @given(name=st.text(
        alphabet=st.characters(codec="utf-8",
                               exclude_characters="\x00"),
        min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_escape_round_trips(self, name):
        assert unescape_name(escape_name(name)) == name

    @given(name=st.lists(
        st.sampled_from(["%", "/", "\\", "%2F", "%25", "%5C", "a"]),
        min_size=1, max_size=12).map("".join))
    @settings(max_examples=200, deadline=None)
    def test_adversarial_names_round_trip_and_stay_flat(self, name):
        safe = escape_name(name)
        assert "/" not in safe and "\\" not in safe
        assert unescape_name(safe) == name

    def test_no_collisions_between_literal_and_escaped(self):
        """Regression: escaping ``/`` before ``%`` mapped "a/b" and
        "a%2Fb" to the same file name."""
        names = ["a/b", "a%2Fb", "a%252Fb", "a\\b", "a%5Cb", "%", "%25"]
        escaped = [escape_name(n) for n in names]
        assert len(set(escaped)) == len(names)
        for n, s in zip(names, escaped, strict=True):
            assert unescape_name(s) == n


class _Driver(Filter):
    """Feeds commands to an IOFilter and records replies."""

    inputs = ("rep",)
    outputs = ("cmd",)

    def __init__(self, commands, replies):
        self.commands = commands
        self.replies = replies

    def process(self, ctx):
        for cmd in self.commands:
            ctx.write("cmd", DataBuffer(cmd))
        ctx.close("cmd")
        while True:
            buf = ctx.read("rep")
            if buf is END_OF_STREAM:
                return
            self.replies.append(buf.payload)


def _load_through_one_transient_fault(scratch, d):
    """Load block 0 of ``d`` through an IOFilter whose first attempt meets
    an injected transient fault: ``(replies, metrics snapshot)``."""
    from repro.obs import MetricsRegistry
    metrics = MetricsRegistry()

    class OneShot(FaultInjector):
        """Injects exactly one transient fault, then goes quiet."""

        def io_fault(self, op, array, block, attempt):
            return super().io_fault(op, array, block, attempt) \
                if attempt == 0 else None

    replies = []
    layout = Layout("io")
    layout.add_filter("drv", lambda: _Driver(
        [{"op": "load", "desc": d, "block": 0, "token": "t"}], replies))
    layout.add_filter("io", lambda: IOFilter(
        scratch, retry=RetryPolicy(attempts=3, backoff_s=0.0),
        injector=OneShot(FaultPlan(seed=0, io_transient=1.0), 0,
                         metrics=metrics),
        metrics=metrics))
    layout.connect("drv", "cmd", "io", "in")
    layout.connect("io", "out", "drv", "rep")
    ThreadedRuntime(layout).run(timeout=30)
    return replies, metrics.as_dict()


class TestIOFilter:
    def test_load_store_unlink_protocol(self, tmp_path):
        d = desc(length=80, block=40)
        replies = []
        commands = [
            {"op": "store", "desc": d, "block": 0,
             "data": np.full(40, 5.0), "token": "t1"},
            {"op": "load", "desc": d, "block": 0, "token": "t2"},
            {"op": "unlink", "desc": d, "block": -1, "token": "t3"},
        ]
        layout = Layout("io")
        layout.add_filter("drv", lambda: _Driver(commands, replies))
        layout.add_filter("io", lambda: IOFilter(tmp_path))
        layout.connect("drv", "cmd", "io", "in")
        layout.connect("io", "out", "drv", "rep")
        ThreadedRuntime(layout).run(timeout=30)
        assert [r["op"] for r in replies] == ["stored", "loaded", "unlinked"]
        np.testing.assert_array_equal(replies[1]["data"], np.full(40, 5.0))
        assert [r["token"] for r in replies] == ["t1", "t2", "t3"]
        assert not array_path(tmp_path, d.name).exists()

    def test_exhausted_retries_reply_io_error_and_filter_survives(
            self, tmp_path):
        """A failing load must produce a structured ``io_error`` reply
        (carrying the correlation token) and leave the filter alive for
        subsequent commands — not kill the filter thread."""
        d = desc(length=80, block=40)
        replies = []
        commands = [
            {"op": "load", "desc": d, "block": 0, "token": "t-dead"},
            {"op": "store", "desc": d, "block": 1,
             "data": np.full(40, 7.0), "token": "t-after"},
        ]
        layout = Layout("io")
        layout.add_filter("drv", lambda: _Driver(commands, replies))
        layout.add_filter("io", lambda: IOFilter(
            tmp_path, retry=RetryPolicy(attempts=2, backoff_s=0.0)))
        layout.connect("drv", "cmd", "io", "in")
        layout.connect("io", "out", "drv", "rep")
        ThreadedRuntime(layout).run(timeout=30)
        assert [r["op"] for r in replies] == ["io_error", "stored"]
        err = replies[0]
        assert err["failed_op"] == "load"
        assert err["token"] == "t-dead"
        assert err["block"] == 0
        assert "error" in err

    def test_non_ascii_codec_name_replies_io_error(self, tmp_path):
        """A chunk whose codec-name field holds a non-ASCII byte is a
        corrupt block like any other: the load is answered with
        ``io_error`` and the next command is served."""
        d = ArrayDesc("a", length=80, block_elems=40, codec="zlib")
        write_array(tmp_path, d, np.arange(80.0))
        path = block_path(tmp_path, d, 0)
        blob = bytearray(path.read_bytes())
        blob[8] = 0xE9
        path.write_bytes(bytes(blob))
        replies = []
        layout = Layout("io")
        layout.add_filter("drv", lambda: _Driver(
            [{"op": "load", "desc": d, "block": 0, "token": "t-bad"},
             {"op": "load", "desc": d, "block": 1, "token": "t-good"}],
            replies))
        layout.add_filter("io", lambda: IOFilter(
            tmp_path, retry=RetryPolicy(attempts=2, backoff_s=0.0)))
        layout.connect("drv", "cmd", "io", "in")
        layout.connect("io", "out", "drv", "rep")
        ThreadedRuntime(layout).run(timeout=30)
        assert [r["op"] for r in replies] == ["io_error", "loaded"]
        assert replies[0]["token"] == "t-bad"
        assert "StorageError" in replies[0]["error"]
        assert "block 0 of 'a'" in replies[0]["error"]
        np.testing.assert_array_equal(replies[1]["data"], np.arange(40.0, 80.0))

    def test_injected_transient_fault_retried_to_success(self, tmp_path):
        d = desc(length=40, block=40)
        write_array(tmp_path, d, np.arange(40.0))
        replies, snap = _load_through_one_transient_fault(tmp_path, d)
        assert [r["op"] for r in replies] == ["loaded"]
        np.testing.assert_array_equal(replies[0]["data"], np.arange(40.0))
        assert snap["io_retries"] == 1
        assert snap["faults_injected_by_label"] == {"io_transient": 1}

    def test_unknown_op_fails(self, tmp_path):
        d = desc()
        replies = []
        layout = Layout("bad")
        layout.add_filter("drv", lambda: _Driver(
            [{"op": "format", "desc": d, "block": 0}], replies))
        layout.add_filter("io", lambda: IOFilter(tmp_path))
        layout.connect("drv", "cmd", "io", "in")
        layout.connect("io", "out", "drv", "rep")
        with pytest.raises(Exception, match="unknown I/O op"):
            ThreadedRuntime(layout).run(timeout=30)


BIG = 16384  # float64 elements in 128 KiB: the smallest mapped block


def _big_desc(name="m", blocks=2, block=BIG, dtype="float64"):
    return ArrayDesc(name, length=blocks * block, block_elems=block,
                     dtype=dtype)


def _lines_mapping(path):
    """The lines of this process's mappings of ``path``, or of the files
    under it when it is a directory."""
    with open("/proc/self/maps") as fh:
        return [line for line in fh
                if line.rstrip().endswith(str(path))
                or f"{path}/" in line]


class TestMappedLoads:
    """A raw block of 128 KiB and more is a read-only view of the page
    cache's pages: no copy, no descriptor, gone with its last view."""

    @given(data=st.data(),
           dtype=st.sampled_from(["uint8", "int16", "float32", "float64",
                                  "complex128"]),
           n_blocks=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_mapped_block_is_bit_identical_to_read_block_into(
            self, data, dtype, n_blocks):
        import tempfile
        from repro.core.iofilter import _MMAP_MIN_BYTES, read_block_into
        from repro.obs import MetricsRegistry

        itemsize = np.dtype(dtype).itemsize
        least = -(-_MMAP_MIN_BYTES // itemsize)
        # Odd-ish block sizes: no block's length is a multiple of the
        # page size.
        block_elems = data.draw(st.integers(least, least + 3000))
        ragged = data.draw(st.integers(1, block_elems))
        d = ArrayDesc("m", length=(n_blocks - 1) * block_elems + ragged,
                      block_elems=block_elems, dtype=dtype)
        block = data.draw(st.integers(0, n_blocks - 1))
        rng = np.random.default_rng(block_elems)
        content = rng.integers(0, 256, size=d.nbytes, dtype=np.uint8)
        with tempfile.TemporaryDirectory() as tmp:
            write_array(tmp, d, content.view(dtype))
            metrics = MetricsRegistry()
            got = read_block(tmp, d, block, metrics=metrics)
            want = np.empty(d.block_length(block), dtype=dtype)
            read_block_into(tmp, d, block, want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        nbytes = d.block_nbytes(block)
        snap = metrics.as_dict()
        assert snap["disk_bytes_read"] == snap["logical_bytes_read"] == nbytes
        assert snap.get("bytes_mapped", 0) == (
            nbytes if nbytes >= _MMAP_MIN_BYTES else 0)

    def test_view_is_read_only_and_cannot_be_made_writable(self, tmp_path):
        d = _big_desc()
        write_array(tmp_path, d, np.arange(d.length, dtype=float))
        out = read_block(tmp_path, d, 1)
        with pytest.raises(ValueError, match="read-only"):
            out[0] = 1.0
        with pytest.raises(ValueError):
            out.setflags(write=True)
        assert not out[10:20].flags.writeable

    def test_replacing_or_unlinking_the_file_leaves_the_old_bytes(
            self, tmp_path):
        from repro.util.atomicio import atomic_write
        d = _big_desc()
        old = np.arange(d.length, dtype=float)
        write_array(tmp_path, d, old)
        view = read_block(tmp_path, d, 1)
        atomic_write(block_path(tmp_path, d, 1), (old[BIG:] + 1).tobytes())
        np.testing.assert_array_equal(view, old[BIG:])
        np.testing.assert_array_equal(read_block(tmp_path, d, 1),
                                      old[BIG:] + 1)
        delete_array_file(tmp_path, d.name)
        np.testing.assert_array_equal(view, old[BIG:])

    def test_file_truncated_before_the_load_is_a_named_error(self, tmp_path):
        # Decided from fstat before mapping: a page past the end of a
        # mapped file would be a SIGBUS, not an exception.
        d = _big_desc()
        write_array(tmp_path, d, np.zeros(d.length))
        path = block_path(tmp_path, d, 1)
        os.truncate(path, 100)
        with pytest.raises(
                StorageError,
                match=rf"block 1 of 'm' in .*00000001\.blk holds 100 bytes, "
                      rf"want {BIG * 8} \(torn or truncated file") as ei:
            read_block(tmp_path, d, 1)
        assert not isinstance(ei.value, BlockMissingError)
        os.unlink(path)
        with pytest.raises(
                BlockMissingError,
                match=r"block 1 of 'm' was never written: no backing file "
                      r".*00000001\.blk"):
            read_block(tmp_path, d, 1)
        np.testing.assert_array_equal(read_block(tmp_path, d, 0),
                                      np.zeros(BIG))
        os.unlink(block_path(tmp_path, d, 0))
        with pytest.raises(BlockMissingError, match="no backing file"):
            read_block(tmp_path, d, 0)

    def test_resident_blocks_hold_no_descriptor_and_unmap_with_their_views(
            self, tmp_path):
        import gc
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        limit = max(32, max(int(fd) for fd in os.listdir("/proc/self/fd")) + 8)
        d = _big_desc(blocks=2 * limit)
        write_array(tmp_path, d, np.arange(d.length, dtype=float))
        path = array_path(tmp_path, d.name)
        assert _lines_mapping(path) == []
        fds_before = len(os.listdir("/proc/self/fd"))
        resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard))
        try:
            views = [read_block(tmp_path, d, b) for b in d.blocks()]
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        assert len(os.listdir("/proc/self/fd")) == fds_before
        mapped = 0
        for line in _lines_mapping(path):
            lo, hi = (int(a, 16) for a in line.split()[0].split("-"))
            mapped += hi - lo
        assert mapped == d.nbytes
        assert all(v[0] == b * BIG for b, v in enumerate(views))
        tail = views[-1][-8:]  # a slice keeps its block's mapping alive
        del views
        gc.collect()
        assert len(_lines_mapping(path)) == 1
        assert tail[-1] == d.length - 1
        del tail
        gc.collect()
        assert _lines_mapping(path) == []

    def test_transient_fault_is_retried_and_maps_once(self, tmp_path):
        d = _big_desc(blocks=1)
        write_array(tmp_path, d, np.arange(d.length, dtype=float))
        replies, snap = _load_through_one_transient_fault(tmp_path, d)
        assert [r["op"] for r in replies] == ["loaded"]
        np.testing.assert_array_equal(replies[0]["data"],
                                      np.arange(d.length, dtype=float))
        assert snap["io_retries"] == 1
        assert snap["bytes_mapped"] == snap["disk_bytes_read"] == d.nbytes


def _two_pass_program(n_arrays=4):
    """Each of ``n_arrays`` one-block 128 KiB inputs is read once before
    and once after a reduction over all of them, beside one 512-byte
    input: with room for fewer than all, the second pass reloads."""
    from repro.core.engine import Program

    prog = Program("two-pass", default_block_elems=BIG)
    prog.initial_array("s", np.full(64, 2.0), block_elems=64)
    arrays = [np.full(BIG, float(j + 1)) for j in range(n_arrays)]
    firsts = [f"y0_{j}" for j in range(n_arrays)]
    prog.array("z", 64, block_elems=64)
    for j, a in enumerate(arrays):
        prog.initial_array(f"a{j}", a)
        prog.array(f"y0_{j}", 64, block_elems=64)
        prog.array(f"y1_{j}", 64, block_elems=64)
        prog.add_task(
            f"t0_{j}",
            lambda i, o, m, j=j: o[f"y0_{j}"].__setitem__(
                slice(None), i[f"a{j}"][:64] * i["s"]),
            [f"a{j}", "s"], [f"y0_{j}"])
        prog.add_task(
            f"t1_{j}",
            lambda i, o, m, j=j: o[f"y1_{j}"].__setitem__(
                slice(None), i[f"a{j}"][-64:] + i["z"]),
            [f"a{j}", "z"], [f"y1_{j}"])
    prog.add_task(
        "gather",
        lambda i, o, m: o["z"].__setitem__(
            slice(None), sum(i[name] for name in firsts)),
        firsts, ["z"])
    z = sum(a[:64] * 2.0 for a in arrays)
    return prog, {f"y1_{j}": a[-64:] + z for j, a in enumerate(arrays)}


class TestMappedLoadsInTheEngine:
    def _run(self, tmp_path, **kwargs):
        from repro.core.engine import DOoCEngine

        prog, want = _two_pass_program()
        eng = DOoCEngine(n_nodes=1, workers=2, scratch_dir=tmp_path,
                         **kwargs)
        try:
            report = eng.run(prog, timeout=60)
            for name, value in want.items():
                np.testing.assert_array_equal(eng.fetch(name), value)
        finally:
            eng.cleanup()
        return report.metrics[0]

    def test_bytes_mapped_counts_the_large_raw_loads(
            self, tmp_path, protocol_checkers):
        # Room for two and a half of the four inputs: some are reloaded.
        # The ticket auditor is on, so a writable read view of a mapped
        # block would fail the run with WritableReadViewError.
        m = self._run(tmp_path, memory_budget_per_node=int(2.5 * BIG * 8),
                      opcache_bytes=0)
        big_loads = sum(n for array, n in m["loads_by_label"].items()
                        if array.startswith("a"))
        assert big_loads > 4
        assert m["bytes_mapped"] == big_loads * BIG * 8
        small = m["disk_bytes_read"] - m["bytes_mapped"]
        assert 0 < small < BIG * 8 and small % 512 == 0
        assert "bytes_copied" not in m

    def test_compressed_and_process_plane_loads_map_nothing(self, tmp_path):
        m = self._run(tmp_path / "z", codec="zlib")
        assert m["logical_bytes_read"] >= 4 * BIG * 8
        assert "bytes_mapped" not in m
        m = self._run(tmp_path / "p", worker_plane="process")
        assert m["disk_bytes_read"] >= 4 * BIG * 8
        assert "bytes_mapped" not in m

    def test_permanent_fault_on_a_mapped_load_fails_the_run_by_name(
            self, tmp_path):
        from repro.core.engine import DOoCEngine
        from repro.core.errors import IOFailedError
        from repro.datacutter.runtime import FilterError

        prog, _ = _two_pass_program(n_arrays=1)
        eng = DOoCEngine(
            n_nodes=1, scratch_dir=tmp_path,
            faults=FaultPlan(seed=1234, io_permanent=1.0),
            io_retry=RetryPolicy(attempts=2, backoff_s=0.001),
            task_max_attempts=2)
        try:
            with pytest.raises(FilterError) as excinfo:
                eng.run(prog, timeout=60)
        finally:
            eng.cleanup()
        assert IOFailedError.__name__ in str(excinfo.value.cause)
