"""Codec pipeline: registry, chunk container, engine/checkpoint wiring.

Covers the compressed round-trip story end to end: codecs invert exactly
(per dtype, including partial blocks), torn/truncated/bit-flipped chunk
files surface as clean StorageErrors (never a garbage decode), solver
results stay bit-identical per codec with fewer bytes read off disk, and
checkpoint/restart across a codec change is refused by name.
"""

import os

import numpy as np
import pytest

from repro.core import DOoCEngine, Program
from repro.core.array import ArrayDesc
from repro.core.codecs import (
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
    CodecError,
    CodecMismatchError,
    RecoveryError,
    StorageError,
    UnknownCodecError,
)
from repro.core.iofilter import (
    chunk_dir,
    chunk_path,
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
            assert c.decode(c.encode(b"hello"), 5) == b"hello"
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
        assert c.decode(c.encode(raw, itemsize), len(raw), itemsize) == raw

    @pytest.mark.parametrize("codec", ["zlib", "shuffle-zlib"])
    def test_block_files_round_trip_with_partial_last_block(self, codec,
                                                            tmp_path):
        d = desc(length=100, block=40, codec=codec)  # last block = 20 elems
        data = np.sin(np.arange(100.0))
        write_array(tmp_path, d, data)
        assert chunk_dir(tmp_path, "a").is_dir()
        np.testing.assert_array_equal(read_array(tmp_path, d), data)
        out = np.empty(20)
        read_block_into(tmp_path, d, 2, out)
        np.testing.assert_array_equal(out, data[80:])

    def test_compressed_blocks_readable_without_desc_codec(self, tmp_path):
        # Readers self-describe from the chunk header: a desc that lost
        # its codec stamp (or carries a different one) still reads fine.
        d = desc(codec="zlib")
        data = np.arange(100.0)
        write_array(tmp_path, d, data)
        np.testing.assert_array_equal(
            read_array(tmp_path, desc(codec=None)), data)

    def test_shuffle_groups_byte_planes(self):
        data = np.arange(8, dtype="<f8").tobytes()
        shuffled = ShuffleZlibCodec._shuffle(memoryview(data), 8)
        # plane k holds byte k of every element
        assert shuffled[:8] == bytes(data[i * 8] for i in range(8))
        out = bytearray(len(data))
        ShuffleZlibCodec._unshuffle_into(shuffled, memoryview(out), 8)
        assert bytes(out) == data

    def test_shuffle_rejects_misaligned(self):
        with pytest.raises(CodecError):
            ShuffleZlibCodec().encode(b"12345", 8)

    def test_compressible_data_actually_shrinks(self, tmp_path):
        d = desc(length=5000, block=5000, codec="zlib")
        write_array(tmp_path, d, np.zeros(5000))
        assert chunk_path(tmp_path, "a", 0).stat().st_size < 5000 * 8 // 10


class TestCorruption:
    """Torn/truncated/bit-flipped compressed blocks -> clean errors."""

    def _seed(self, tmp_path, codec="zlib"):
        d = desc(length=80, block=40, codec=codec)
        write_array(tmp_path, d, np.arange(80.0))
        return d, chunk_path(tmp_path, "a", 0)

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

    def test_corrupt_payload_never_garbage_decodes(self, tmp_path):
        # Valid framing + CRC over a *wrong* payload: the codec's own
        # length/eof verification still refuses to install bytes.
        d = desc(length=40, block=40, codec="zlib")
        blob = pack_chunk("zlib", np.arange(20.0).tobytes(), 8)
        chunk_dir(tmp_path, "a").mkdir()
        chunk_path(tmp_path, "a", 0).write_bytes(blob)
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
        chunk_path(tmp_path, "a", 1).unlink()
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
    """Seeding an array must not rewrite the file once per block."""

    def test_raw_seed_is_one_rename_one_fsync(self, tmp_path, monkeypatch):
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
        # One whole-file atomic write — not one rename+fsync per block
        # re-splicing an ever-growing file (O(blocks x file size)).
        assert counts["replace"] == 1
        assert counts["fsync"] == 1
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
