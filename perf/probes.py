"""Layer probes: each layer's public entry point, timed alone and against a
ceiling (the bare library or OS call doing the same work) measured in the
same process on the same buffer.

``run_probes(scratch, effort)`` returns ``(values, notes)``: the probe
metrics by name, and for every ratio the base it was taken against (the
ceiling's own rate and the buffer size).  ``effort`` scales iteration
counts only: 1 inside a traced benchmark run (a few seconds), more for
``run.py --probes``.

The block is one ``ooc_read`` sub-matrix file.  It is twice the 4 MiB
per-core L2; the host's shared L3 cannot be exceeded inside the time cap, so
read/write/decode figures are cache- and page-cache-hot rates, not a
device's.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import threading
import zlib
from pathlib import Path

import numpy as np

from measure import median, now
from workloads import MIB, make, random_block


def _time(fn, repeats: int) -> float:
    """Median seconds of ``fn()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        t0 = now()
        fn()
        samples.append(now() - t0)
    return median(samples)


def _per_call(fn, calls: int) -> float:
    """Seconds per call of ``fn()`` averaged over one loop of ``calls``."""
    t0 = now()
    for _ in range(calls):
        fn()
    return (now() - t0) / calls


def noop_task(ins: dict, outs: dict, meta: dict) -> None:
    """The empty task body shipped to a worker process (module level, so it
    pickles by reference)."""


def _echo(conn) -> None:
    while True:
        try:
            msg = conn.recv_bytes()
        except EOFError:
            return
        if not msg:
            return
        conn.send_bytes(msg)


# ---------------------------------------------------------------------------


def probe_datacutter(values, notes, effort):
    from repro.datacutter.buffers import END_OF_STREAM, DataBuffer
    from repro.datacutter.filters import Filter
    from repro.datacutter.layout import Layout
    from repro.datacutter.runtime import ThreadedRuntime

    n = 4000 * effort

    class Source(Filter):
        outputs = ("out",)

        def process(self, ctx):
            for i in range(n):
                ctx.write("out", DataBuffer(i, nbytes=8))

    class Sink(Filter):
        inputs = ("in",)

        def process(self, ctx):
            while ctx.read("in") is not END_OF_STREAM:
                pass

    def through_layout():
        layout = Layout("probe")
        layout.add_filter("src", Source)
        layout.add_filter("sink", Sink)
        layout.connect("src", "out", "sink", "in")
        ThreadedRuntime(layout).run(timeout=60)

    def through_queue():
        q: queue.Queue = queue.Queue(maxsize=16)  # the stream's capacity

        def produce():
            for i in range(n):
                q.put(i)
            q.put(None)

        t = threading.Thread(target=produce)
        t.start()
        while q.get() is not None:
            pass
        t.join()

    hop = _time(through_layout, 3) / n
    bare = _time(through_queue, 3) / n
    values["datacutter.hop_us"] = hop * 1e6
    values["datacutter.hop_vs_queue"] = bare / hop
    notes["datacutter.hop_vs_queue"] = (
        f"queue.Queue(maxsize=16) hand-off {bare * 1e6:.2f} us/item, "
        f"{n} items, runtime start included")


def probe_iofilter(values, notes, effort, scratch, raw):
    from repro.core.array import ArrayDesc
    from repro.core.iofilter import (array_path, read_block_into,
                                     write_array, write_block)

    desc = ArrayDesc("probe_block", length=len(raw), dtype="uint8",
                     block_elems=len(raw))
    write_array(scratch, desc, raw)
    path = array_path(scratch, desc.name)
    out = np.empty(len(raw), dtype=np.uint8)
    mb = len(raw) / 1e6

    def bare_read():
        with open(path, "rb") as fh:
            fh.readinto(memoryview(out))

    t_layer = _time(lambda: read_block_into(scratch, desc, 0, out),
                    5 * effort)
    t_bare = _time(bare_read, 5 * effort)
    values["iofilter.read_mb_s"] = mb / t_layer
    values["iofilter.read_vs_readinto"] = t_bare / t_layer
    notes["iofilter.read_vs_readinto"] = (
        f"open+readinto {mb / t_bare:.0f} MB/s, {mb:.1f} MB block, "
        "page-cache hot")

    payload = raw.tobytes()
    tmp = scratch / "probe_block.tmp"
    dst = scratch / "probe_block.bare"

    def bare_write():
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, dst)

    t_layer = _time(lambda: write_block(scratch, desc, 0, raw), 3 * effort)
    t_bare = _time(bare_write, 3 * effort)
    values["iofilter.write_mb_s"] = mb / t_layer
    values["iofilter.write_vs_raw"] = t_bare / t_layer
    notes["iofilter.write_vs_raw"] = (
        f"write+fsync+rename {mb / t_bare:.0f} MB/s, {mb:.1f} MB block")


def probe_codecs(values, notes, effort, raw):
    from repro.core.codecs import get_codec

    data = raw.tobytes()
    mb = len(data) / 1e6
    out = memoryview(bytearray(len(data)))
    for name in ("zlib", "shuffle-zlib", "raw"):
        codec = get_codec(name)
        t0 = now()
        payload = codec.encode(data, 8)
        t_encode = now() - t0
        t_decode = _time(lambda: codec.decode_into(payload, out, 8),
                         2 * effort)
        if bytes(out) != data:
            raise AssertionError(f"codec {name} did not round-trip")
        values[f"codecs.{name}.decode_mb_s"] = mb / t_decode
        if name == "zlib":
            values["codecs.zlib.encode_mb_s"] = mb / t_encode
            t_bare = _time(lambda: zlib.decompress(payload), 2 * effort)
            values["codecs.zlib.decode_vs_zlib"] = t_bare / t_decode
            notes["codecs.zlib.decode_vs_zlib"] = (
                f"zlib.decompress {mb / t_bare:.0f} MB/s, {mb:.1f} MB "
                f"serialized sub-matrix -> {len(payload) / 1e6:.1f} MB")


def probe_storage(values, notes, effort):
    from repro.core.array import ArrayDesc
    from repro.core.interval import Interval
    from repro.core.storage import LocalStore

    blocks, elems = 2000 * effort, 128
    store = LocalStore(0, 64 * MIB)
    desc = ArrayDesc("probe", length=blocks * elems, block_elems=elems)
    store.create_array(desc)

    t0 = now()
    for b in range(blocks):
        ticket, _ = store.request_write(
            Interval("probe", b, b * elems, (b + 1) * elems))
        store.release(ticket)
    values["storage.write_seal_us"] = (now() - t0) / blocks * 1e6

    resident = Interval("probe", 0, 0, elems)

    def grant():
        ticket, _ = store.request_read(resident)
        store.release(ticket)

    values["storage.grant_us"] = _per_call(grant, blocks) * 1e6


def probe_spmv(values, notes, effort, block, raw):
    from repro.spmv.csrfile import deserialize_csr

    values["spmv.decode_ms"] = _time(
        lambda: deserialize_csr(raw).to_scipy(), 5 * effort) * 1e3
    x = np.random.default_rng(0).uniform(-1, 1, block.ncols)
    scipy_block = block.to_scipy()
    t_layer = _time(lambda: block.matvec(x), 10 * effort)
    t_bare = _time(lambda: scipy_block @ x, 10 * effort)
    flops = 2.0 * block.nnz
    values["spmv.kernel_gflops"] = flops / t_layer / 1e9
    values["spmv.kernel_vs_scipy"] = t_bare / t_layer
    notes["spmv.kernel_vs_scipy"] = (
        f"scipy csr @ x {flops / t_bare / 1e9:.2f} GFLOP/s on a "
        f"{block.nrows}x{block.ncols} block, {block.nnz} nnz")
    moved = (block.nnz * 16 + (block.nrows + 1) * 8
             + block.ncols * 8 + block.nrows * 8)
    values["spmv.kernel_bytes_per_flop"] = moved / flops
    notes["spmv.kernel_bytes_per_flop"] = (
        "computed: values+indices+indptr+x+y once, int64 indices")


def probe_opcache(values, notes, effort):
    from repro.core.opcache import DecodedOperandCache

    cache = DecodedOperandCache(MIB)
    cache.put("A", (1,), object(), 64)
    values["opcache.hit_us"] = _per_call(
        lambda: cache.get("A", (1,)), 20000 * effort) * 1e6


def probe_shm(values, notes, effort):
    from repro.core.shm import BlockHandle, SegmentPool, attach_view, detach_all

    pool = SegmentPool(tag="probe")
    try:
        values["shm.alloc_free_us"] = _per_call(
            lambda: pool.free(pool.allocate(MIB)), 200 * effort) * 1e6
        name = pool.allocate(MIB)
        handle = BlockHandle(segment=name, offset=0, count=MIB // 8,
                             dtype="float64")
        attach_view(handle)  # first call maps the segment
        values["shm.attach_us"] = _per_call(
            lambda: attach_view(handle), 2000 * effort) * 1e6
        notes["shm.attach_us"] = "segment already mapped; 1 MiB segments"
    finally:
        detach_all()
        pool.close()


def probe_procplane(values, notes, effort):
    from repro.core.procplane import ProcessWorkerPool, build_envelope

    pool = ProcessWorkerPool(1, 2, 0)
    t0 = now()
    pool.start()
    values["procplane.pool_start_ms"] = (now() - t0) * 1e3
    notes["procplane.pool_start_ms"] = "2 workers forked"
    try:
        envelope = build_envelope(noop_task, {}, {}, {}, {})
        pool.run_envelope(0, 0, envelope)
        t_layer = _per_call(lambda: pool.run_envelope(0, 0, envelope),
                            300 * effort)
    finally:
        pool.shutdown()

    ctx = mp.get_context("fork")
    parent, child = ctx.Pipe(duplex=True)
    echo = ctx.Process(target=_echo, args=(child,), daemon=True)
    echo.start()
    child.close()
    try:
        def ping():
            parent.send_bytes(b"x" * 64)
            parent.recv_bytes()

        ping()
        t_bare = _per_call(ping, 300 * effort)
    finally:
        parent.send_bytes(b"")
        echo.join(timeout=10)
        parent.close()
    values["procplane.envelope_us"] = t_layer * 1e6
    values["procplane.envelope_vs_pipe"] = t_bare / t_layer
    notes["procplane.envelope_vs_pipe"] = (
        f"Pipe ping-pong of 64 bytes {t_bare * 1e6:.1f} us")


def probe_empty_run(values, notes, effort, scratch):
    from repro.core.engine import DOoCEngine, Program

    for plane, name in (("thread", "engine.empty_run_ms"),
                        ("process", "engine.empty_run_proc_ms")):
        prog = Program("one-task")
        prog.initial_array("x", np.arange(8.0), block_elems=8)
        prog.array("y", 8, block_elems=8)
        prog.add_task("copy", _copy_task, ["x"], ["y"])
        eng = DOoCEngine(n_nodes=1, scratch_dir=scratch / f"empty-{plane}",
                         worker_plane=plane)
        try:
            values[name] = _time(lambda: eng.run(prog, timeout=30),
                                 5 * effort) * 1e3
        finally:
            eng.cleanup()


def _copy_task(ins, outs, meta):
    outs["y"][:] = ins["x"]


def probe_checkpoint(values, notes, effort, scratch, raw):
    from repro.recovery.checkpoint import CheckpointManager

    mgr = CheckpointManager(scratch / "ckpt", codec="raw")
    arr = raw.view(np.float64)  # header, indptr, indices, values: all 8-byte
    mb = arr.nbytes / 1e6
    steps = iter(range(1, 1000))
    t_save = _time(lambda: mgr.save(next(steps), {"x": arr}), 3 * effort)
    t_load = _time(mgr.load_latest, 3 * effort)
    values["checkpoint.save_mb_s"] = mb / t_save
    values["checkpoint.load_mb_s"] = mb / t_load
    notes["checkpoint.save_mb_s"] = f"{mb:.1f} MB array, raw codec, sha256"


def probe_server(values, notes, effort, scratch):
    from repro.server.admission import TenantQuota
    from repro.server.jobs import JobSpec
    from repro.server.manager import JobManager, ServerConfig

    n = 200 * effort
    manager = JobManager(ServerConfig(   # never started: admission only
        work_dir=scratch / "admission", max_queue=n + 1,
        default_quota=TenantQuota(max_queued=n + 1)))
    spec = JobSpec(tenant="probe", kind="spmv", n=64, parts=2, iterations=2)
    t0 = now()
    for _ in range(n):
        if manager.submit(spec).state != "queued":
            raise AssertionError("admission probe: job not queued")
    values["server.submit_us"] = (now() - t0) / n * 1e6
    notes["server.submit_us"] = f"{n} submissions into one growing queue"


def run_probes(scratch: Path, effort: int = 1):
    """All probes; the process-forking ones run first, before any probe
    has started a thread."""
    scratch.mkdir(parents=True, exist_ok=True)
    values: dict[str, float] = {}
    notes: dict[str, str] = {}
    shape = make("ooc_read")
    side = shape.n // shape.k
    block = random_block(side, side, shape.nnz_per_row,
                         np.random.default_rng(0), 1.0)
    from repro.spmv.csrfile import serialize_csr
    raw = np.frombuffer(serialize_csr(block), dtype=np.uint8)

    probe_procplane(values, notes, effort)
    probe_empty_run(values, notes, effort, scratch)
    probe_shm(values, notes, effort)
    probe_iofilter(values, notes, effort, scratch, raw)
    probe_codecs(values, notes, effort, raw)
    probe_spmv(values, notes, effort, block, raw)
    probe_storage(values, notes, effort)
    probe_opcache(values, notes, effort)
    probe_checkpoint(values, notes, effort, scratch, raw)
    probe_server(values, notes, effort, scratch)
    probe_datacutter(values, notes, effort)
    return values, notes
