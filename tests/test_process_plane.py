"""The multi-process worker plane: shared-memory segments, envelopes,
crash cleanup.

Everything here runs the real engine with ``worker_plane="process"`` —
real forked workers, real /dev/shm segments — and asserts the plane
preserves the thread plane's contracts: bit-identical results, zero
deterministic copies for single-span operands, frozen input buffers
across the process boundary, and (the part threads get for free) no
leaked segments after any run, including one whose worker was SIGKILLed
mid-task.
"""

import os
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    DOoCEngine,
    DoocError,
    Program,
    StorageError,
    TaskFailedError,
)
from repro.core import iofilter
from repro.core.procplane import ProcessWorkerPool, build_envelope
from repro.core.storage import LocalStore
from repro.core.task import run_task_body
from repro.datacutter import FilterError
from repro.faults import FaultPlan, RetryPolicy
from repro.obs import Tracer
from repro.core.shm import (
    SEGMENT_PREFIX,
    SLAB_BYTES,
    SMALL_BLOCK_BYTES,
    BlockHandle,
    SegmentLeakError,
    SegmentPool,
    attach_view,
    detach_all,
    dev_shm_segments,
)
from repro.spmv.generator import choose_gap_parameter, gap_uniform_csr
from repro.spmv.partition import GridPartition
from repro.spmv.program import build_iterated_spmv
from repro.spmv.reference import iterated_spmv_reference

#: this process's pool segments (a segment's name carries the pid that
#: made it): a suite running beside this one cannot fail the leak checks
OWN_SEGMENTS = f"{SEGMENT_PREFIX}-{os.getpid()}-"


FAULT_SEED = int(os.environ.get("DOOC_FAULT_SEED", "0"))


def _total(report, name):
    return sum(per.get(name, 0) for per in report.metrics.values())


def scale_fn(ins, outs, meta):
    (in_name,) = list(ins)
    (out_name,) = list(outs)
    outs[out_name][:] = ins[in_name] * 2.0


def shift_fn(ins, outs, meta):
    (in_name,) = list(ins)
    (out_name,) = list(outs)
    outs[out_name][:] = ins[in_name] + 1.0


def fan_out_fn(ins, outs, meta):
    outs["y"][:] = ins["x"] * 2.0
    outs["z"][:] = ins["x"] + 1.0


def write_input_fn(ins, outs, meta):
    ins["x"][:] = 0.0  # must raise: sealed buffers are frozen everywhere


def scribble_fn(ins, outs, meta):
    outs["y"][:] = 1.0
    ins["x"][0] = 0  # must raise, however many blocks "x" has


def saxpy_fn(ins, outs, meta):
    outs["y"][:] = 2.0 * ins["x"] + ins["b"]


def crash_once_fn(ins, outs, meta):
    """SIGKILL this worker process on the first attempt, then compute."""
    flag = Path(meta["crash_flag"])
    if not flag.exists():
        flag.write_text("x")
        os.kill(os.getpid(), signal.SIGKILL)
    outs["y"][:] = ins["x"] * 2.0


def _chain_program(n=64, links=3, block_elems=64):
    prog = Program("chain", default_block_elems=block_elems)
    x = np.arange(n, dtype=float)
    prog.initial_array("a0", x)
    for i in range(links):
        prog.array(f"a{i+1}", n)
        prog.add_task(f"t{i}", scale_fn, [f"a{i}"], [f"a{i+1}"])
    return prog, x * 2.0 ** links


# -- SegmentPool / BlockHandle unit behavior ---------------------------------


class TestSegmentPool:
    """A block key is not a segment name: small blocks share a slab, and
    what is linked in /dev/shm, leased and unlinked is the *segment*."""

    def test_allocate_free_unlinks(self):
        pool = SegmentPool(tag="t1")
        a, b = pool.allocate(64), pool.allocate(64)
        (slab, off_a), (slab_b, off_b) = pool.locate(a), pool.locate(b)
        assert slab == slab_b and off_a != off_b  # one segment, two spans
        assert not {a, b} & set(dev_shm_segments(prefix=OWN_SEGMENTS))
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == [slab] and pool.created == 1
        pool.free(a)
        pool.free(b)
        # Empty, but still the slab the next small block is carved from.
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == [slab]
        # A block of a quarter slab or more has a segment to itself, named
        # by its key, and takes it along when it goes.
        big = pool.allocate(SMALL_BLOCK_BYTES)
        assert pool.locate(big) == (big, 0)
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == sorted([slab, big])
        pool.free(big)
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == [slab]
        # The slab goes once it is full (closed to new blocks) and empty.
        fill = [pool.allocate(SMALL_BLOCK_BYTES - 64) for _ in range(5)]
        assert pool.locate(fill[-1])[0] != slab
        assert slab in dev_shm_segments(prefix=OWN_SEGMENTS)  # closed, but not empty yet
        for key in fill[:-1]:
            pool.free(key)
        assert slab not in dev_shm_segments(prefix=OWN_SEGMENTS)
        pool.close()
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []

    def test_lease_defers_unlink_until_release(self):
        pool = SegmentPool(tag="t2")
        key = pool.allocate(SMALL_BLOCK_BYTES)
        segment, _ = pool.locate(key)
        pool.lease(segment)
        pool.free(key)
        # Freed but leased: the name must survive (an in-flight task may
        # still attach by name).
        assert segment in dev_shm_segments(prefix=OWN_SEGMENTS)
        pool.release(segment)
        assert segment not in dev_shm_segments(prefix=OWN_SEGMENTS)
        # The same for a slab, which a lease on any of its blocks pins.
        small = pool.allocate(64)
        slab, _ = pool.locate(small)
        pool.lease(slab)
        pool.free(small)
        for _ in range(5):  # roll the pool over to a new slab
            pool.free(pool.allocate(SMALL_BLOCK_BYTES - 64))
        assert slab in dev_shm_segments(prefix=OWN_SEGMENTS)
        pool.release(slab)
        assert slab not in dev_shm_segments(prefix=OWN_SEGMENTS)
        pool.close()

    def test_release_underflow_rejected(self):
        pool = SegmentPool(tag="t3")
        segment, _ = pool.locate(pool.allocate(8))
        with pytest.raises(StorageError, match="underflow"):
            pool.release(segment)
        with pytest.raises(StorageError, match="cannot lease"):
            pool.lease(segment + "+0")  # a block key is not leasable
        pool.close()

    def test_assert_clean_names_leaked_leases(self):
        pool = SegmentPool(tag="t4")
        segment, _ = pool.locate(pool.allocate(8))
        pool.lease(segment)
        with pytest.raises(SegmentLeakError, match=segment):
            pool.assert_clean()
        pool.release(segment)
        pool.assert_clean()
        pool.close()

    def test_close_is_idempotent_and_unlinks_everything(self):
        pool = SegmentPool(tag="t5")
        keys = [pool.allocate(16) for _ in range(3)]
        keys.append(pool.allocate(SMALL_BLOCK_BYTES))
        assert len(dev_shm_segments(prefix=OWN_SEGMENTS)) == 2
        pool.close()
        pool.close()
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []
        with pytest.raises(StorageError, match="not in pool"):
            pool.locate(keys[0])
        with pytest.raises(StorageError, match="closed"):
            pool.allocate(16)

    def test_attach_view_is_readonly_by_default(self):
        pool = SegmentPool(tag="t6")
        pool.allocate(24)  # so the block under test sits at an offset
        key = pool.allocate(8 * 8)
        out = pool.ndarray(key, 8, "float64")
        assert not out.any()  # never handed out before: still zero
        out[:] = np.arange(8.0)
        with pytest.raises(StorageError, match="does not fit"):
            pool.ndarray(key, 9, "float64")
        segment, offset = pool.locate(key)
        assert offset > 0 and offset % 64 == 0
        handle = BlockHandle(segment=segment, offset=offset, count=8,
                             dtype="float64")
        view = attach_view(handle)
        np.testing.assert_array_equal(view, np.arange(8.0))
        with pytest.raises(ValueError):
            view[:] = 0.0
        del view, out
        detach_all()
        pool.close()


# -- engine construction -----------------------------------------------------


class TestEngineConfig:
    def test_unknown_worker_plane_rejected(self):
        with pytest.raises(DoocError, match="worker_plane"):
            DOoCEngine(n_nodes=1, worker_plane="fiber")


# -- end-to-end behavior ------------------------------------------------------


class TestProcessPlaneEndToEnd:
    def _spmv(self, tmp_path, worker_plane, n=64, k=2, iterations=3):
        rng = np.random.default_rng(7)
        p = GridPartition(n, k)
        d = choose_gap_parameter(n, 6.0)
        global_m = gap_uniform_csr(n, n, d, rng)
        x0 = rng.normal(size=n)
        result = build_iterated_spmv(
            p.split_matrix(global_m), p.split_vector(x0),
            iterations=iterations, n_nodes=2)
        eng = DOoCEngine(n_nodes=2, workers=2,
                         scratch_dir=tmp_path / worker_plane,
                         worker_plane=worker_plane)
        try:
            report = eng.run(result.program, timeout=120)
            got = result.fetch_final(eng)
        finally:
            eng.cleanup()
        want = iterated_spmv_reference(global_m, x0, iterations)
        np.testing.assert_allclose(got, want, rtol=1e-9)
        return report, got

    def test_bit_identical_to_thread_plane_and_zero_copies(self, tmp_path):
        thread_report, thread_x = self._spmv(tmp_path, "thread")
        process_report, process_x = self._spmv(tmp_path, "process")
        # Bit-identity, not closeness: both planes run the same kernels
        # over the same (shared or heap) sealed bytes.
        np.testing.assert_array_equal(thread_x, process_x)
        # Single-block arrays end to end: handles cover whole spans, so
        # the process plane introduces no new deterministic copies.
        assert _total(process_report, "bytes_copied") == 0
        # Per-process operand caches hit once each sub-matrix is decoded.
        assert _total(process_report, "opcache_hits") > 0
        assert _total(process_report, "process_plane_fallbacks", ) == 0
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []

    def test_out_of_core_run_stays_zero_copy(self, tmp_path):
        # 8 x 32 KiB arrays through a ~64 KiB budget: spills and segment
        # reloads, with readinto landing file bytes straight in shm.
        n = 4096
        prog = Program("ooc", default_block_elems=n)
        x = np.arange(n, dtype=float)
        prog.initial_array("a0", x)
        for i in range(8):
            prog.array(f"a{i+1}", n)
            prog.add_task(f"t{i}", scale_fn, [f"a{i}"], [f"a{i+1}"])
        eng = DOoCEngine(n_nodes=1, workers=1,
                         memory_budget_per_node=64 * 1024 + 1024,
                         scratch_dir=tmp_path, worker_plane="process")
        try:
            report = eng.run(prog, timeout=120)
            np.testing.assert_array_equal(eng.fetch("a8"), x * 256.0)
        finally:
            eng.cleanup()
        assert report.total_spills > 0
        assert _total(report, "bytes_copied") == 0
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []

    def test_out_of_core_churn_keeps_slack_under_a_slab(self, tmp_path):
        # 3 MiB of 32 KiB blocks written, spilled and read back through
        # room for two of them: the pool goes through three slabs and more,
        # and an old slab must go as its blocks do — what it keeps backed
        # beyond the live blocks stays under one slab per node.
        n, links = 4096, 96
        prog = Program("churn", default_block_elems=n)
        x = np.arange(n, dtype=float)
        prog.initial_array("a0", x)
        for i in range(links):
            prog.array(f"a{i+1}", n)
            prog.add_task(f"t{i}", shift_fn, [f"a{i}"], [f"a{i+1}"])
        eng = DOoCEngine(n_nodes=1, workers=1,
                         memory_budget_per_node=64 * 1024 + 1024,
                         scratch_dir=tmp_path, worker_plane="process")
        try:
            report = eng.run(prog, timeout=120)
            np.testing.assert_array_equal(eng.fetch(f"a{links}"), x + links)
        finally:
            eng.cleanup()
        assert report.total_spills > 0
        assert _total(report, "bytes_copied") == 0
        pool = report.metrics[-1]
        assert 3 <= pool["shm_segments_created"] <= 8
        assert 0 < pool["shm_slack_peak_bytes"] < 1 * SLAB_BYTES
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []

    def test_segments_unlinked_after_normal_teardown(self, tmp_path):
        prog, want = _chain_program()
        eng = DOoCEngine(n_nodes=1, workers=2,
                         scratch_dir=tmp_path, worker_plane="process")
        try:
            eng.run(prog, timeout=60)
            # The run's finally already unlinked every segment and audited
            # the leases; fetch still reads the sealed views.
            assert dev_shm_segments(prefix=OWN_SEGMENTS) == []
            assert eng._segment_pool.lease_counts() == {}
            np.testing.assert_array_equal(eng.fetch("a3"), want)
        finally:
            eng.cleanup()

    def test_multiple_runs_reuse_one_engine(self, tmp_path):
        eng = DOoCEngine(n_nodes=1, workers=2,
                         scratch_dir=tmp_path, worker_plane="process")
        try:
            for _ in range(3):
                prog, want = _chain_program()
                eng.run(prog, timeout=60)
                np.testing.assert_array_equal(eng.fetch("a3"), want)
        finally:
            eng.cleanup()
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []


    def test_runs_leave_no_descriptors_open(self, tmp_path):
        """Every segment used to leave one descriptor open for the life of
        the process (two until the next collection), in the engine's
        process and in each worker: a 960-task run could not finish under
        the usual limit of 1024.  Under a limit of 256, 151 segments a run
        did not fit once; now any number of runs do."""
        import gc
        import resource

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        def one_run(scratch):
            prog, want = _chain_program(links=150)
            eng = DOoCEngine(n_nodes=1, workers=2,
                             scratch_dir=scratch, worker_plane="process")
            try:
                eng.run(prog, timeout=120)
                np.testing.assert_array_equal(eng.fetch("a150"), want)
            finally:
                eng.cleanup()

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        resource.setrlimit(resource.RLIMIT_NOFILE, (256, hard))
        try:
            one_run(tmp_path / "warm")  # starts the resource tracker
            gc.collect()
            before = open_fds()
            for i in range(2):
                one_run(tmp_path / f"run{i}")
                gc.collect()
                assert open_fds() == before
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []


class TestFrozenAcrossProcesses:
    def test_child_writing_an_input_fails_the_task(self, tmp_path):
        prog = Program("frozen", default_block_elems=64)
        prog.initial_array("x", np.ones(64))
        prog.array("y", 64)
        prog.add_task("bad", write_input_fn, ["x"], ["y"])
        eng = DOoCEngine(n_nodes=1, workers=1,
                         scratch_dir=tmp_path, worker_plane="process")
        try:
            with pytest.raises(Exception, match="read-only"):
                eng.run(prog, timeout=60)
        finally:
            eng.cleanup()
        # Even the failed run must not leak /dev/shm entries.
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []


@pytest.mark.parametrize("blocks", [1, 4])
@pytest.mark.parametrize("plane", ["thread", "process"])
class TestInputsAreFrozenEverywhere:
    """What a body may do to an input depends on neither the plane nor the
    layout: a one-block input is a sealed view, a multi-block one is
    gathered into a buffer frozen like it."""

    def test_a_body_writing_an_input_fails_the_task(
            self, tmp_path, plane, blocks):
        prog = Program("scribble", default_block_elems=64 // blocks)
        prog.initial_array("x", np.ones(64))
        prog.array("y", 64)
        prog.add_task("bad", scribble_fn, ["x"], ["y"])
        tracer = Tracer(enabled=True)
        eng = DOoCEngine(n_nodes=1, workers=1, scratch_dir=tmp_path,
                         worker_plane=plane, trace=tracer,
                         task_max_attempts=2)
        try:
            with pytest.raises(FilterError, match="ValueError.*read-only") \
                    as failure:
                eng.run(prog, timeout=60)
            assert isinstance(failure.value.cause, TaskFailedError)
            # Reported, retried here, then escalated: the normal path.
            names = [e.name for e in tracer.events()]
            assert names.count("task_failed") == 2
            assert names.count("task_retry") == 1
            assert names.count("task_escalate") == 1
            metrics = eng.stores[0].metrics.as_dict()
            assert metrics["writes_abandoned"] == 2 * blocks
            assert metrics.get("process_plane_fallbacks", 0) == 0
            # What the body wrote before it failed was never published.
            with pytest.raises(DoocError, match="never produced"):
                eng.fetch("y")
        finally:
            eng.cleanup()
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []


class TestOneRunnerForBothPlanes:
    """``run_task_body`` on plain arrays (the thread plane's tickets) and
    the same operands as ``BlockHandle``s in a real worker process: the
    same bytes out, the same ``bytes_copied``."""

    @pytest.mark.parametrize("x_blocks, y_blocks, copied", [
        (1, 1, 0), (3, 1, 48 * 8), (1, 3, 48 * 8)])
    def test_same_bytes_same_copies(self, x_blocks, y_blocks, copied):
        n = 48
        x, b = np.arange(n, dtype=float), np.full(n, 0.5)
        pool = SegmentPool(tag="parity")
        workers = ProcessWorkerPool(1, 1, 0)
        workers.start()
        try:
            def shared(values, blocks, writable=False):
                """``values`` as ``blocks`` equal spans of shared memory:
                the parent's views and the handles a child maps."""
                views, handles = [], []
                for part in np.split(values, blocks):
                    key = pool.allocate(part.nbytes)
                    view = pool.ndarray(key, len(part), "float64")
                    view[:] = part
                    view.flags.writeable = writable
                    segment, offset = pool.locate(key)
                    views.append(view)
                    handles.append(BlockHandle(
                        segment=segment, offset=offset, count=len(part),
                        dtype="float64"))
                return views, handles

            x_views, x_handles = shared(x, x_blocks)
            b_views, b_handles = shared(b, 1)
            y_views, y_handles = shared(np.zeros(n), y_blocks, writable=True)
            plain = [np.zeros(n // y_blocks) for _ in range(y_blocks)]
            here = run_task_body(
                saxpy_fn, {}, {"x": [v.copy() for v in x_views],
                               "b": [v.copy() for v in b_views]},
                {"y": plain})
            bounds = np.arange(y_blocks + 1) * (n // y_blocks)
            reply = workers.run_envelope(0, 0, build_envelope(
                saxpy_fn, {}, {"x": x_handles, "b": b_handles},
                {"y": {"dtype": "float64", "lo": 0, "hi": n,
                       "parts": list(zip(y_handles, bounds, bounds[1:]))}},
                {"x": (0,) * x_blocks, "b": (0,)}))
            assert reply == {"ok": True, "bytes_copied": copied}
            assert here == copied
            want = (2.0 * x + b).tobytes()
            assert np.concatenate(plain).tobytes() == want
            assert np.concatenate(y_views).tobytes() == want
            del x_views, b_views, y_views
        finally:
            workers.shutdown()
            pool.close()
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []


class TestWorkerCrashRecovery:
    def test_sigkilled_worker_is_respawned_and_task_retried(
            self, tmp_path, protocol_checkers):
        prog = Program("crashy", default_block_elems=64)
        x = np.arange(64, dtype=float)
        prog.initial_array("x", x)
        prog.array("y", 64)
        prog.add_task("boom", crash_once_fn, ["x"], ["y"],
                      crash_flag=str(tmp_path / "crashed.flag"))
        eng = DOoCEngine(n_nodes=1, workers=1,
                         scratch_dir=tmp_path / "scratch",
                         worker_plane="process")
        try:
            # Under the auditor a lease (or a ticket) that outlived the
            # run raises here; the child died holding both attached.
            report = eng.run(prog, timeout=120)
            assert eng._segment_pool.lease_counts() == {}
            assert dev_shm_segments(prefix=OWN_SEGMENTS) == []
            np.testing.assert_array_equal(eng.fetch("y"), x * 2.0)
        finally:
            eng.cleanup()
        assert _total(report, "worker_crashes") >= 1
        assert eng._proc_pool is None or eng._proc_pool.respawns >= 1
        # The crashed child died holding attachments; the parent owns the
        # lease lifecycle, so nothing survives in /dev/shm.
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []


@pytest.mark.parametrize("plane", ["thread", "process"])
class TestAcquireUnwinds:
    """A task asks for all its intervals at once, so a refusal arrives
    among grants.  Whatever was granted beside it must go back — reads
    released, writes abandoned, every reply consumed — before the attempt
    is reported failed; the ticket auditor (and on the process plane the
    lease audit) fails the run otherwise, and a reply left unread would
    answer the retry's request with the wrong tickets."""

    def _program(self):
        prog = Program("fan", default_block_elems=64)
        x = np.arange(64, dtype=float)
        prog.initial_array("x", x)
        prog.array("y", 64)
        prog.array("z", 64)
        prog.add_task("fan", fan_out_fn, ["x"], ["y", "z"])
        return prog, x

    def _run(self, tmp_path, plane, **engine_args):
        prog, x = self._program()
        eng = DOoCEngine(n_nodes=1, workers=1, scratch_dir=tmp_path,
                         worker_plane=plane, trace=True, **engine_args)
        try:
            report = eng.run(prog, timeout=120)
            np.testing.assert_array_equal(eng.fetch("y"), x * 2.0)
            np.testing.assert_array_equal(eng.fetch("z"), x + 1.0)
        finally:
            eng.cleanup()
        assert _total(report, "task_reexecutions") == 1
        # z's write was granted beside the refusal, and taken back.
        assert _total(report, "writes_abandoned") >= 1
        assert _total(report, "process_plane_fallbacks") == 0
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []
        return report

    def test_a_rejected_interval_among_grants(
            self, tmp_path, plane, protocol_checkers, monkeypatch):
        # What a re-dispatched task's write does when it overtakes its
        # output's rehome: the store refuses it outright.  Here, once.
        real, refused = LocalStore.request_write, []

        def refuse_y_once(store, interval):
            if interval.array == "y" and not refused:
                refused.append(interval)
                raise StorageError("cannot write remote-homed array 'y'")
            return real(store, interval)

        monkeypatch.setattr(LocalStore, "request_write", refuse_y_once)
        report = self._run(tmp_path, plane)
        assert len(refused) == 1
        names = [e.name for e in report.trace_events]
        assert names.count("request_rejected") == 1
        assert names.count("task_failed") == 1

    def test_a_read_that_fails_past_the_retry_budget(
            self, tmp_path, plane, protocol_checkers, monkeypatch):
        # x's first two loads fail on each of their two attempts.  The
        # first is the scheduler's prefetch, which nobody waits for; the
        # second is the task's own read, denied after its writes were
        # granted.  The retry loads x.
        failures, lock = [], threading.Lock()

        def hiccup(real):
            def read(scratch, desc, *args, **kwargs):
                with lock:
                    if desc.name == "x" and len(failures) < 4:
                        failures.append(desc.name)
                        raise OSError("injected: disk hiccup")
                return real(scratch, desc, *args, **kwargs)
            return read

        # (the thread plane reads through the first, segments are filled
        # through the second)
        monkeypatch.setattr(iofilter, "read_block",
                            hiccup(iofilter.read_block))
        monkeypatch.setattr(iofilter, "read_block_into",
                            hiccup(iofilter.read_block_into))
        report = self._run(
            tmp_path, plane,
            io_retry=RetryPolicy(attempts=2, backoff_s=0.001))
        assert len(failures) == 4
        assert _total(report, "load_failures") == 2
        assert _total(report, "writes_abandoned") == 2

    def test_seeded_task_crashes_leave_nothing_behind(
            self, tmp_path, plane, protocol_checkers):
        # Crashes injected after the grants arrive, by the CI seed matrix's
        # plan: each failed attempt hands everything back, and the bits are
        # the fault-free run's.
        def run(scratch, faults):
            prog, want = _chain_program(links=12)
            eng = DOoCEngine(n_nodes=1, workers=2, scratch_dir=scratch,
                             worker_plane=plane, faults=faults,
                             task_max_attempts=8)
            try:
                report = eng.run(prog, timeout=120)
                got = eng.fetch("a12")
            finally:
                eng.cleanup()
            np.testing.assert_array_equal(got, want)
            return report

        clean = run(tmp_path / "clean", None)
        assert _total(clean, "task_reexecutions") == 0
        crashy = run(tmp_path / "crashy",
                     FaultPlan(seed=FAULT_SEED, task_crash=0.3))
        assert _total(crashy, "task_reexecutions") == _total(
            crashy, "writes_abandoned") > 0
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []


def _refuse_to_be_rebuilt():
    raise RuntimeError("this object cannot be rebuilt")


class _Unbuildable:
    """Pickles in the parent; raises when the child unpickles it."""

    def __reduce__(self):
        return (_refuse_to_be_rebuilt, ())


class TestAnEnvelopeTheChildCannotRebuild:
    def test_the_task_fails_by_name_and_the_child_lives(self, tmp_path):
        prog = Program("unbuildable", default_block_elems=64)
        prog.initial_array("x", np.ones(64))
        prog.array("y", 64)
        prog.add_task("odd", scale_fn, ["x"], ["y"], payload=_Unbuildable())
        eng = DOoCEngine(n_nodes=1, workers=1, scratch_dir=tmp_path,
                         worker_plane="process", task_max_attempts=2)
        pools = []
        start = ProcessWorkerPool.start

        def keep(pool):
            pools.append(pool)
            start(pool)

        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ProcessWorkerPool, "start", keep)
                with pytest.raises(
                        FilterError,
                        match="odd.*failed in worker process: "
                              "RuntimeError: this object cannot be "
                              "rebuilt") as failure:
                    eng.run(prog, timeout=60)
            assert isinstance(failure.value.cause, TaskFailedError)
            metrics = eng.stores[0].metrics.as_dict()
            assert metrics["task_reexecutions"] == 1
            assert "worker_crashes" not in metrics
            assert (pools[0].crashes, pools[0].respawns) == (0, 0)
        finally:
            eng.cleanup()
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []


class TestInlineFallback:
    def test_unpicklable_task_falls_back_to_inline(self, tmp_path):
        captured = []

        def closure_fn(ins, outs, meta):  # local def: cannot pickle
            captured.append(True)
            outs["y"][:] = ins["x"] + 1.0

        prog = Program("inline", default_block_elems=64)
        prog.initial_array("x", np.zeros(64))
        prog.array("y", 64)
        prog.add_task("t", closure_fn, ["x"], ["y"])
        eng = DOoCEngine(n_nodes=1, workers=1,
                         scratch_dir=tmp_path, worker_plane="process")
        try:
            report = eng.run(prog, timeout=60)
            np.testing.assert_array_equal(eng.fetch("y"), np.ones(64))
        finally:
            eng.cleanup()
        assert captured  # ran in-process
        assert _total(report, "process_plane_fallbacks") >= 1
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []
