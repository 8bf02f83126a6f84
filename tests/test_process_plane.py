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
from pathlib import Path

import numpy as np
import pytest

from repro.core import DOoCEngine, DoocError, Program, StorageError
from repro.core.shm import (
    BlockHandle,
    SegmentLeakError,
    SegmentPool,
    attach_view,
    dev_shm_segments,
)
from repro.spmv.generator import choose_gap_parameter, gap_uniform_csr
from repro.spmv.partition import GridPartition
from repro.spmv.program import build_iterated_spmv
from repro.spmv.reference import iterated_spmv_reference


def _total(report, name):
    return sum(per.get(name, 0) for per in report.metrics.values())


def scale_fn(ins, outs, meta):
    (in_name,) = list(ins)
    (out_name,) = list(outs)
    outs[out_name][:] = ins[in_name] * 2.0


def write_input_fn(ins, outs, meta):
    ins["x"][:] = 0.0  # must raise: sealed buffers are frozen everywhere


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
    def test_allocate_free_unlinks(self):
        pool = SegmentPool(tag="t1")
        name = pool.allocate(64)
        assert name in dev_shm_segments()
        pool.free(name)
        assert name not in dev_shm_segments()
        pool.close()

    def test_lease_defers_unlink_until_release(self):
        pool = SegmentPool(tag="t2")
        name = pool.allocate(64)
        pool.lease(name)
        pool.free(name)
        # Freed but leased: the name must survive (an in-flight task may
        # still attach by name).
        assert name in dev_shm_segments()
        pool.release(name)
        assert name not in dev_shm_segments()
        pool.close()

    def test_release_underflow_rejected(self):
        pool = SegmentPool(tag="t3")
        name = pool.allocate(8)
        with pytest.raises(StorageError, match="underflow"):
            pool.release(name)
        pool.close()

    def test_assert_clean_names_leaked_leases(self):
        pool = SegmentPool(tag="t4")
        name = pool.allocate(8)
        pool.lease(name)
        with pytest.raises(SegmentLeakError, match=name):
            pool.assert_clean()
        pool.release(name)
        pool.assert_clean()
        pool.close()

    def test_close_is_idempotent_and_unlinks_everything(self):
        pool = SegmentPool(tag="t5")
        names = [pool.allocate(16) for _ in range(3)]
        pool.close()
        pool.close()
        for name in names:
            assert name not in dev_shm_segments()

    def test_attach_view_is_readonly_by_default(self):
        pool = SegmentPool(tag="t6")
        name = pool.allocate(8 * 8)
        out = pool.ndarray(name, 8, "float64")
        out[:] = np.arange(8.0)
        handle = BlockHandle(segment=name, offset=0, count=8, dtype="float64")
        view = attach_view(handle)
        np.testing.assert_array_equal(view, np.arange(8.0))
        with pytest.raises(ValueError):
            view[:] = 0.0
        del view, out
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
        assert dev_shm_segments() == []

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
        assert dev_shm_segments() == []

    def test_segments_unlinked_after_normal_teardown(self, tmp_path):
        prog, want = _chain_program()
        eng = DOoCEngine(n_nodes=1, workers=2,
                         scratch_dir=tmp_path, worker_plane="process")
        try:
            eng.run(prog, timeout=60)
            # The run's finally already unlinked every segment and audited
            # the leases; fetch still reads the sealed views.
            assert dev_shm_segments() == []
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
        assert dev_shm_segments() == []


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
        assert dev_shm_segments() == []


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
        assert dev_shm_segments() == []


class TestWorkerCrashRecovery:
    def test_sigkilled_worker_is_respawned_and_task_retried(self, tmp_path):
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
            report = eng.run(prog, timeout=120)
            np.testing.assert_array_equal(eng.fetch("y"), x * 2.0)
        finally:
            eng.cleanup()
        assert _total(report, "worker_crashes") >= 1
        assert eng._proc_pool is None or eng._proc_pool.respawns >= 1
        # The crashed child died holding attachments; the parent owns the
        # lease lifecycle, so nothing survives in /dev/shm.
        assert dev_shm_segments() == []


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
        assert dev_shm_segments() == []
