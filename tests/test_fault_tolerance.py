"""Fault tolerance: the runtime must survive I/O and peer failures.

The fault seed is overridable via ``DOOC_FAULT_SEED`` so CI can sweep a
seed matrix over the same assertions (see .github/workflows/ci.yml).
"""

import os
import time

import numpy as np
import pytest

from repro.core import DOoCEngine, IOFailedError, Program, StallError
from repro.core.iofilter import array_path
from repro.core.shm import SEGMENT_PREFIX, dev_shm_segments
from repro.datacutter import FilterError
from repro.faults import FaultPlan, RetryPolicy
from repro.spmv.partition import GridPartition
from repro.spmv.program import build_iterated_spmv
from repro.spmv.reference import iterated_spmv_blocked_reference

#: this process's pool segments (a segment's name carries the pid that
#: made it): a suite running beside this one cannot fail the leak checks
OWN_SEGMENTS = f"{SEGMENT_PREFIX}-{os.getpid()}-"

FAULT_SEED = int(os.environ.get("DOOC_FAULT_SEED", "0"))


class StoreFaultsOnly(FaultPlan):
    """The plan's I/O faults, drawn for spills (``store``) only."""

    def io_fault(self, node, op, array, block, attempt):
        if op != "store":
            return None
        return super().io_fault(node, op, array, block, attempt)


#: three 4,096-element blocks and change: writing the fourth must spill
SPILL_BUDGET = 3 * 4096 * 8 + 256


def spilling_program():
    """``y0..y3`` (4,096 elements each) written from a 16-element ``x``,
    then ``z = y0 + y3``."""
    prog = Program("spilling")
    prog.initial_array("x", np.arange(16, dtype=float), home=0)
    for i in range(4):
        prog.array(f"y{i}", 4096)
        prog.add_task(f"t{i}", lambda ins, outs, m, y=f"y{i}", c=float(i):
                      outs[y].__setitem__(slice(None), ins["x"].sum() + c),
                      ["x"], [f"y{i}"])
    prog.array("z", 4096)
    prog.add_task("add", lambda ins, outs, m: outs["z"].__setitem__(
        slice(None), ins["y0"] + ins["y3"]), ["y0", "y3"], ["z"])
    return prog


def spmv_problem(n=512, k=4, seed=0):
    from repro.spmv.generator import choose_gap_parameter, gap_uniform_csr
    rng = np.random.default_rng(seed)
    p = GridPartition(n, k)
    global_m = gap_uniform_csr(n, n, choose_gap_parameter(n, 8.0), rng)
    return global_m, p, p.split_matrix(global_m), rng.normal(size=n)


class TestTransientIOFaults:
    def test_soak_iterated_spmv_bit_identical(self, tmp_path):
        """~5% transient I/O faults under real memory pressure (the tight
        budget forces spill/reload churn, so loads *and* stores are
        decision sites): same bits as the fault-free run.

        The correctness half holds for any seed; the metric half
        (``faults_injected > 0``) needs a seed whose plan draws at least
        one fault over this run's ~50 sites — true of the CI seed matrix
        (0, 1, 2), verified when it was chosen."""
        _, p, blocks, x0 = spmv_problem()

        def run(scratch, faults):
            result = build_iterated_spmv(
                blocks, p.split_vector(x0), iterations=4, n_nodes=2)
            eng = DOoCEngine(
                n_nodes=2, workers=2, scratch_dir=scratch,
                # under a node's share of A (~40 KB): reclaim drops clean
                # blocks before it spills, so only a budget this tight
                # leaves it live intermediates to spill
                memory_budget_per_node=1 << 15, faults=faults,
                io_retry=RetryPolicy(attempts=6, backoff_s=0.001))
            report = eng.run(result.program, timeout=180)
            return result.fetch_final(eng), report

        clean, clean_report = run(tmp_path / "clean", None)
        # Out of core, the engine's bits are the blocked reference's, and
        # spilling and reloading add no data-plane copy.
        assert np.array_equal(
            clean, iterated_spmv_blocked_reference(blocks, p, x0, 4))
        assert clean_report.total_spills > 0
        assert sum(m.get("bytes_copied", 0)
                   for m in clean_report.metrics.values()) == 0
        plan = FaultPlan(seed=FAULT_SEED, io_transient=0.05)
        faulty, report = run(tmp_path / "faulty", plan)
        # Injection perturbs timing only, never arithmetic: bit-identical.
        assert np.array_equal(clean, faulty)
        totals = {
            key: sum(m.get(key, 0) for m in report.metrics.values())
            for key in ("io_retries", "faults_injected")
        }
        assert totals["faults_injected"] > 0
        assert totals["io_retries"] >= totals["faults_injected"]

    def test_transient_spill_faults_alone_change_no_bits(self, tmp_path):
        """Spills that fail and then succeed on a retry: the same bits."""
        def run(scratch, faults):
            eng = DOoCEngine(
                n_nodes=1, workers=1, scratch_dir=scratch,
                memory_budget_per_node=SPILL_BUDGET, faults=faults,
                io_retry=RetryPolicy(attempts=8, backoff_s=0.001))
            report = eng.run(spilling_program(), timeout=60)
            return eng.fetch("z"), report

        clean, clean_report = run(tmp_path / "clean", None)
        assert clean_report.total_spills > 0
        np.testing.assert_array_equal(clean, np.full(4096, 2 * 120.0 + 3))
        faulty, report = run(tmp_path / "faulty",
                             StoreFaultsOnly(seed=FAULT_SEED, io_transient=0.5))
        assert np.array_equal(clean, faulty)
        assert report.total_spills == clean_report.total_spills
        retries = sum(m.get("io_retries", 0) for m in report.metrics.values())
        assert retries == sum(m.get("faults_injected", 0)
                              for m in report.metrics.values())

    def test_metrics_absent_without_faults(self, tmp_path):
        prog = Program("quiet", default_block_elems=32)
        prog.initial_array("x", np.ones(64), home=0)
        prog.array("y", 64)
        prog.add_task("t", lambda i, o, m: o["y"].__setitem__(
            slice(None), i["x"]), ["x"], ["y"])
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path)
        report = eng.run(prog, timeout=60)
        for m in report.metrics.values():
            assert m.get("faults_injected", 0) == 0
            assert m.get("io_retries", 0) == 0


class TestPermanentIOFaults:
    def test_poisoned_load_fails_fast_not_stall(self, tmp_path):
        """A truncated backing file must surface as a run failure (the
        I/O error propagated through ticket denial and task failure),
        never as a silent stall that only the watchdog timeout ends."""
        desc_len, block = 64, 32
        scratch = tmp_path / "node0"
        scratch.mkdir()
        prog = Program("poisoned", default_block_elems=block)
        prog.initial_from_scratch("ghost", desc_len, home=0)
        prog.array("y", desc_len)
        prog.add_task("t", lambda i, o, m: o["y"].__setitem__(
            slice(None), i["ghost"]), ["ghost"], ["y"])
        # Only block 0's file exists: block 1 is a missing (never-written)
        # block, which the I/O filter refuses to retry (retries cannot
        # conjure bytes).
        path = array_path(scratch, "ghost") / f"{0:08d}.blk"
        path.parent.mkdir()
        path.write_bytes(b"\x00" * (block * 8))
        eng = DOoCEngine(
            n_nodes=1, scratch_dir=tmp_path,
            io_retry=RetryPolicy(attempts=2, backoff_s=0.001),
            task_max_attempts=2)
        with pytest.raises(FilterError) as excinfo:
            eng.run(prog, timeout=60)
        assert not isinstance(excinfo.value, StallError)
        assert "never written" in str(excinfo.value.cause)

    def test_spill_that_fails_for_good_ends_the_run(self, tmp_path):
        """Every spill fails on every attempt.  The blocks that cannot be
        spilled stay resident and are not evicted again; once they leave
        too little of the budget for the write that waited on them, that
        write is denied, and the run fails through the task-retry path
        with the spill's error.  (The failed spill used to leave the write
        queued with nothing to wake it: a StallError at the timeout.)"""
        eng = DOoCEngine(
            n_nodes=1, workers=1, scratch_dir=tmp_path,
            memory_budget_per_node=SPILL_BUDGET,
            faults=StoreFaultsOnly(seed=FAULT_SEED, io_permanent=1.0),
            io_retry=RetryPolicy(attempts=2, backoff_s=0.001),
            task_max_attempts=2)
        start = time.monotonic()
        with pytest.raises(FilterError) as excinfo:
            eng.run(spilling_program(), timeout=60)
        assert time.monotonic() - start < 10
        assert not isinstance(excinfo.value, StallError)
        assert "injected permanent store fault" in str(excinfo.value.cause)

    def test_worker_sees_io_failed_error(self, tmp_path):
        """The denied ticket reaches the worker as IOFailedError (visible
        in the task-failure report), not as a bare hang."""
        plan = FaultPlan(seed=FAULT_SEED, io_permanent=1.0)
        prog = Program("doomed", default_block_elems=32)
        prog.initial_array("x", np.ones(32), home=0)
        prog.array("y", 32)
        prog.add_task("t", lambda i, o, m: o["y"].__setitem__(
            slice(None), i["x"]), ["x"], ["y"])
        eng = DOoCEngine(
            n_nodes=1, scratch_dir=tmp_path, faults=plan,
            io_retry=RetryPolicy(attempts=2, backoff_s=0.001),
            task_max_attempts=2)
        with pytest.raises(FilterError) as excinfo:
            eng.run(prog, timeout=60)
        assert IOFailedError.__name__ in str(excinfo.value.cause)


class TestTaskReexecution:
    def test_injected_crashes_recovered_locally(self, tmp_path):
        plan = FaultPlan(seed=FAULT_SEED, task_crash=0.4)
        prog = Program("crashy", default_block_elems=32)
        prog.initial_array("x", np.arange(128, dtype=float), home=0)
        prev = "x"
        for i in range(6):
            prog.array(f"y{i}", 128)
            prog.add_task(
                f"t{i}",
                lambda ins, outs, m, src=prev, dst=f"y{i}":
                    outs[dst].__setitem__(slice(None), ins[src] + 1),
                [prev], [f"y{i}"])
            prev = f"y{i}"
        # Generous attempt budget: at task_crash=0.4 a task would need a
        # 12-long crash streak in its (deterministic) draws to exhaust it.
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path, faults=plan,
                         task_max_attempts=12)
        report = eng.run(prog, timeout=120)
        np.testing.assert_array_equal(eng.fetch(prev), np.arange(128) + 6.0)
        crashes = sum(
            m.get("faults_injected_by_label", {}).get("task_crash", 0)
            for m in report.metrics.values())
        reexec = sum(m.get("task_reexecutions", 0)
                     for m in report.metrics.values())
        assert reexec == crashes  # every crash was retried, none leaked

    def test_reroute_to_second_node_after_local_exhaustion(self, tmp_path):
        import itertools
        calls = itertools.count()

        def flaky(ins, outs, meta):
            # Fails every attempt on the first node (task_max_attempts=3),
            # succeeds on the rerouted node's first attempt.
            if next(calls) < 3:
                raise RuntimeError("node-local poison")
            outs["y"][:] = ins["x"] + 1

        prog = Program("reroute", default_block_elems=64)
        prog.initial_array("x", np.arange(256, dtype=float), home=0)
        prog.array("y", 256)
        prog.array("z", 256)
        prog.add_task("flaky", flaky, ["x"], ["y"])
        prog.add_task("dbl", lambda i, o, m: o["z"].__setitem__(
            slice(None), i["y"] * 2), ["y"], ["z"])
        eng = DOoCEngine(n_nodes=2, scratch_dir=tmp_path,
                         task_max_attempts=3)
        report = eng.run(prog, timeout=120)
        assert report.assignment["flaky"] == 1  # moved off node 0
        np.testing.assert_array_equal(eng.fetch("y"), np.arange(256) + 1.0)
        # The downstream consumer found y at its new home.
        np.testing.assert_array_equal(
            eng.fetch("z"), (np.arange(256) + 1.0) * 2)

    def test_unrecoverable_task_raises_task_failure(self, tmp_path):
        def always(ins, outs, meta):
            raise RuntimeError("fails everywhere")

        prog = Program("hopeless", default_block_elems=32)
        prog.initial_array("x", np.ones(32), home=0)
        prog.array("y", 32)
        prog.add_task("t", always, ["x"], ["y"])
        eng = DOoCEngine(n_nodes=2, scratch_dir=tmp_path,
                         task_max_attempts=2)
        with pytest.raises(FilterError) as excinfo:
            eng.run(prog, timeout=60)
        assert not isinstance(excinfo.value, StallError)
        assert "fails everywhere" in str(excinfo.value.cause)


class TestPeerFaults:
    def test_dropped_and_delayed_messages_recovered(self, tmp_path):
        prog = Program("peers", default_block_elems=64)
        prog.initial_array("x", np.arange(256, dtype=float), home=0)
        # The big input pins the task to node 1; x must be fetched from
        # node 0 over the faulty peer links.
        prog.initial_array("big", np.ones(4096), home=1)
        prog.array("y", 256)

        def fn(ins, outs, meta):
            outs["y"][:] = ins["x"] + ins["big"][:256]

        prog.add_task("mix", fn, ["big", "x"], ["y"])
        plan = FaultPlan(seed=FAULT_SEED, peer_drop=0.3, peer_delay=0.2)
        eng = DOoCEngine(n_nodes=2, scratch_dir=tmp_path, faults=plan)
        report = eng.run(prog, timeout=120)
        assert report.assignment["mix"] == 1
        np.testing.assert_array_equal(eng.fetch("y"), np.arange(256) + 1.0)
        injected = sum(m.get("faults_injected", 0)
                       for m in report.metrics.values())
        recovered = sum(
            m.get("fetch_retransmits", 0) + m.get("lookup_retransmits", 0)
            + m.get("lookup_restarts", 0)
            for m in report.metrics.values())
        drops = sum(
            m.get("faults_injected_by_label", {}).get("peer_drop", 0)
            for m in report.metrics.values())
        assert injected > 0
        if drops:  # delays heal by waiting; drops need retransmission
            assert recovered > 0


class TestFaultsAcrossPlanesAndCodecs:
    @pytest.mark.parametrize("codec", [None, "zlib"])
    @pytest.mark.parametrize("worker_plane", ["thread", "process"])
    def test_mixed_plan_bit_identical_on_every_plane_and_codec(
            self, tmp_path, worker_plane, codec):
        """I/O, peer and task faults together, on both worker planes and
        through both block containers: the bits of the blocked reference,
        no data-plane copy, and nothing left behind in /dev/shm."""
        iterations = 6
        _, p, blocks, x0 = spmv_problem(n=1536, k=2)
        result = build_iterated_spmv(
            blocks, p.split_vector(x0), iterations, n_nodes=2)
        plan = FaultPlan(seed=FAULT_SEED, io_transient=0.05,
                         peer_drop=0.02, task_crash=0.02)
        eng = DOoCEngine(n_nodes=2, scratch_dir=tmp_path, faults=plan,
                         worker_plane=worker_plane, codec=codec)
        try:
            report = eng.run(result.program, timeout=300)
            got = result.fetch_final(eng)
        finally:
            eng.cleanup()
        want = iterated_spmv_blocked_reference(blocks, p, x0, iterations)
        assert np.array_equal(got, want)
        metrics = report.metrics.values()
        assert sum(m.get("bytes_copied", 0) for m in metrics) == 0
        # Every injected crash was retried where it happened (seeds 0 and
        # 2 of the CI matrix draw one at these rates, seed 1 draws none).
        crashes = sum(
            m.get("faults_injected_by_label", {}).get("task_crash", 0)
            for m in metrics)
        assert sum(m.get("task_reexecutions", 0) for m in metrics) == crashes
        assert dev_shm_segments(prefix=OWN_SEGMENTS) == []
