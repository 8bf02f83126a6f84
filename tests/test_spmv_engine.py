"""End-to-end: iterated SpMV through the DOoC engine on real files/threads."""

import numpy as np
import pytest

from repro.core import DOoCEngine
from repro.spmv.csr import CSRBlock
from repro.spmv.generator import gap_uniform_csr
from repro.spmv.partition import GridPartition, column_owner
from repro.spmv.program import build_iterated_spmv
from repro.spmv.reference import (
    iterated_spmv_blocked_reference,
    iterated_spmv_reference,
    loads_back_and_forth_plan,
    loads_regular_plan,
)


def make_problem(n=60, k=3, seed=0, density_per_row=6.0):
    rng = np.random.default_rng(seed)
    p = GridPartition(n, k)
    from repro.spmv.generator import choose_gap_parameter
    d = choose_gap_parameter(n, density_per_row)
    import scipy.sparse as sp
    global_m = gap_uniform_csr(n, n, d, rng)
    blocks = p.split_matrix(global_m)
    x0 = rng.normal(size=n)
    return global_m, p, blocks, x0


class TestCorrectness:
    @pytest.mark.parametrize("policy", ["simple", "interleaved"])
    def test_single_node_matches_reference(self, tmp_path, policy):
        global_m, p, blocks, x0 = make_problem()
        result = build_iterated_spmv(
            blocks, p.split_vector(x0), iterations=3, n_nodes=1, policy=policy)
        eng = DOoCEngine(n_nodes=1, workers=2, scratch_dir=tmp_path)
        eng.run(result.program, timeout=120)
        got = result.fetch_final(eng)
        want = iterated_spmv_reference(global_m, x0, 3)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    @pytest.mark.parametrize("policy", ["simple", "interleaved"])
    def test_three_nodes_matches_reference(self, tmp_path, policy):
        global_m, p, blocks, x0 = make_problem(n=90, k=3, seed=1)
        result = build_iterated_spmv(
            blocks, p.split_vector(x0), iterations=2, n_nodes=3, policy=policy)
        eng = DOoCEngine(n_nodes=3, workers=2, scratch_dir=tmp_path)
        report = eng.run(result.program, timeout=180)
        got = result.fetch_final(eng)
        want = iterated_spmv_reference(global_m, x0, 2)
        np.testing.assert_allclose(got, want, rtol=1e-9)
        # Vectors крест columns: remote fetches must have happened.
        assert report.total_remote_fetches > 0

    def test_single_iteration_identity_blocks(self, tmp_path):
        # A = I partitioned 2x2: x1 must equal x0 exactly.
        import scipy.sparse as sp
        n, k = 16, 2
        p = GridPartition(n, k)
        blocks = p.split_matrix(CSRBlock.from_scipy(sp.identity(n, format="csr")))
        x0 = np.arange(n, dtype=float)
        result = build_iterated_spmv(blocks, p.split_vector(x0), iterations=1,
                                     n_nodes=1)
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path)
        eng.run(result.program, timeout=60)
        np.testing.assert_array_equal(result.fetch_final(eng), x0)

    def test_multi_block_vectors_end_to_end(self, tmp_path):
        """Vector arrays split across several storage blocks exercise the
        worker's gather/scatter path."""
        m, p, blocks, x0 = make_problem(n=120, density_per_row=8.0)
        result = build_iterated_spmv(
            blocks, p.split_vector(x0), iterations=2, n_nodes=1,
            vector_block_elems=16)  # 40-row parts -> 3 blocks each
        eng = DOoCEngine(n_nodes=1, workers=2, scratch_dir=tmp_path)
        eng.run(result.program, timeout=120)
        np.testing.assert_allclose(
            result.fetch_final(eng), iterated_spmv_reference(m, x0, 2),
            rtol=1e-9)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_results_identical_across_worker_counts(self, tmp_path, workers):
        """Scheduling nondeterminism must never change numerics."""
        m, p, blocks, x0 = make_problem(n=120, seed=2,
                                        density_per_row=8.0)
        result = build_iterated_spmv(blocks, p.split_vector(x0),
                                     iterations=2, n_nodes=1)
        eng = DOoCEngine(n_nodes=1, workers=workers,
                         scratch_dir=tmp_path / str(workers))
        eng.run(result.program, timeout=120)
        np.testing.assert_allclose(
            result.fetch_final(eng), iterated_spmv_reference(m, x0, 2),
            rtol=1e-9)


class TestFig5LoadCounts:
    """The back-and-forth schedule must emerge from the local scheduler."""

    def run_fig5(self, tmp_path, iterations, k=3):
        """One node owning a full k x k grid, memory for ~1 sub-matrix."""
        global_m, p, blocks, x0 = make_problem(n=30 * k, k=k, seed=2)
        result = build_iterated_spmv(
            blocks, p.split_vector(x0), iterations=iterations, n_nodes=1,
            policy="simple")
        a_bytes = max(
            len(__import__("repro.spmv.csrfile", fromlist=["serialize_csr"])
                .serialize_csr(b)) for b in blocks.values())
        # Budget: one sub-matrix + generous room for the (small) vectors.
        vec_bytes = 8 * p.n * (k + 2) * (iterations + 1)
        eng = DOoCEngine(
            n_nodes=1, workers=1,
            memory_budget_per_node=int(a_bytes * 1.5) + vec_bytes,
            scratch_dir=tmp_path,
        )
        report = eng.run(result.program, timeout=300)
        got = result.fetch_final(eng)
        want = iterated_spmv_reference(global_m, x0, iterations)
        np.testing.assert_allclose(got, want, rtol=1e-9)
        # Matrix loads: count loads of A_* arrays only. Store stats count all
        # loads; vectors spill too under this budget, so use per-array drops
        # via the load ledger below.
        return report

    def test_matrix_loads_saved_versus_regular_plan(self, tmp_path):
        iters = 3
        report = self.run_fig5(tmp_path, iterations=iters)
        k_local = 9  # all 9 sub-matrices on the single node
        # First-touch loads happen from disk; with LIFO+residency ordering
        # at least one sub-matrix per iteration transition is reused, so
        # total loads stay below the naive plan.
        regular = loads_regular_plan(k_local, iters)
        assert report.metrics[0]["loads"] < regular + 1  # sanity ceiling

    def test_back_and_forth_emerges_on_three_nodes(self, tmp_path):
        """Fig. 5's exact setting: 3 nodes, each owning one grid column,
        memory for one sub-matrix; per-node *matrix* loads must track the
        back-and-forth count (3 first iteration, ~2 after), not 3/iter."""
        iterations, k = 3, 3
        # 50x50 blocks of ~190 nonzeros (~5.5-6 KB serialized with 4-byte
        # indices) dwarf the 400 B vectors, so the budget below truly fits
        # only one sub-matrix.
        global_m, p, blocks, x0 = make_problem(n=150, k=k, seed=3,
                                               density_per_row=28.0)
        result = build_iterated_spmv(
            blocks, p.split_vector(x0), iterations=iterations, n_nodes=k,
            policy="simple", owner=column_owner(k, k))
        from repro.spmv.csrfile import serialize_csr
        a_bytes = max(len(serialize_csr(b)) for b in blocks.values())
        eng = DOoCEngine(
            n_nodes=k, workers=1,
            memory_budget_per_node=int(a_bytes * 1.5) + 3000,
            scratch_dir=tmp_path,
        )
        report = eng.run(result.program, timeout=300)
        np.testing.assert_allclose(
            result.fetch_final(eng),
            iterated_spmv_reference(global_m, x0, iterations), rtol=1e-9)
        matrix_loads = sum(
            count
            for metrics in report.metrics.values()
            for array, count in metrics["loads_by_label"].items()
            if array.startswith("A_")
        )
        naive = 3 * loads_regular_plan(k, iterations)            # 27
        back_and_forth = 3 * loads_back_and_forth_plan(k, iterations)  # 21
        # Tolerance -3/+0 (it was +-3 while a stall timer decided when a
        # non-resident task was forced).  Now the choice is made on
        # events, over the whole set of tasks one completion made ready,
        # so it never does worse than Fig. 5b's plan: 70 runs, half of
        # them beside a CPU hog, gave 18 (35x), 19 (32x) and 20 (3x).  It
        # does better by up to one load per node when the order in which
        # the reduced vectors arrive lets two iterations share a
        # sub-matrix while it is resident.
        assert matrix_loads < naive
        assert back_and_forth - 3 <= matrix_loads <= back_and_forth


class TestDispatchCostDoesNotGrowWithTheProgram:
    """Before each dispatch the local scheduler asks the store which inputs
    of its ready tasks are resident.  What the store reads to answer must
    follow the ready set, not the number of arrays the program declares:
    the same shape run for twice as many iterations declares twice as many
    arrays and has the same ready sets.  Counts, never seconds."""

    def examined_per_dispatch(self, scratch, iterations):
        global_m, p, blocks, x0 = make_problem(n=60, k=3, seed=4)
        result = build_iterated_spmv(
            blocks, p.split_vector(x0), iterations=iterations, n_nodes=1,
            policy="simple")
        eng = DOoCEngine(n_nodes=1, workers=2, scratch_dir=scratch)
        report = eng.run(result.program, timeout=120)
        np.testing.assert_allclose(
            result.fetch_final(eng),
            iterated_spmv_reference(global_m, x0, iterations), rtol=1e-9)
        tasks = len(result.program.tasks)  # in core: one dispatch per task
        return report.metrics[0]["map_blocks_examined"] / tasks

    def test_blocks_examined_per_dispatch_is_flat_in_iterations(
            self, tmp_path):
        short = self.examined_per_dispatch(tmp_path / "t", 6)
        long = self.examined_per_dispatch(tmp_path / "2t", 12)
        # A scan of every array read 95 -> 166 blocks per dispatch here
        # (84 -> 156 arrays); ready sets of K^2 multiplies read 6.6 -> 5.9.
        assert 0 < long <= 1.25 * short


class TestATaskAsksOnce:
    """A hand-off — a batch of tasks — costs the store three messages
    whatever its tasks read and write: one ``acquire`` naming every
    interval, one ``grants`` reply (in core the scheduler hands out tasks
    whose inputs are resident, so no grant has to wait), one ``release``;
    and the local scheduler one ``done``.  And on the process plane a
    block does not cost a shared-memory segment: small ones share slabs."""

    @pytest.mark.parametrize("plane", ["thread", "process"])
    def test_three_messages_a_task_and_segments_by_the_slab(
            self, tmp_path, plane):
        from repro.core.shm import SLAB_BYTES, SMALL_BLOCK_BYTES

        # 1024 x 1024 sub-matrices of ~28 nonzeros a row: a third of a
        # mebibyte each (4-byte indices), so they get segments of their
        # own; the vectors (8 KiB a part) are carved from slabs.
        global_m, p, blocks, x0 = make_problem(n=2048, k=2, seed=5,
                                               density_per_row=56.0)
        result = build_iterated_spmv(
            blocks, p.split_vector(x0), iterations=4, n_nodes=1,
            policy="simple")
        eng = DOoCEngine(n_nodes=1, workers=2, scratch_dir=tmp_path,
                         worker_plane=plane)
        try:
            report = eng.run(result.program, timeout=120)
            got = result.fetch_final(eng)
        finally:
            eng.cleanup()
        np.testing.assert_array_equal(
            got, iterated_spmv_blocked_reference(blocks, p, x0, 4))
        tasks = len(result.program.tasks)
        assert "forced_dispatches" not in report.metrics[0]  # the premise
        # Both planes end the run on the barrier: no worker is sent a
        # "shutdown" inside it.
        hand_offs, _ = report.stream_stats["lsched@0.to_workers->worker@0.in"]
        assert hand_offs < tasks  # in core, tasks share hand-offs
        asked, _ = report.stream_stats["worker@0.to_storage->storage@0.req"]
        told, _ = report.stream_stats[
            "storage@0.rep_workers->worker@0.from_storage"]
        assert (asked, told) == (2 * hand_offs, hand_offs)
        done, _ = report.stream_stats[
            "worker@0.to_lsched->lsched@0.from_workers"]
        # each worker's first "idle", then one report a hand-off
        assert done == hand_offs + 2
        if plane == "thread":
            assert -1 not in report.metrics  # no pool, nothing to report
            return
        # In core every block is allocated once: loaded, or written.
        sizes = [d.block_nbytes(b) for d in result.program.arrays.values()
                 for b in d.blocks()]
        dedicated = sum(1 for n in sizes if n >= SMALL_BLOCK_BYTES)
        small = sum(n for n in sizes if n < SMALL_BLOCK_BYTES)
        assert dedicated == 4 and small > 0
        assert report.metrics[-1]["shm_segments_created"] <= (
            dedicated + -(-small // SLAB_BYTES) + 1)
        assert report.metrics[-1]["shm_slack_peak_bytes"] <= SLAB_BYTES


class TestLoadOrderIsNotAFunctionOfSpeed:
    """Out of core the local scheduler decides on events (a completion, a
    declined prefetch, an eviction), never on elapsed time, so the same
    program loads the same sub-matrices in the same order on a slow disk."""

    def run_traced(self, scratch):
        # A 2 x 2 grid on one node with one worker and room for 4/3 of a
        # sub-matrix: A = 3x budget, so every sub-matrix prefetch beyond
        # the resident one is declined and every load is a forced choice.
        # (With room for two, the first two prefetches go into free memory
        # and whichever lands first runs first -- that overlap of I/O and
        # compute is wanted, and is one place where speed still shows.)
        # ~28 nonzeros a row keep a sub-matrix ~9 KB with 4-byte indices,
        # so the budget's room beside one holds the few 400 B vectors.
        global_m, p, blocks, x0 = make_problem(n=100, k=2, seed=3,
                                               density_per_row=28.0)
        result = build_iterated_spmv(
            blocks, p.split_vector(x0), iterations=3, n_nodes=1,
            policy="simple")
        from repro.spmv.csrfile import serialize_csr
        a_bytes = sum(len(serialize_csr(b)) for b in blocks.values())
        eng = DOoCEngine(n_nodes=1, workers=1,
                         memory_budget_per_node=a_bytes // 3,
                         scratch_dir=scratch, trace=True)
        report = eng.run(result.program, timeout=120)
        # Sub-matrices only.  The 400-byte vectors are reloaded too, and
        # those loads still follow the disk: dirty partial products are
        # spilled asynchronously, and whether a vector prefetch finds free
        # memory depends on whether such a spill has completed (5 of 30
        # runs differed in a vector load; none in a sub-matrix load).
        loads = [e.args["array"]
                 for e in sorted(report.trace_events, key=lambda e: e.ts)
                 if (e.cat, e.name) == ("storage", "load")
                 and e.args["array"].startswith("A_")]
        return loads, result.fetch_final(eng)

    def test_slowed_reads_leave_the_load_sequence_unchanged(
            self, tmp_path, monkeypatch):
        import time

        from repro.core import iofilter

        loads, got = self.run_traced(tmp_path / "fast")
        read_block = iofilter.read_block

        def slow_read_block(*args, **kwargs):
            time.sleep(0.03)
            return read_block(*args, **kwargs)

        monkeypatch.setattr(iofilter, "read_block", slow_read_block)
        slow_loads, slow_got = self.run_traced(tmp_path / "slow")
        assert 4 < len(loads) < 12  # reloads happen, and reuse too
        assert slow_loads == loads
        np.testing.assert_array_equal(slow_got, got)


class TestTheStoreTellsTheSchedulerNeverAsks:
    """Out of core, the local scheduler learns the store's residency from
    notes (``resident``, ``dropped``, ``declined``, ``failed``) and never
    polls it; a declined prefetch is asked for again only once a
    ``dropped`` note says memory was freed.  TestLoadOrderIsNotAFunctionOfSpeed's
    shape; counts, never seconds."""

    def test_messages_per_task_and_no_blind_re_prefetch(self, tmp_path):
        global_m, p, blocks, x0 = make_problem(n=100, k=2, seed=3,
                                               density_per_row=28.0)
        result = build_iterated_spmv(
            blocks, p.split_vector(x0), iterations=3, n_nodes=1,
            policy="simple")
        from repro.spmv.csrfile import serialize_csr
        a_bytes = sum(len(serialize_csr(b)) for b in blocks.values())
        eng = DOoCEngine(n_nodes=1, workers=1,
                         memory_budget_per_node=a_bytes // 3,
                         scratch_dir=tmp_path, trace=True)
        report = eng.run(result.program, timeout=120)
        np.testing.assert_allclose(
            result.fetch_final(eng),
            iterated_spmv_reference(global_m, x0, 3), rtol=1e-9)
        tasks = len(result.program.tasks)
        asked, _ = report.stream_stats["lsched@0.to_storage->storage@0.req"]
        told, _ = report.stream_stats[
            "storage@0.rep_lsched->lsched@0.from_storage"]
        # 15 a task while the scheduler polled the store before each
        # dispatch and re-sent a declined prefetch at every event.
        assert (asked + told) / tasks <= 7
        dropped_since: dict[str, bool] = {}
        for e in sorted(report.trace_events, key=lambda e: e.ts):
            if (e.cat, e.name) == ("storage", "drop"):
                dropped_since = dict.fromkeys(dropped_since, True)
            elif (e.cat, e.name) == ("sched", "prefetch"):
                array = e.args["array"]
                assert dropped_since.get(array, True), (
                    f"{array} prefetched twice with no drop between")
                dropped_since[array] = False


class TestEvictionByNextUse:
    """``ooc_read``'s shape, small: one node, ``interleaved``, A four times
    the budget, a vector part a four-hundredth of a sub-matrix.  Reclaim
    drops the clean sub-matrix the node needs last before it spills a
    live product, so nothing is spilled, and vector parts are loaded only
    where they come from disk.  Under LRU the same run spilled 34
    products and made 21 sub-matrix and 30-32 vector loads."""

    K, T = 3, 3
    #: sub-matrix loads under LRU (the one-thread driver and 20 threaded runs)
    LRU_MATRIX_LOADS = 21
    #: vector loads beyond the K initial parts: reloads of a dropped part
    VECTOR_RELOADS = K

    def problem(self):
        _, p, blocks, x0 = make_problem(n=384 * self.K, k=self.K, seed=2,
                                        density_per_row=192.0 * self.K)
        return p, blocks, x0

    def run(self, scratch, p, blocks, x0, **engine_kwargs):
        """(matrix loads, vector loads, spills, report) of one run, whose
        iterate is checked bit for bit."""
        from repro.spmv.csrfile import serialize_csr

        result = build_iterated_spmv(
            blocks, p.split_vector(x0), iterations=self.T, n_nodes=1,
            policy="interleaved")
        a_bytes = sum(len(serialize_csr(b)) for b in blocks.values())
        eng = DOoCEngine(n_nodes=1, workers=2, scratch_dir=scratch,
                         memory_budget_per_node=a_bytes // 4,
                         **engine_kwargs)
        try:
            report = eng.run(result.program, timeout=120)
            got = result.fetch_final(eng)
        finally:
            eng.cleanup()
        np.testing.assert_array_equal(
            got, iterated_spmv_blocked_reference(blocks, p, x0, self.T))
        loads = report.metrics[0].get("loads_by_label", {})
        matrix = sum(n for a, n in loads.items() if a.startswith("A_"))
        return (matrix, sum(loads.values()) - matrix,
                report.metrics[0].get("spills", 0), report)

    def test_exact_counts_on_one_thread(self, tmp_path, monkeypatch):
        import repro.core.engine as engine_module
        from tests.test_delivery_orders import OneThreadRuntime

        monkeypatch.setattr(engine_module, "ThreadedRuntime", OneThreadRuntime)
        matrix, vectors, spills, _ = self.run(tmp_path, *self.problem(),
                                              watchdog_quiet_s=None)
        assert (matrix, vectors, spills) == (20, self.K + 2, 0)

    def test_bounds_over_twenty_threaded_runs(self, tmp_path):
        problem = self.problem()
        for i in range(20):
            matrix, vectors, spills, _ = self.run(tmp_path / str(i), *problem)
            assert spills == 0, f"run {i}"
            assert matrix <= self.LRU_MATRIX_LOADS, f"run {i}"
            assert vectors <= self.K + self.VECTOR_RELOADS, f"run {i}"

    def test_a_crashed_task_changes_no_bit(self, tmp_path,
                                           protocol_checkers):
        """A crash after the acquire spent the task's uses: its retry may
        reload what reclaim took meanwhile, with the same bits (``run``
        checks them).  The engine audits every ticket at the end of the
        run."""
        from dataclasses import dataclass

        from repro.faults import FaultPlan

        @dataclass(frozen=True)
        class CrashFirstAttempts(FaultPlan):
            """The first attempt of each task of iteration 2 crashes."""

            def task_fault(self, node, task, attempt):
                return attempt == 1 and task.split("_")[1:2] == ["2"]

        _, _, _, report = self.run(tmp_path, *self.problem(),
                                   faults=CrashFirstAttempts(task_crash=1.0))
        # each multiply, partial sum and sum of iteration 2, once
        assert report.metrics[0]["task_reexecutions"] == self.K ** 2 + 2 * self.K
