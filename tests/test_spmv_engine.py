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
        # Dense-ish 50x50 blocks (~16 KB serialized) dwarf the 400 B
        # vectors, so the budget below truly fits only one sub-matrix.
        global_m, p, blocks, x0 = make_problem(n=150, k=k, seed=3,
                                               density_per_row=20.0)
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
    """A task costs the store three messages whatever it reads and writes:
    one ``acquire`` naming every interval, one ``grants`` reply (in core
    the scheduler dispatches a task when its inputs are resident, so no
    grant has to wait), one ``release``.  And on the process plane a block
    does not cost a shared-memory segment: small ones share slabs."""

    @pytest.mark.parametrize("plane", ["thread", "process"])
    def test_three_messages_a_task_and_segments_by_the_slab(
            self, tmp_path, plane):
        from repro.core.shm import SLAB_BYTES, SMALL_BLOCK_BYTES

        # 1024 x 1024 sub-matrices of ~20 nonzeros a row: a third of a
        # mebibyte each, so they get segments of their own; the vectors
        # (8 KiB a part) are carved from slabs.
        global_m, p, blocks, x0 = make_problem(n=2048, k=2, seed=5,
                                               density_per_row=40.0)
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
        asked, _ = report.stream_stats["worker@0.to_storage->storage@0.req"]
        told, _ = report.stream_stats[
            "storage@0.rep_workers->worker@0.from_storage"]
        assert (asked, told) == (2 * tasks, tasks)
        done, _ = report.stream_stats[
            "worker@0.to_lsched->lsched@0.from_workers"]
        assert done == tasks + 2  # each worker's first "idle", then one a task
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
        global_m, p, blocks, x0 = make_problem(n=100, k=2, seed=3,
                                               density_per_row=20.0)
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
