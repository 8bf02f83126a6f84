"""The engine session: what survives from one ``run()`` to the next.

Stores (block table, LRU clock, decoded-operand cache) persist across
runs of one engine; an array stays resident iff the next program declares
it again from the same, unchanged scratch file.  So does the filter graph:
its threads wait parked between runs.  Every failure, a node death,
``cleanup()`` and the process plane reset the session and stop the graph.
"""

import gc
import os
import shutil
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core import DOoCEngine, DoocError, Program
from repro.core.array import ArrayDesc
from repro.core.cancel import CancelToken
from repro.core.errors import RunCancelled, StallError
from repro.core.iofilter import delete_array_file, write_array
from repro.core.shm import dev_shm_segments
from repro.datacutter import FilterError
from repro.faults import FaultPlan, RetryPolicy
from repro.recovery import MembershipConfig
from repro.spmv import program as spmv_program
from repro.spmv.csr import CSRBlock
from repro.spmv.csrfile import serialize_csr
from repro.spmv.generator import symmetric_test_matrix
from repro.spmv.ooc_operator import OutOfCoreMatrix, _block_diagonal
from repro.spmv.partition import GridPartition
from repro.spmv.program import a_name

N, K = 240, 3

#: CI sweeps this over 0-2 (.github/workflows/ci.yml, fault-injection job)
FAULT_SEED = int(os.environ.get("DOOC_FAULT_SEED", "0"))


def make_blocks(seed=0, n=N, k=K):
    m = symmetric_test_matrix(n, 12.0, np.random.default_rng(seed),
                              diag_shift=20.0)
    return GridPartition(n, k).split_matrix(m)


def reference(blocks, x, n_nodes, scratch, policy="interleaved"):
    """``A @ x`` from an operator that has never run before (checked
    against the in-core product, so it is a reference, not an echo)."""
    fresh = OutOfCoreMatrix(blocks, n_nodes=n_nodes, scratch_dir=scratch,
                            policy=policy)
    y = fresh.matvec(x)
    parts = GridPartition(len(x), K).split_vector(x)
    dense = np.concatenate([
        sum(blocks[(u, v)].matvec(parts[v]) for v in range(K))
        for u in range(K)])
    np.testing.assert_allclose(y, dense, rtol=1e-12, atol=1e-12)
    return y


def capture_reports(op):
    """Record the RunReport of every engine run made through ``op``."""
    reports = []
    run = op.engine.run

    def recording_run(program, **kwargs):
        report = run(program, **kwargs)
        reports.append(report)
        return report

    op.engine.run = recording_run
    return reports


def matrix_loads(report):
    return sum(n for per in report.metrics.values()
               for array, n in per.get("loads_by_label", {}).items()
               if array.startswith("A_"))


def total(report, name):
    return sum(per.get(name, 0) for per in report.metrics.values())


@pytest.fixture
def x():
    return np.random.default_rng(42).standard_normal(N)


class TestCarryOver:
    def test_resident_matrix_is_never_reloaded(self, tmp_path, x):
        """(a) A inside the budget: after the first matvec no sub-matrix
        is loaded or decoded again, and the bits do not change."""
        blocks = make_blocks()
        op = OutOfCoreMatrix(blocks, n_nodes=3, scratch_dir=tmp_path / "s")
        reports = capture_reports(op)
        ys = [op.matvec(x) for _ in range(4)]
        assert matrix_loads(reports[0]) == K * K
        assert total(reports[0], "opcache_misses") == K * K
        for report in reports[1:]:
            assert matrix_loads(report) == 0
            assert total(report, "opcache_misses") == 0
            assert total(report, "opcache_hits") == K * K
        want = reference(blocks, x, 3, tmp_path / "f")
        for y in ys:
            assert np.array_equal(y, want)

    def test_back_and_forth_across_the_run_boundary(self, tmp_path, x):
        """(b) A is K^2 blocks on one node and 0.7 A of budget: every
        sweep after the first starts on a sub-matrix the one before left
        resident, so it loads fewer than K^2 (Fig. 5b across runs)."""
        blocks = make_blocks()
        a_bytes = sum(len(serialize_csr(b)) for b in blocks.values())
        op = OutOfCoreMatrix(
            blocks, n_nodes=1, workers=1, scratch_dir=tmp_path / "s",
            policy="simple", memory_budget_per_node=int(0.7 * a_bytes),
            engine_kwargs={"trace": True})
        reports = capture_reports(op)
        want = reference(blocks, x, 1, tmp_path / "f", policy="simple")
        for sweep in range(4):
            stores = op.engine.stores  # empty before the first run
            left = {a for a in (stores[0].resident_arrays() if stores else ())
                    if a.startswith("A_")}
            assert np.array_equal(op.matvec(x), want)
            report = reports[-1]
            if sweep == 0:
                assert matrix_loads(report) == K * K
                continue
            assert left
            assert matrix_loads(report) < K * K
            first = min((e for e in report.trace_events
                         if e.name == "dispatch" and "_mult_" in e.args["task"]),
                        key=lambda e: e.ts)
            _, _, u, v = first.args["task"].split("_")
            assert a_name(int(u), int(v)) in left

    def test_metrics_are_per_run(self, tmp_path, x):
        """(e) Counters read after a run cover that run only."""
        op = OutOfCoreMatrix(make_blocks(), n_nodes=3, scratch_dir=tmp_path)
        reports = capture_reports(op)
        for _ in range(3):
            op.matvec(x)
            live = {n: s.metrics.as_dict()
                    for n, s in op.engine.stores.items()}
            assert live == {n: m for n, m in reports[-1].metrics.items()
                            if n >= 0}
        assert (sum(e["disk_bytes_read"] for e in op.sweep_log)
                == sum(total(r, "disk_bytes_read") for r in reports))
        assert total(reports[0], "loads") == K * K + K
        assert total(reports[1], "loads") == K  # the iterate's parts only
        assert reports[1].total_loads == K
        x_bytes = N * 8
        assert [e["disk_bytes_read"] for e in op.sweep_log[1:]] == [x_bytes] * 2


class TestSessionEnds:
    def cold_again(self, op, reports, x, want):
        y = op.matvec(x)
        assert matrix_loads(reports[-1]) == K * K
        assert np.array_equal(y, want)

    def test_cancelled_run_resets(self, tmp_path, x, monkeypatch):
        """(c) A sweep cancelled after its first multiply started leaves
        nothing behind: the same matvec again is cold and bit-identical."""
        blocks = make_blocks()
        op = OutOfCoreMatrix(blocks, n_nodes=3, scratch_dir=tmp_path)
        reports = capture_reports(op)
        want = op.matvec(x)
        op.cancel = token = CancelToken()
        mult = spmv_program._mult_fn

        def cancelling_mult(ins, outs, meta):
            token.cancel("test")
            mult(ins, outs, meta)

        monkeypatch.setattr(spmv_program, "_mult_fn", cancelling_mult)
        with pytest.raises(RunCancelled):
            op.matvec(x)
        monkeypatch.setattr(spmv_program, "_mult_fn", mult)
        op.cancel = None
        self.cold_again(op, reports, x, want)
        op.matvec(x)
        assert matrix_loads(reports[-1]) == 0  # and warm after that

    def test_cleanup_resets_and_leaves_the_engine_usable(self, tmp_path, x):
        """(d) ``cleanup()`` then ``matvec``: works, and is cold."""
        op = OutOfCoreMatrix(make_blocks(), n_nodes=3, scratch_dir=tmp_path)
        reports = capture_reports(op)
        want = op.matvec(x)
        op.matvec(x)
        assert matrix_loads(reports[-1]) == 0
        op.engine.cleanup()
        self.cold_again(op, reports, x, want)

    def test_missing_file_is_named_and_resets(self, tmp_path, x):
        blocks = make_blocks()
        op = OutOfCoreMatrix(blocks, n_nodes=1, scratch_dir=tmp_path)
        reports = capture_reports(op)
        want = op.matvec(x)
        raw = np.frombuffer(serialize_csr(blocks[(0, 0)]), dtype=np.uint8)
        desc = ArrayDesc(a_name(0, 0), length=len(raw), dtype="uint8",
                         block_elems=len(raw))
        scratch = op.engine.node_scratch(0)
        delete_array_file(scratch, desc.name)
        with pytest.raises(DoocError, match="declared from scratch but no "
                                            "backing file"):
            op.matvec(x)
        write_array(scratch, desc, raw)
        self.cold_again(op, reports, x, want)

    def test_process_plane_resets_every_run(self, tmp_path):
        """(f) Its segments are unlinked at the end of every run, so the
        process plane carries nothing over (and leaves /dev/shm empty)."""
        n = 512
        data = np.arange(n, dtype=float)
        eng = DOoCEngine(n_nodes=1, workers=2, worker_plane="process",
                         scratch_dir=tmp_path)
        write_array(eng.node_scratch(0), ArrayDesc("c", n, block_elems=n), data)
        for run in range(2):
            prog = Program(f"p{run}", default_block_elems=n)
            prog.initial_from_scratch("c", n)
            prog.array("y", n)
            prog.add_task("double", double_fn, ["c"], ["y"])
            report = eng.run(prog, timeout=60)
            assert np.array_equal(eng.fetch("y"), 2.0 * data)
            assert report.total_loads == 1  # "c" again: nothing carried
            assert dev_shm_segments() == []
        eng.cleanup()


    def test_failed_runs_reset_whatever_the_seed(self, tmp_path, x):
        """Unretried, unrerouted I/O faults: some sweeps die, wherever the
        seed puts them.  The run after a failure is cold; every run that
        returns is bit-identical and, after a success, warm."""
        blocks = make_blocks()
        want = reference(blocks, x, 3, tmp_path / "f")
        plan = FaultPlan(seed=FAULT_SEED, io_transient=0.12)
        op = OutOfCoreMatrix(
            blocks, n_nodes=3, scratch_dir=tmp_path / "s",
            engine_kwargs={"io_retry": RetryPolicy(attempts=1),
                           "task_max_attempts": 1, "task_max_reroutes": 0})
        reports = capture_reports(op)
        warm = False
        failures = 0
        for _ in range(8):
            op.engine.faults = plan
            try:
                y = op.matvec(x)
            except FilterError:
                failures += 1
                op.engine.faults = None
                y = op.matvec(x)
                warm = False
            assert matrix_loads(reports[-1]) == (0 if warm else K * K)
            assert np.array_equal(y, want)
            warm = True
        # True of seeds 0-2, checked when the rate was chosen.
        assert 0 < failures < 8


def double_fn(ins, outs, meta):
    outs["y"][:] = ins["c"] * 2.0


class TestFileIdentity:
    def test_rewritten_file_is_never_served_stale(self, tmp_path, x):
        """Same name, same descriptor, new bytes: the second matvec must
        see the new matrix, not the resident copy of the old one."""
        blocks = make_blocks(seed=0)
        op = OutOfCoreMatrix(blocks, n_nodes=3, scratch_dir=tmp_path / "s")
        reports = capture_reports(op)
        assert np.array_equal(op.matvec(x),
                              reference(blocks, x, 3, tmp_path / "old"))
        old = blocks[(0, 0)]
        new = CSRBlock(old.nrows, old.ncols, old.indptr, old.indices,
                       old.values * -3.0)  # same pattern: same file size
        raw = np.frombuffer(serialize_csr(new), dtype=np.uint8)
        desc = ArrayDesc(a_name(0, 0), length=len(raw), dtype="uint8",
                         block_elems=len(raw))
        write_array(op.engine.node_scratch(op.owner(0, 0)), desc, raw)
        changed = dict(blocks)
        changed[(0, 0)] = new
        assert np.array_equal(op.matvec(x),
                              reference(changed, x, 3, tmp_path / "new"))
        assert matrix_loads(reports[-1]) == 1  # only the rewritten one

    def test_changed_descriptor_or_home_is_not_carried(self, tmp_path):
        n = 64
        data = np.arange(n, dtype=float)
        eng = DOoCEngine(n_nodes=2, workers=1, scratch_dir=tmp_path)
        for node in (0, 1):
            write_array(eng.node_scratch(node),
                        ArrayDesc("c", n, block_elems=n), data + node)

        def run(home, block_elems):
            prog = Program("p", default_block_elems=n)
            prog.initial_from_scratch("c", n, home=home,
                                      block_elems=block_elems)
            prog.array("y", n)
            prog.add_task("double", double_fn, ["c"], ["y"])
            report = eng.run(prog, timeout=60)
            return report.total_loads, eng.fetch("y")

        assert run(0, n)[0] == 1
        assert run(0, n)[0] == 0           # identical declaration: carried
        loads, y = run(0, n // 2)          # other blocking: both blocks load
        assert loads == 2 and np.array_equal(y, 2.0 * data)
        loads, y = run(1, n // 2)          # other home: that node's file
        assert loads == 2 and np.array_equal(y, 2.0 * (data + 1))

    def test_persisted_output_is_carried_without_a_read(self, tmp_path):
        """``persist`` writes a completed array out and adopts the
        resident copy: declared from scratch next, it costs no load —
        and a cold engine reads the same bytes from the file."""
        n = 64
        data = np.arange(n, dtype=float)
        eng = DOoCEngine(n_nodes=1, workers=1, scratch_dir=tmp_path)
        first = Program("produce", default_block_elems=n)
        first.initial_array("c", data)
        first.array("y", n)
        first.add_task("double", double_fn, ["c"], ["y"])
        eng.run(first, timeout=60)
        assert eng.persist("y") == 0

        def consume(engine):
            prog = Program("consume", default_block_elems=n)
            prog.initial_from_scratch("y", n)
            prog.array("z", n)
            prog.add_task("copy", copy_y_fn, ["y"], ["z"])
            report = engine.run(prog, timeout=60)
            return report.total_loads, engine.fetch("z")

        loads, z = consume(eng)
        assert loads == 0 and np.array_equal(z, 2.0 * data)
        cold = DOoCEngine(n_nodes=1, workers=1, scratch_dir=tmp_path)
        loads, z = consume(cold)
        assert loads == 1 and np.array_equal(z, 2.0 * data)


def copy_y_fn(ins, outs, meta):
    outs["z"][:] = ins["y"]


class TestFrozenProducts:
    def test_products_are_unlinked_when_the_workset_closes(self, tmp_path):
        from repro.core.iofilter import discover_arrays
        from repro.spmv.ooc_operator import SweepWorkset

        op = OutOfCoreMatrix(make_blocks(), n_nodes=3, scratch_dir=tmp_path)
        x = np.random.default_rng(3).standard_normal(N)
        parts = op.partition.split_vector(x)
        want = op.matvec(x)
        workset = SweepWorkset(op)
        workset.freeze(1, parts[1])

        def stored():
            return [name for node in range(3)
                    for name in discover_arrays(op.engine.node_scratch(node))
                    if name.startswith("frozen")]

        assert len(stored()) == K
        assert np.array_equal(op.matvec(x, workset=workset), want)
        assert op.last_sweep["active"] == (0, 2)
        workset.close()
        assert stored() == []
        assert np.array_equal(op.matvec(x, workset=workset), want)
        assert op.last_sweep["active"] == (0, 1, 2)


class TestSweepScratchIsUnlinked:
    """Every sweep unlinks the files of the ``it{t}_`` arrays its program
    declared, on every node, without listing the directories."""

    @staticmethod
    def files(op, prefix):
        return sorted(path.name for node in range(op.engine.n_nodes)
                      for path in op.engine.node_scratch(node).iterdir()
                      if path.name.startswith(prefix))

    def test_no_sweep_kind_leaves_an_iteration_file(self, tmp_path, x):
        op = OutOfCoreMatrix(make_blocks(), n_nodes=3, scratch_dir=tmp_path)
        parts = op.partition.split_vector(x)
        op.matvec(x)
        assert self.files(op, "it") == []
        names = op.column_products(1, parts[1])
        assert self.files(op, "it") == []
        assert len(self.files(op, "frozen")) == K  # stored to outlive it
        op.stale_sweep([parts, parts],
                       {(u, v): (u + v) % 2
                        for u in range(K) for v in range(K)})
        assert self.files(op, "it") == []
        op.drop_products(names)
        assert self.files(op, "") == self.files(op, "A_")
        assert len(self.files(op, "A_")) == K * K

    def test_spilled_intermediates_are_unlinked_too(self, tmp_path):
        """Long vectors, very sparse A, room for a third of a sweep's
        products: they are spilled, reloaded, and gone afterwards."""
        n = 6000
        blocks = make_blocks(seed=2, n=n)
        part_bytes = n // K * 8
        a_max = max(len(serialize_csr(b)) for b in blocks.values())
        op = OutOfCoreMatrix(
            blocks, n_nodes=1, workers=1, scratch_dir=tmp_path / "s",
            policy="simple",
            memory_budget_per_node=a_max + 5 * part_bytes,
            engine_kwargs={"opcache_bytes": 0})
        reports = capture_reports(op)
        standing = []
        cleanup = op._cleanup

        def recording_cleanup(prog, t):
            standing.extend(self.files(op, f"it{t}_"))
            cleanup(prog, t)

        op._cleanup = recording_cleanup
        x = np.random.default_rng(7).standard_normal(n)
        want = reference(blocks, x, 1, tmp_path / "f", policy="simple")
        assert np.array_equal(op.matvec(x), want)
        assert total(reports[-1], "spills") > 0
        assert len(standing) >= K  # the seeded parts of x, at the least
        assert self.files(op, "it") == []


class TestDiagonal:
    @staticmethod
    def loop_diagonal(block):
        """The per-row scan ``_block_diagonal`` replaced."""
        out = np.zeros(block.nrows)
        for i in range(block.nrows):
            row = slice(block.indptr[i], block.indptr[i + 1])
            hits = np.nonzero(block.indices[row] == i)[0]
            if hits.size:
                out[i] = block.values[row][hits[0]]
        return out

    def test_missing_and_duplicate_entries(self):
        # row 0: two (0, 0) entries, the first wins; row 1: none;
        # row 2: empty; row 3: diagonal last; row 4: diagonal only
        block = CSRBlock(
            5, 5,
            indptr=np.array([0, 3, 5, 5, 8, 9]),
            indices=np.array([0, 0, 2, 0, 4, 0, 1, 3, 4]),
            values=np.array([1.5, -7.0, 2.0, 3.0, 4.0, 5.0, 6.0, -0.0, 9.0]))
        got = _block_diagonal(block)
        assert got.tobytes() == self.loop_diagonal(block).tobytes()
        assert got.tolist() == [1.5, 0.0, 0.0, -0.0, 9.0]

    def test_matches_the_loop_on_a_generated_matrix(self, tmp_path):
        blocks = make_blocks(seed=5)
        op = OutOfCoreMatrix(blocks, n_nodes=3, scratch_dir=tmp_path)
        want = np.concatenate(
            [self.loop_diagonal(blocks[(u, u)]) for u in range(K)])
        assert op.diagonal().tobytes() == want.tobytes()


# -- the filter graph's lifetime ---------------------------------------------

def started_by(action) -> list[threading.Thread]:
    """Every thread ``action`` started."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(threading.Thread, "start", recording_start)
        action()
    return started


def graph_started_by(action) -> set[threading.Thread]:
    """The filter threads (``dc-<filter>#<i>``) ``action`` started."""
    return {t for t in started_by(action) if t.name.startswith("dc-")}


def assert_stopped(threads) -> None:
    for thread in threads:
        thread.join(5.0)  # failure paths leave threads to unwind alone
    assert [t.name for t in threads if t.is_alive()] == []


def scale_fn(ins, outs, meta):
    outs[meta["out"]][:] = ins[meta["src"]] * 2.0


def fail_fn(ins, outs, meta):
    raise RuntimeError("a task that always fails")


def sum_fn(ins, outs, meta):
    outs["total"][:] = ins["d0"] + ins["d1"]


def two_node_program(name, fn=scale_fn, n=64):
    """``total = 2 c0 + 2 c1``, a doubling on each of two nodes."""
    prog = Program(name, default_block_elems=n)
    for i in (0, 1):
        prog.initial_array(f"c{i}", np.arange(n, dtype=float) + i, home=i)
        prog.array(f"d{i}", n)
        prog.add_task(f"scale{i}", fn, [f"c{i}"], [f"d{i}"],
                      src=f"c{i}", out=f"d{i}")
    prog.array("total", n)
    prog.add_task("sum", sum_fn, ["d0", "d1"], ["total"])
    return prog


TOTAL = 2.0 * (2 * np.arange(64, dtype=float) + 1)


def run_checked(eng, name):
    report = eng.run(two_node_program(name), timeout=60)
    assert np.array_equal(eng.fetch("total"), TOTAL)
    return report


def wedge_program():
    """A 32 KiB input pinned while its 32 KiB output waits for memory that
    a 40 000-byte budget never frees (tests/test_watchdog.py)."""
    n = 4096
    prog = Program("wedge", default_block_elems=n)
    prog.initial_array("x", np.arange(n, dtype=float))
    prog.array("y", n)
    prog.add_task("copy", copy_x_fn, ["x"], ["y"])
    return prog


def copy_x_fn(ins, outs, meta):
    outs["y"][:] = ins["x"]


def _cancelled(eng):
    token = CancelToken()
    token.cancel("test")
    with pytest.raises(RunCancelled):
        eng.run(two_node_program("cancelled"), timeout=60, cancel=token)


def _node_dies(eng):
    eng.faults = FaultPlan(node_kill=((1, 1),))
    report = run_checked(eng, "death")  # recovered, and not committed
    eng.faults = None
    assert report.metrics[-1]["nodes_lost"] == 1


def _from_scratch(name):
    prog = Program("from-scratch", default_block_elems=64)
    prog.initial_from_scratch(name, 64)
    prog.array("y", 64)
    prog.add_task("double", double_fn, [name], ["y"])
    return prog


#: every way a session ends -> (engine keywords, how it ends)
ENDINGS = {
    "filter_error": (
        {"task_max_attempts": 1, "task_max_reroutes": 0},
        lambda eng: pytest.raises(FilterError, eng.run,
                                  two_node_program("bad", fail_fn),
                                  timeout=60)),
    "cancelled": ({}, _cancelled),
    "stall_timeout": (
        {"memory_budget_per_node": 40_000},
        lambda eng: pytest.raises(StallError, eng.run, wedge_program(),
                                  timeout=1)),
    "missing_file": (
        {},
        lambda eng: pytest.raises(DoocError, eng.run, _from_scratch("gone"),
                                  timeout=60)),
    "cleanup": ({}, lambda eng: eng.cleanup()),
    "process_plane": ({"worker_plane": "process"}, lambda eng: None),
    "node_death": (
        {"membership": MembershipConfig(
             heartbeat_s=0.02, suspect_after_s=0.1, dead_after_s=0.25)},
        _node_dies),
}


class TestGraphLifetime:
    def test_later_runs_start_no_thread(self, tmp_path, x):
        """(a) Runs 2..N of one engine start no thread: the graph is kept,
        parked, and rebound."""
        op = OutOfCoreMatrix(make_blocks(), n_nodes=3, scratch_dir=tmp_path)
        ys = []
        first = started_by(lambda: ys.append(op.matvec(x)))
        # the global scheduler; storage, I/O, local scheduler and workers
        # on each node
        assert len(first) == 1 + 3 * (3 + op.engine.workers_per_node)
        for _ in range(3):
            assert started_by(lambda: ys.append(op.matvec(x))) == []
        assert all(np.array_equal(y, ys[0]) for y in ys)
        op.engine.cleanup()

    @pytest.mark.parametrize("ending", sorted(ENDINGS))
    def test_no_filter_thread_outlives_the_session(self, tmp_path, ending):
        """(b) Whatever ends the session stops the graph, and the next run
        builds a fresh one."""
        kwargs, end = ENDINGS[ending]
        eng = DOoCEngine(**{"n_nodes": 2, "workers": 1,
                            "scratch_dir": tmp_path, **kwargs})
        first = graph_started_by(lambda: run_checked(eng, "first"))
        assert first
        end(eng)
        assert_stopped(first)
        again = graph_started_by(lambda: run_checked(eng, "again"))
        assert again and not again & first
        eng.cleanup()
        assert_stopped(again)

    def test_dropped_engine_releases_its_threads(self, tmp_path):
        """(c) Nothing the parked threads hold refers to the engine: an
        engine dropped without ``cleanup()`` is collected, and that winds
        its graph down."""
        eng = DOoCEngine(n_nodes=2, workers=1, scratch_dir=tmp_path)
        threads = graph_started_by(lambda: run_checked(eng, "first"))
        run_checked(eng, "second")
        assert threads and all(t.is_alive() for t in threads)
        dropped = weakref.ref(eng)
        del eng
        gc.collect()
        assert dropped() is None
        assert [t.name for t in threads if t.is_alive()] == []

    def test_reports_cover_one_run(self, tmp_path):
        """(d) ``stream_stats`` and ``metrics`` count the run they report,
        though the streams and threads outlive it."""
        eng = DOoCEngine(n_nodes=2, workers=2, scratch_dir=tmp_path)
        reports = [run_checked(eng, f"r{i}") for i in range(3)]
        eng.cleanup()
        told = "worker@0.to_lsched->lsched@0.from_workers"
        # Each worker says "idle" once, when its thread starts; after that
        # a run's count is its "done" reports alone.
        dones = [r.stream_stats[told][0] for r in reports]
        assert dones == [dones[1] + 2, dones[1], dones[1]] and dones[1] > 0
        asked = "worker@1.to_storage->storage@1.req"  # acquire + release
        assert len({r.stream_stats[asked][0] for r in reports}) == 1
        loads = [r.metrics[0].get("loads", 0) for r in reports]
        assert loads == [loads[0]] * 3 and loads[0] >= 1  # c0 is re-seeded

    def test_many_runs_of_one_graph_under_thread_churn(
            self, tmp_path, protocol_checkers):
        """More workers than cores, a tiny switch interval, run after run
        on one parked graph: every run is right, every grant is back
        before it ends (the ticket auditor), and the stream counters hold
        exactly that run's traffic — two storage requests per task."""
        eng = DOoCEngine(n_nodes=3, workers=4, scratch_dir=tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for i in range(20):
                report = run_checked(eng, f"r{i}")
                asked = sum(report.stream_stats[
                    f"worker@{n}.to_storage->storage@{n}.req"][0]
                    for n in range(3))
                assert asked == 2 * len(report.assignment)
        finally:
            sys.setswitchinterval(interval)
            eng.cleanup()

    def test_node_scratch_is_made_once_and_again_after_cleanup(self):
        eng = DOoCEngine(n_nodes=2, workers=1)  # owns its scratch root
        run_checked(eng, "first")
        node1 = eng.node_scratch(1)
        shutil.rmtree(node1)
        # Made once: the engine does not look again (no syscall per call).
        assert eng.node_scratch(1) == node1 and not node1.exists()
        eng.cleanup()
        assert not eng.scratch_root.exists()
        run_checked(eng, "after-cleanup")  # the node directories come back
        assert node1.is_dir() and eng.node_scratch(0).is_dir()
        eng.cleanup()
