"""Incremental & asynchronous iteration: tracker, dropout, frontiers.

Covers the per-block :class:`ConvergenceTracker` (freeze / thaw /
period-2 limit cycles), the incremental Jacobi drive (bit-identical to
sync while strictly reducing tasks and disk reads), bounded-staleness
async Jacobi, sparse-frontier SpMV and the incremental
``run_iterated_spmv`` early exit.
The sync drive every other mode is compared against is itself pinned,
bit for bit, to an in-core operator with the engine's summation order.
"""

import importlib.util
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from repro.core.convergence import ConvergenceTracker, repeat_period
from repro.obs.metrics import MetricsRegistry
from repro.solvers import jacobi_solve
from repro.spmv.csr import CSRBlock
from repro.spmv.ooc_operator import OutOfCoreMatrix
from repro.spmv.partition import GridPartition
from repro.spmv.program import run_iterated_spmv

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def staggered_system(n=120, k=3, dom=(1e6, 50.0, 12.0), density=0.05, seed=9):
    """Block-lower-triangular system whose partitions converge at wildly
    different rates: partition 0 (dominance 1e6) goes stationary in a
    handful of sweeps, partition k-1 takes the longest — so the workset
    shrinks in stages."""
    rng = np.random.default_rng(seed)
    sizes = [n // k] * k
    rows = []
    for u in range(k):
        row = []
        for v in range(k):
            nr, nc = sizes[u], sizes[v]
            if v > u:
                row.append(sp.csr_matrix((nr, nc)))
            elif v < u:
                row.append(sp.random(nr, nc, density=density,
                                     random_state=rng, format="csr"))
            else:
                diag = sp.random(nr, nc, density=density, random_state=rng,
                                 format="csr").tolil()
                rowsum = np.abs(diag).sum(axis=1).A.ravel()
                diag.setdiag(rowsum + dom[u])
                row.append(diag.tocsr())
        rows.append(row)
    a = sp.csr_matrix(sp.bmat(rows, format="csr"))
    return a, rng.standard_normal(n)


def make_operator(a, k, scratch, policy="simple"):
    blocks = GridPartition(a.shape[0], k).split_matrix(CSRBlock.from_scipy(a))
    return OutOfCoreMatrix(blocks, n_nodes=1, scratch_dir=scratch,
                           policy=policy)


def sweep_totals(op):
    tasks = sum(e["tasks"] for e in op.sweep_log)
    disk = sum(e["disk_bytes_read"] for e in op.sweep_log)
    return tasks, disk


class _InCoreBlockedReference:
    """In-core operator reproducing the engine's blocked summation order.

    ``matvec`` accumulates ``y_u = sum_v A_{u,v} @ x_v`` over columns in
    grid order into a zeroed buffer — float-for-float the simple-policy
    reduction on one node — so a SciPy-side Jacobi drive through it is
    the bit-identity reference for the out-of-core sync solve.
    """

    def __init__(self, a, partition):
        self.partition = partition
        self.n = a.shape[0]
        self._diag = np.asarray(a.diagonal(), dtype=np.float64)
        self._blocks = {}
        for u in range(partition.k):
            r0, r1 = partition.part_range(u)
            for v in range(partition.k):
                c0, c1 = partition.part_range(v)
                self._blocks[(u, v)] = sp.csr_matrix(a[r0:r1, c0:c1])

    @property
    def shape(self):
        return (self.n, self.n)

    def diagonal(self) -> np.ndarray:
        return self._diag.copy()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        p = self.partition
        parts = p.split_vector(np.asarray(x, dtype=np.float64))
        out = {}
        for u in range(p.k):
            y = np.zeros(p.part_length(u))
            for v in range(p.k):
                y += self._blocks[(u, v)] @ parts[v]
            out[u] = y
        return p.join_vector(out)


# -- the tracker -------------------------------------------------------------


class _StubTracer:
    def __init__(self):
        self.instants = []
        self.counters = []

    def instant(self, node, thread, cat, name, **kw):
        self.instants.append((cat, name, kw))

    def counter(self, node, thread, cat, name, value, **kw):
        self.counters.append((cat, name, value, kw))


def parts(*vectors):
    return {v: np.asarray(x, dtype=np.float64) for v, x in enumerate(vectors)}


def test_repeat_period_is_bitwise():
    """The one stagnation check both drives call: a bitwise fixpoint, a
    bitwise 2-cycle, or neither (one ulp off is no repeat)."""
    a, b = np.array([1.0, 2.0]), np.array([1.0, 3.0])
    off = np.nextafter(a, np.inf)
    assert repeat_period(a.copy(), a, None) == 1
    assert repeat_period(a.copy(), b, a) == 2
    assert repeat_period(off, a, a) == 0
    assert repeat_period(a.copy(), b, None) == 0


class TestConvergenceTracker:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConvergenceTracker(0)
        with pytest.raises(TypeError):
            ConvergenceTracker(2, tol=0.0)  # the freeze test is bitwise

    def test_bitwise_freeze_shrinks_workset(self):
        t = ConvergenceTracker(2)
        rec = t.observe(parts([1.0], [2.0]), parts([1.0], [3.0]),
                        tasks_scheduled=4)
        assert rec.newly_frozen == (0,) and rec.reentered == ()
        assert t.frozen == {0} and t.active() == [1]
        assert not t.fixpoint
        rec = t.observe(parts([1.0], [3.0]), parts([1.0], [3.0]),
                        tasks_scheduled=2)
        assert rec.newly_frozen == (1,)
        assert t.fixpoint and t.report.fixpoint_sweep == 2

    def test_thaw_reenters_moved_partition(self):
        t = ConvergenceTracker(1)
        t.observe(parts([5.0]), parts([5.0]))
        assert t.frozen == {0}
        rec = t.observe(parts([5.0]), parts([6.0]))
        assert rec.reentered == (0,)
        assert t.frozen == frozenset() and t.active() == [0]
        # The thawed partition is back in the next sweep's workset, so the
        # dropout history is no longer monotone.
        t.observe(parts([6.0]), parts([7.0]))
        assert not t.report.monotone_dropout()

    def test_period2_limit_cycle_freezes_both_phases(self):
        a, b = [1.0, 2.0], [1.0, 2.0 + 2**-50]
        t = ConvergenceTracker(1)
        t.observe(parts(a), parts(b))       # a -> b
        assert t.frozen == frozenset()
        rec = t.observe(parts(b), parts(a))  # b -> a == two sweeps ago
        assert rec.newly_frozen == (0,)
        phases = t.phases(0)
        assert len(phases) == 2
        assert np.array_equal(phases[0], a) and np.array_equal(phases[1], b)
        # Both cycle values keep the partition frozen...
        t.observe(parts(a), parts(b))
        t.observe(parts(b), parts(a))
        assert t.frozen == {0}
        # ...but a third value thaws it.
        rec = t.observe(parts(a), parts([9.0, 9.0]))
        assert rec.reentered == (0,) and t.phases(0) == ()

    def test_stored_values_follow_their_phases(self):
        """What a driver stored for a phase comes back from ``select`` for
        the part that matches it, and from ``released`` once the phase
        is replaced or thawed, by ``select`` or by ``observe``."""
        t = ConvergenceTracker(2)
        t.observe(parts([1.0], [2.0]), parts([1.0], [3.0]))  # 0 freezes
        assert t.select(parts([1.0], [3.0])) == {0: None}
        t.freeze(0, [1.0], "p0")
        t.freeze(1, [3.0], "p1")  # a freeze the driver asks for
        assert t.frozen == {0, 1} and t.released() == []
        assert t.select(parts([1.0], [3.0])) == {0: "p0", 1: "p1"}
        t.freeze(1, [3.0], "p1 again")
        assert t.released() == ["p1"]
        assert t.select(parts([1.0], [4.0])) == {0: "p0"}  # 1 matches none
        assert t.frozen == {0} and t.released() == ["p1 again"]
        rec = t.observe(parts([1.0], [4.0]), parts([2.0], [5.0]))
        assert rec.active == (1,) and rec.reentered == (0,)
        assert t.frozen == frozenset() and t.released() == ["p0"]

    def test_report_accessors(self):
        t = ConvergenceTracker(2)
        t.observe(parts([0.0], [0.0]), parts([1.0], [1.0]),
                  tasks_scheduled=4)
        t.observe(parts([1.0], [1.0]), parts([1.0], [2.0]),
                  tasks_scheduled=4)
        t.observe(parts([1.0], [2.0]), parts([1.0], [2.0]),
                  tasks_scheduled=2, aux_tasks=1)
        rep = t.report
        assert rep.tasks_per_sweep() == [4, 4, 2]
        assert rep.total_tasks() == 11
        assert rep.workset_sizes() == [2, 2, 1]
        assert rep.first_freeze_sweep() == 2
        assert rep.monotone_dropout()
        assert rep.fixpoint_sweep == 3

    def test_metrics_counters(self):
        m = MetricsRegistry()
        t = ConvergenceTracker(2, metrics=m)
        t.observe(parts([1.0], [0.0]), parts([1.0], [1.0]),
                  tasks_scheduled=4)
        t.observe(parts([1.0], [1.0]), parts([2.0], [1.0]),
                  tasks_scheduled=3)
        assert m.get("sweeps") == 2
        assert m.get("blocks_converged") == 2
        assert m.get("blocks_reentered") == 1
        assert m.get("workset_tasks") == 7

    def test_trace_events_emitted(self):
        tr = _StubTracer()
        t = ConvergenceTracker(1, tracer=tr)
        t.observe(parts([1.0]), parts([1.0]))
        names = [(cat, name) for cat, name, _ in tr.instants]
        assert ("converge", "block_converged") in names
        assert ("converge", "fixpoint") in names
        assert tr.counters[0][:3] == ("converge", "workset_size", 0)
        t.observe(parts([1.0]), parts([2.0]))
        names = [(cat, name) for cat, name, _ in tr.instants]
        assert ("converge", "block_reentered") in names


# -- incremental Jacobi ------------------------------------------------------


@pytest.fixture(scope="module")
def staggered():
    return staggered_system()


class TestSyncJacobi:
    def test_sync_matches_reference(self, staggered, tmp_path):
        """The out-of-core sync solve is the yardstick the incremental
        and async modes are held to; it is itself held, bit for bit, to
        the same drive through an operator that never leaves memory."""
        a, b = staggered
        op = make_operator(a, 3, tmp_path)
        ooc = jacobi_solve(op, b, tol=1e-30, max_iterations=120)
        ref = jacobi_solve(
            _InCoreBlockedReference(a, GridPartition(a.shape[0], 3)), b,
            tol=1e-30, max_iterations=120)
        assert ooc.iterations == ref.iterations > 1
        assert np.array_equal(ooc.x, ref.x)


class TestIncrementalJacobi:
    @pytest.mark.parametrize("policy", ["simple", "interleaved"])
    def test_bit_identical_with_strictly_less_work(self, staggered, tmp_path,
                                                   policy):
        a, b = staggered
        op_sync = make_operator(a, 3, tmp_path / "sync", policy=policy)
        sync = jacobi_solve(op_sync, b, tol=1e-30, max_iterations=120)
        t_sync, d_sync = sweep_totals(op_sync)

        op_inc = make_operator(a, 3, tmp_path / "inc", policy=policy)
        inc = jacobi_solve(op_inc, b, tol=1e-30, max_iterations=120,
                           mode="incremental")
        t_inc, d_inc = sweep_totals(op_inc)

        # Dropout is free: same bits, same sweep count...
        assert np.array_equal(sync.x, inc.x)
        assert sync.iterations == inc.iterations
        assert inc.fixpoint
        # ...and strictly cheaper.
        assert t_inc < t_sync
        assert d_inc < d_sync

    def test_workset_report_shows_staged_dropout(self, staggered, tmp_path):
        a, b = staggered
        op = make_operator(a, 3, tmp_path)
        res = jacobi_solve(op, b, tol=1e-30, max_iterations=120,
                           mode="incremental")
        rep = res.convergence
        assert rep is not None
        first = rep.first_freeze_sweep()
        assert first is not None and first < res.iterations
        sizes = rep.workset_sizes()
        assert rep.monotone_dropout()
        assert sizes[0] == 3 and min(sizes) < 3
        # Per-sweep task counts shrink with the workset and never grow.
        tasks = rep.tasks_per_sweep()
        assert tasks[-1] < tasks[0]
        assert all(b <= a for a, b in zip(tasks, tasks[1:]))

    def test_converging_run_matches_direct_solve(self, tmp_path):
        mod = load_example("markov_chain")
        n = 90
        rng = np.random.default_rng(0)
        p = mod.random_transition_matrix(n, rng)
        system = sp.csr_matrix(sp.identity(n) - 0.85 * p.T)
        b = np.full(n, 0.15 / n)
        reference = scipy.sparse.linalg.spsolve(sp.csc_matrix(system), b)
        op = make_operator(system, 3, tmp_path)
        res = jacobi_solve(op, b, tol=1e-10, max_iterations=300,
                           mode="incremental")
        assert res.converged
        np.testing.assert_allclose(res.x, reference, rtol=1e-6, atol=1e-12)

    def test_incremental_needs_workset_operator(self):
        class Dense:
            n = 4

            def matvec(self, x):
                return x

            def diagonal(self):
                return np.ones(4)

        with pytest.raises(ValueError, match="workset-capable"):
            jacobi_solve(Dense(), np.ones(4), mode="incremental")


class TestAsyncJacobi:
    def test_lands_inside_documented_bound(self, staggered, tmp_path):
        a, b = staggered
        tol = 1e-10
        op = make_operator(a, 3, tmp_path)
        res = jacobi_solve(op, b, tol=tol, max_iterations=100, mode="async",
                           staleness=2, seed=1)
        assert res.converged
        assert res.residual_norm <= tol * np.linalg.norm(b)

    def test_staleness_zero_degenerates_to_sync_bitwise(self, staggered,
                                                        tmp_path):
        a, b = staggered
        op_s = make_operator(a, 3, tmp_path / "s")
        sync = jacobi_solve(op_s, b, tol=1e-10, max_iterations=100)
        op_a = make_operator(a, 3, tmp_path / "a")
        asy = jacobi_solve(op_a, b, tol=1e-10, max_iterations=100,
                           mode="async", staleness=0, seed=7)
        assert np.array_equal(sync.x, asy.x)
        assert sync.iterations == asy.iterations

    def test_parameter_validation(self, staggered, tmp_path):
        a, b = staggered
        op = make_operator(a, 3, tmp_path)
        with pytest.raises(ValueError):
            jacobi_solve(op, b, mode="async", staleness=-1)
        with pytest.raises(ValueError):
            jacobi_solve(op, b, mode="chaotic")


# -- sparse frontiers --------------------------------------------------------


class TestFrontierMatvec:
    def test_zero_columns_skipped_result_identical(self, tmp_path):
        a, _ = staggered_system(seed=3)
        a = sp.csr_matrix(abs(a))
        op_full = make_operator(a, 3, tmp_path / "full")
        op_frontier = make_operator(a, 3, tmp_path / "frontier")
        x = np.zeros(a.shape[0])
        x[: a.shape[0] // 3] = np.abs(
            np.random.default_rng(5).standard_normal(a.shape[0] // 3))
        full = op_full.matvec(x)
        sparse = op_frontier.matvec(x, frontier=True)
        np.testing.assert_array_equal(full, sparse)
        # Only partition 0 carried inputs, so the frontier sweep scheduled
        # strictly fewer tasks and read strictly fewer bytes.
        assert len(op_frontier.last_sweep["active"]) == 1
        assert op_frontier.last_sweep["tasks"] < op_full.last_sweep["tasks"]
        assert (op_frontier.last_sweep["disk_bytes_read"]
                < op_full.last_sweep["disk_bytes_read"])

    def test_sweep_log_records_mode(self, tmp_path):
        a, _ = staggered_system(seed=3)
        op = make_operator(a, 3, tmp_path)
        op.matvec(np.ones(a.shape[0]))
        op.matvec(np.ones(a.shape[0]), frontier=True)
        modes = [e["mode"] for e in op.sweep_log]
        assert modes == ["full", "frontier"]


class TestGraphBFSFixpoint:
    def test_bfs_stops_at_frontier_fixpoint(self, tmp_path):
        """Regression for the example re-running full sweeps after the
        frontier went stationary: exactly eccentricity + 1 expansions
        (the +1 is the sweep that *detects* the fixpoint)."""
        mod = load_example("graph_bfs")
        rng = np.random.default_rng(8)
        adj = mod.random_undirected_adjacency(120, 5.0, rng)
        op = make_operator(sp.csr_matrix(adj), 3, tmp_path)
        dist = mod.ooc_bfs_levels(op, 0)
        assert op.matvec_count == int(dist.max()) + 1

    def test_disconnected_component_never_expanded(self, tmp_path):
        """Two disjoint cliques: BFS from clique A must terminate without
        sweeping the graph diameter's worth of empty frontiers, and the
        unreachable clique stays at -1."""
        mod = load_example("graph_bfs")
        n = 90
        blocks = [np.ones((n // 2, n // 2))] * 2
        adj = sp.csr_matrix(sp.block_diag(blocks))
        adj.setdiag(0)
        adj.eliminate_zeros()
        op = make_operator(sp.csr_matrix(adj), 3, tmp_path)
        dist = mod.ooc_bfs_levels(op, 0)
        assert (dist[: n // 2] >= 0).all()
        assert (dist[n // 2:] == -1).all()
        assert op.matvec_count == 2  # one level + the fixpoint sweep


# -- incremental run_iterated_spmv -------------------------------------------


def block_matrix(n, k, fill):
    s = n // k
    rows = []
    for u in range(k):
        row = []
        for v in range(k):
            b = fill(u, v)
            row.append(b if b is not None else sp.csr_matrix((s, s)))
        rows.append(row)
    return sp.csr_matrix(sp.bmat(rows, format="csr"))


class TestIncrementalIteratedSpMV:
    n, k = 90, 3

    @pytest.fixture(scope="class")
    def x0_parts(self):
        x0 = np.random.default_rng(3).standard_normal(self.n)
        return GridPartition(self.n, self.k).split_vector(x0)

    def split(self, m):
        return GridPartition(self.n, self.k).split_matrix(
            CSRBlock.from_scipy(m))

    def test_nilpotent_chain_exits_early_bit_identical(self, x0_parts):
        """Strictly block-lower-triangular A is nilpotent: every power
        iteration hits exact zero within k sweeps, so the incremental run
        must stop there while still reporting the requested T sweeps."""
        rng = np.random.default_rng(11)
        m = block_matrix(self.n, self.k,
                         lambda u, v: sp.random(self.n // self.k,
                                                self.n // self.k,
                                                density=0.1, random_state=rng,
                                                format="csr")
                         if v < u else None)
        blocks = self.split(m)
        for t in (2, 3, 50):
            bulk = run_iterated_spmv(blocks, x0_parts, t, policy="simple")
            inc = run_iterated_spmv(blocks, x0_parts, t, policy="simple",
                                    incremental=True)
            assert np.array_equal(bulk.join(), inc.join()), f"T={t}"
            assert inc.iterations == t
        assert inc.fixpoint
        assert len(inc.convergence.sweeps) < 50

    @pytest.mark.parametrize("t", [6, 7, 8, 9])
    def test_period2_cycle_parity_corrected(self, x0_parts, t):
        """A block-swap permutation cycles with exact period 2; the early
        exit must return the phase matching T's parity bit-for-bit."""
        s = self.n // self.k
        eye = sp.identity(s, format="csr")
        m = block_matrix(self.n, self.k,
                         lambda u, v: eye
                         if (u, v) in ((0, 1), (1, 0), (2, 2)) else None)
        blocks = self.split(m)
        bulk = run_iterated_spmv(blocks, x0_parts, t, policy="interleaved")
        inc = run_iterated_spmv(blocks, x0_parts, t, policy="interleaved",
                                incremental=True)
        assert np.array_equal(bulk.join(), inc.join())
        assert inc.fixpoint
        assert len(inc.convergence.sweeps) <= 4
