"""The SpMV sweep is written once: its grid validation, its reduction tree
(the float summation order every bit-identity check rests on) and its
drive's input handling, pinned where they are written
(``repro.spmv.program``: ``_grid_partition``, ``_declare_row_reduction``)."""

import glob
import os
import tempfile

import numpy as np
import pytest

from repro.spmv.generator import symmetric_test_matrix
from repro.spmv.ooc_operator import OutOfCoreMatrix, SweepWorkset
from repro.spmv.partition import GridPartition, column_owner
from repro.spmv.program import (
    _grid_partition,
    build_iterated_spmv,
    run_iterated_spmv,
)

N, K = 96, 3


@pytest.fixture(scope="module")
def problem():
    m = symmetric_test_matrix(N, 6.0, np.random.default_rng(3),
                              diag_shift=20.0)
    p = GridPartition(N, K)
    return p, p.split_matrix(m), np.random.default_rng(4).standard_normal(N)


class TestGridValidation:
    """One function checks policy, K x K cover and block shapes for the
    unrolled builder, the operator and the drive."""

    def callers(self, blocks, policy, scratch):
        x0 = {u: np.zeros(N // K) for u in range(K)}
        return [
            lambda: _grid_partition(blocks, policy),
            lambda: build_iterated_spmv(blocks, x0, 1, policy=policy),
            lambda: OutOfCoreMatrix(blocks, policy=policy,
                                    scratch_dir=scratch),
            lambda: run_iterated_spmv(blocks, x0, 1, policy=policy),
        ]

    def test_returns_the_partition(self, problem):
        p, blocks, _ = problem
        got = _grid_partition(blocks, "interleaved")
        assert (got.n, got.k) == (p.n, p.k)

    def test_unknown_policy(self, problem, tmp_path):
        for call in self.callers(problem[1], "bogus", tmp_path):
            with pytest.raises(ValueError, match="unknown policy 'bogus'"):
                call()

    def test_incomplete_grid(self, problem, tmp_path):
        bad = dict(problem[1])
        del bad[(0, 0)]
        for call in self.callers(bad, "simple", tmp_path):
            with pytest.raises(ValueError,
                               match="must cover a complete K x K grid"):
                call()

    def test_block_of_the_wrong_shape(self, problem, tmp_path):
        bad = dict(problem[1])
        bad[(0, 1)] = bad[(0, 1)].from_scipy(
            bad[(0, 1)].to_scipy()[:, :-1])
        for call in self.callers(bad, "simple", tmp_path):
            with pytest.raises(ValueError, match=r"block \(0, 1\) has shape"):
                call()

    def test_refused_before_an_engine_exists(self, problem, tmp_path):
        with pytest.raises(ValueError):
            OutOfCoreMatrix(problem[1], policy="bogus", scratch_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


def reference_tree(policy, owner, u, ins, ylen, sum_name, psum_name,
                   part_name):
    """Row ``u``'s reduction of ``ins`` (column -> array), written out
    longhand: ``[(task, inputs, flops)]`` in declaration order."""
    if policy == "simple":
        return [(sum_name, [ins[v] for v in sorted(ins)],
                 float(ylen * (len(ins) - 1)))]
    tasks, final = [], []
    for node in sorted({owner(u, v) for v in ins}):
        mine = [ins[v] for v in sorted(ins) if owner(u, v) == node]
        if len(mine) == 1:          # a lone product goes straight to the sum
            final.append(mine[0])
            continue
        tasks.append((psum_name(node), mine, float(ylen * (len(mine) - 1))))
        final.append(part_name(node))
    return tasks + [(sum_name, final,
                     float(ylen * max(len(final) - 1, 1)))]


def reductions(prog, u, sum_name, psum_prefix):
    """The ``sum`` / ``psum`` tasks of row ``u`` as the program declares
    them: ``[(task, inputs, flops)]``."""
    return [(t.name, list(t.inputs), t.flops) for t in prog.tasks
            if t.name == sum_name or t.name.startswith(psum_prefix)]


#: owner groups of size 3 (one node), of size 1 (three nodes), and of
#: sizes 2 and 1 with the pair not adjacent (two nodes; ``column_owner``
#: needs K divisible by the node count, so that placement is spelled out)
PLACEMENTS = {
    "1-node": (1, lambda: column_owner(K, 1)),
    "2-nodes": (2, lambda: (lambda u, v: v % 2)),
    "3-nodes": (3, lambda: column_owner(K, 3)),
}


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("policy", ["simple", "interleaved"])
class TestSummationOrder:
    def test_unrolled_program(self, problem, policy, placement):
        p, blocks, x = problem
        n_nodes, make_owner = PLACEMENTS[placement]
        owner = make_owner()
        built = build_iterated_spmv(blocks, p.split_vector(x), 2,
                                    n_nodes=n_nodes, policy=policy,
                                    owner=owner)
        for i in (1, 2):
            for u in range(K):
                want = reference_tree(
                    policy, owner, u,
                    {v: f"y_{i}_{u}_{v}" for v in range(K)},
                    p.part_length(u), f"sum_{i}_{u}",
                    lambda node: f"psum_{i}_{u}_{node}",
                    lambda node: f"part_{i}_{u}_{node}")
                assert reductions(built.program, u, f"sum_{i}_{u}",
                                  f"psum_{i}_{u}_") == want

    def test_every_operator_sweep_kind(self, problem, policy, placement,
                                       tmp_path):
        p, blocks, x = problem
        n_nodes, make_owner = PLACEMENTS[placement]
        owner = make_owner()
        op = OutOfCoreMatrix(blocks, n_nodes=n_nodes, policy=policy,
                             owner=owner, scratch_dir=tmp_path)
        programs = []
        run = op.engine.run

        def recording_run(prog, **kwargs):
            programs.append(prog)
            return run(prog, **kwargs)

        op.engine.run = recording_run
        parts = p.split_vector(x)
        zeroed = x.copy()
        lo, hi = p.part_range(1)
        zeroed[lo:hi] = 0.0
        workset = SweepWorkset(op)
        try:
            op.matvec(x)                            # sweep 0: every column
            op.matvec(zeroed, frontier=True)        # 1: column 1 all zero
            workset.freeze(2, parts[2])             # 2: column 2's products
            op.matvec(x, workset=workset)           # 3: column 2 frozen
            op.stale_sweep([parts, p.split_vector(zeroed)],
                           {(u, v): (u + v) % 2     # 4: mixed ages
                            for u in range(K) for v in range(K)})
        finally:
            workset.close()
            op.engine.cleanup()
        assert [prog.name for prog in programs] == [
            "ooc-matvec-0", "ooc-matvec-1", "ooc-colprod-2", "ooc-matvec-3",
            "ooc-async-4"]
        fed = {
            0: lambda u: {v: f"it0_y_{u}_{v}" for v in range(K)},
            1: lambda u: {v: f"it1_y_{u}_{v}" for v in (0, 2)},
            3: lambda u: {0: f"it3_y_{u}_0", 1: f"it3_y_{u}_1",
                          2: f"frozen2_y_{u}_2"},
            4: lambda u: {v: f"it4_y_{u}_{v}" for v in range(K)},
        }
        for t, ins in fed.items():
            for u in range(K):
                want = reference_tree(
                    policy, owner, u, ins(u), p.part_length(u),
                    f"it{t}_sum_{u}", lambda node: f"it{t}_psum_{u}_{node}",
                    lambda node: f"it{t}_part_{u}_{node}")
                assert reductions(programs[t], u, f"it{t}_sum_{u}",
                                  f"it{t}_psum_{u}_") == want, (t, u)
        # the products program reduces nothing
        assert [t.name for t in programs[2].tasks] == [
            f"it2_mult_{u}_2" for u in range(K)]


class TestDriveInputs:
    def test_no_checkpoint_directory_means_one_program(self, problem,
                                                       tmp_path):
        """``checkpoint_every`` without ``checkpoint_dir`` has no chunk
        boundary to write at, so it must not chunk."""
        p, blocks, x = problem
        x0 = p.split_vector(x / np.abs(x).max())
        loose = run_iterated_spmv(blocks, x0, 6, checkpoint_every=2)
        assert len(loose.reports) == 1
        assert loose.checkpoint_writes == 0
        chunked = run_iterated_spmv(blocks, x0, 6, checkpoint_every=2,
                                    checkpoint_dir=tmp_path)
        assert len(chunked.reports) == 3
        assert chunked.checkpoint_writes == 3
        assert loose.join().tobytes() == chunked.join().tobytes()

    def test_matvec_converts_before_it_checks(self, problem, tmp_path):
        p, blocks, x = problem
        op = OutOfCoreMatrix(blocks, scratch_dir=tmp_path)
        try:
            assert op.matvec(list(x)).tobytes() == op.matvec(x).tobytes()
            with pytest.raises(ValueError, match="x has shape"):
                op.matvec(list(x)[:-1])
            part = p.split_vector(x)[1]
            names = op.column_products(1, list(part))
            assert sorted(names) == list(range(K))
            op.drop_products(names)
            with pytest.raises(ValueError, match="x_v has shape"):
                op.column_products(1, list(part)[:-1])
            assert op.matvec_count == 3   # a refused call takes no number
        finally:
            op.engine.cleanup()

    @pytest.mark.parametrize("incremental", [False, True])
    def test_bad_x0_parts_is_refused_before_an_engine_exists(
            self, problem, incremental):
        p, blocks, x = problem

        def scratch_dirs():
            return set(glob.glob(os.path.join(
                tempfile.gettempdir(), f"dooc-{os.getpid()}-*")))

        before = scratch_dirs()
        parts = p.split_vector(x)
        short = dict(parts)
        del short[2]
        with pytest.raises(ValueError, match="one part per grid row") as keys:
            run_iterated_spmv(blocks, short, 2, incremental=incremental)
        wrong = {**parts, 1: parts[1][:-1]}
        with pytest.raises(ValueError, match="x0 part 1 has wrong") as length:
            run_iterated_spmv(blocks, wrong, 2, incremental=incremental)
        # checked while the tracebacks (and so the drive's frames) are
        # alive: no engine is waiting for its finalizer to clean up
        assert scratch_dirs() == before, (keys, length)
