"""Soak tests: the engine under sustained pressure must neither deadlock
nor corrupt results."""

import numpy as np
import pytest

from repro.core import DOoCEngine
from repro.spmv.csrfile import serialize_csr
from repro.spmv.generator import choose_gap_parameter, gap_uniform_csr
from repro.spmv.partition import GridPartition
from repro.spmv.program import build_iterated_spmv
from repro.spmv.reference import iterated_spmv_reference


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tight_memory_many_iterations(tmp_path, seed):
    """5 iterations, 2 nodes, 2 workers each, budget ~2 sub-matrices:
    heavy churn of loads, spills, remote fetches, and GC."""
    n, k, iters = 200, 4, 5
    rng = np.random.default_rng(seed)
    p = GridPartition(n, k)
    m = gap_uniform_csr(n, n, choose_gap_parameter(n, 25.0), rng)
    blocks = p.split_matrix(m)
    x0 = rng.normal(size=n)
    result = build_iterated_spmv(
        blocks, p.split_vector(x0), iterations=iters, n_nodes=2,
        policy="interleaved")
    a_bytes = max(len(serialize_csr(b)) for b in blocks.values())
    eng = DOoCEngine(
        n_nodes=2, workers=2,
        memory_budget_per_node=2 * a_bytes + 40 * n,
        scratch_dir=tmp_path, gc_arrays=True,
    )
    report = eng.run(result.program, timeout=300)
    np.testing.assert_allclose(
        result.fetch_final(eng), iterated_spmv_reference(m, x0, iters),
        rtol=1e-8)
    # The run must genuinely have exercised the out-of-core machinery.
    assert report.total_loads > k * k  # matrices reloaded across iterations


def test_many_small_tasks_throughput(tmp_path):
    """A wide, shallow DAG: 60 independent tasks over 3 nodes, 3 workers
    each — exercises the dispatch path more than the storage path."""
    from repro.core import Program

    def bump(ins, outs, meta):
        (out,) = list(outs)
        (inp,) = list(ins)
        outs[out][:] = ins[inp] + meta["delta"]

    prog = Program("wide", default_block_elems=256)
    for i in range(60):
        prog.initial_array(f"x{i}", np.full(256, float(i)), home=i % 3)
        prog.array(f"y{i}", 256)
        prog.add_task(f"t{i}", bump, [f"x{i}"], [f"y{i}"], delta=0.5)
    eng = DOoCEngine(n_nodes=3, workers=3, scratch_dir=tmp_path)
    report = eng.run(prog, timeout=120)
    for i in range(60):
        np.testing.assert_allclose(eng.fetch(f"y{i}"), np.full(256, i + 0.5))
    # Affinity kept every task local: no remote fetches at all.
    assert report.total_remote_fetches == 0
