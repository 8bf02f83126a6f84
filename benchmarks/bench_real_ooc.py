"""Real (non-simulated) out-of-core benchmarks on the threaded engine.

Laptop-scale counterparts of the headline claims, on real files and real
NumPy kernels: wall-clock numbers are indicative only (Python threads),
so assertions target load/spill/byte counts — the quantities the
scheduler actually controls.
"""

import numpy as np
import pytest

from repro.core import DOoCEngine
from repro.lanczos import lanczos
from repro.spmv.csrfile import serialize_csr
from repro.spmv.generator import choose_gap_parameter, gap_uniform_csr, symmetric_test_matrix
from repro.spmv.ooc_operator import OutOfCoreMatrix
from repro.spmv.partition import GridPartition
from repro.spmv.program import build_iterated_spmv
from repro.spmv.reference import iterated_spmv_reference


def _problem(n, k, seed, nnz_per_row=24.0):
    rng = np.random.default_rng(seed)
    p = GridPartition(n, k)
    matrix = gap_uniform_csr(n, n, choose_gap_parameter(n, nnz_per_row), rng)
    return matrix, p, p.split_matrix(matrix), rng.normal(size=n)


@pytest.mark.paper
def bench_real_ooc_iterated_spmv(once, tmp_path):
    """Out-of-core iterated SpMV under memory pressure, both policies."""
    matrix, p, blocks, x0 = _problem(n=2000, k=4, seed=0)
    a_bytes = max(len(serialize_csr(b)) for b in blocks.values())

    def run(policy):
        result = build_iterated_spmv(
            blocks, p.split_vector(x0), iterations=3, n_nodes=1,
            policy=policy)
        eng = DOoCEngine(
            n_nodes=1, workers=2,
            memory_budget_per_node=4 * a_bytes + 512 * 1024,
            scratch_dir=tmp_path / policy,
        )
        report = eng.run(result.program, timeout=300)
        got = result.fetch_final(eng)
        return report, got

    report, got = once(run, "interleaved")
    want = iterated_spmv_reference(matrix, x0, 3)
    np.testing.assert_allclose(got, want, rtol=1e-9)
    print()
    print(f"  loads={report.total_loads} spills={report.total_spills} "
          f"wall={report.wall_seconds:.2f}s")
    assert report.total_loads > 0  # genuinely out-of-core


@pytest.mark.paper
def bench_real_ooc_lanczos(once, tmp_path):
    """Out-of-core Lanczos finds the right lowest eigenvalues."""
    n, k = 600, 3
    b = symmetric_test_matrix(n, 12.0, np.random.default_rng(1),
                              diag_shift=40.0)
    p = GridPartition(n, k)
    blocks = p.split_matrix(b)

    def run():
        ooc = OutOfCoreMatrix(blocks, n_nodes=1, scratch_dir=tmp_path)
        return lanczos(ooc.matvec, n, k=60, n_eigenvalues=3,
                       rng=np.random.default_rng(2), tol=1e-8)

    result = once(run)
    incore = lanczos(b.matvec, n, k=60, n_eigenvalues=3,
                     rng=np.random.default_rng(2), tol=1e-8)
    print()
    print(f"  lowest eigenvalues: {result.eigenvalues}")
    np.testing.assert_allclose(result.eigenvalues, incore.eigenvalues,
                               rtol=1e-6)
