"""Real (non-simulated) out-of-core benchmarks on the threaded engine.

Laptop-scale counterparts of the headline claims, on real files and real
NumPy kernels: wall-clock numbers are indicative only (Python threads),
so assertions target load/spill/byte counts — the quantities the
scheduler actually controls.
"""

import numpy as np
import pytest

from repro.core import DOoCEngine
from repro.lanczos import OutOfCoreLanczos, lanczos
from repro.spmv.csrfile import serialize_csr
from repro.spmv.generator import choose_gap_parameter, gap_uniform_csr, symmetric_test_matrix
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
        ooc = OutOfCoreLanczos(blocks, n_nodes=1, scratch_dir=tmp_path)
        return ooc.solve(k=60, n_eigenvalues=3,
                         rng=np.random.default_rng(2), tol=1e-8)

    result = once(run)
    incore = lanczos(b.matvec, n, k=60, n_eigenvalues=3,
                     rng=np.random.default_rng(2), tol=1e-8)
    print()
    print(f"  lowest eigenvalues: {result.eigenvalues}")
    np.testing.assert_allclose(result.eigenvalues, incore.eigenvalues,
                               rtol=1e-6)


def bench_spmv_kernel_throughput(benchmark):
    """Microbenchmark: the SciPy CSR kernel the workers run."""
    rng = np.random.default_rng(3)
    b = gap_uniform_csr(20000, 20000, choose_gap_parameter(20000, 50), rng)
    x = rng.normal(size=20000)
    y = benchmark(lambda: b.matvec(x))
    assert y.shape == (20000,)


def bench_middleware_overhead(once, tmp_path):
    """Honest overhead quantification: the same iterated SpMV in-core
    (plain SciPy loop) vs through the full DOoC engine with ample memory.
    The engine pays for file seeding, message passing, and thread
    scheduling; the printed ratio is the cost of the middleware at a scale
    where I/O is NOT the bottleneck (at the paper's scale it is, and the
    middleware cost vanishes under it)."""
    import time

    matrix, p, blocks, x0 = _problem(n=3000, k=3, seed=4, nnz_per_row=40.0)

    t0 = time.perf_counter()
    want = iterated_spmv_reference(matrix, x0, 4)
    incore_s = time.perf_counter() - t0

    def run_engine():
        result = build_iterated_spmv(
            blocks, p.split_vector(x0), iterations=4, n_nodes=1,
            policy="interleaved")
        eng = DOoCEngine(n_nodes=1, workers=2,
                         memory_budget_per_node=1 << 30,
                         scratch_dir=tmp_path)
        report = eng.run(result.program, timeout=300)
        return result.fetch_final(eng), report

    got, report = once(run_engine)
    np.testing.assert_allclose(got, want, rtol=1e-9)
    print()
    print(f"  in-core SciPy loop: {incore_s * 1e3:.1f} ms")
    print(f"  DOoC engine:        {report.wall_seconds * 1e3:.1f} ms "
          f"({report.wall_seconds / max(incore_s, 1e-9):.0f}x overhead at "
          "laptop scale, I/O not binding)")
