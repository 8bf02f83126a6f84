"""Ablation: data-aware reordering on vs off in the real engine.

The paper's claim is that the back-and-forth plan "is automatically
discovered and executed by the DOoC middleware without requiring any
effort or input from the application programmer."  With the reordering
switched off, the same engine must fall back to ~Fig. 5(a) load counts.
"""

import numpy as np

from repro.core import DOoCEngine
from repro.core.local_scheduler import LocalSchedulerCore
from repro.core.task import task
from repro.spmv.csrfile import serialize_csr
from repro.spmv.generator import choose_gap_parameter, gap_uniform_csr
from repro.spmv.partition import GridPartition, column_owner
from repro.spmv.program import build_iterated_spmv
from repro.spmv.reference import iterated_spmv_reference


def noop(ins, outs, meta):
    pass


class TestCoreFifoMode:
    def test_fifo_ignores_residency(self):
        ls = LocalSchedulerCore(0, reorder=False)
        ls.add_ready(task("cold", noop, ["A0"], ["y0"]))
        ls.add_ready(task("hot", noop, ["A1"], ["y1"]))
        picked = ls.choose(resident={"A1"}, nbytes={"A0": 1, "A1": 1}).task
        assert picked.name == "cold"  # strict FIFO

    def test_fifo_is_stable(self):
        ls = LocalSchedulerCore(0, reorder=False)
        for i in range(5):
            ls.add_ready(task(f"t{i}", noop, [], [f"y{i}"]))
        order = [ls.choose(set(), {}).task.name for _ in range(5)]
        assert order == [f"t{i}" for i in range(5)]


def matrix_loads(report):
    return sum(
        c for m in report.metrics.values()
        for a, c in m["loads_by_label"].items() if a.startswith("A_")
    )


class TestEngineAblation:
    def run_engine(self, tmp_path, reorder, iterations=3):
        k = 3
        rng = np.random.default_rng(3)
        n = 150
        p = GridPartition(n, k)
        m = gap_uniform_csr(n, n, choose_gap_parameter(n, 20.0), rng)
        blocks = p.split_matrix(m)
        x0 = rng.normal(size=n)
        result = build_iterated_spmv(
            blocks, p.split_vector(x0), iterations=iterations, n_nodes=k,
            policy="simple", owner=column_owner(k, k))
        a_bytes = max(len(serialize_csr(b)) for b in blocks.values())
        eng = DOoCEngine(
            n_nodes=k, workers=1,
            memory_budget_per_node=int(a_bytes * 1.5) + 3000,
            scratch_dir=tmp_path / str(reorder),
            scheduler_reorder=reorder,
        )
        report = eng.run(result.program, timeout=300)
        got = result.fetch_final(eng)
        want = iterated_spmv_reference(m, x0, iterations)
        np.testing.assert_allclose(got, want, rtol=1e-9)
        return matrix_loads(report)

    def test_reordering_saves_loads(self, tmp_path):
        smart = self.run_engine(tmp_path, reorder=True)
        naive = self.run_engine(tmp_path, reorder=False)
        # Naive plan: ~3 loads per node per iteration (27 total); the
        # data-aware plan tracks Fig. 5b (21). Both runs are correct; only
        # the I/O traffic differs.  Thread timing occasionally lets the FIFO
        # run reuse a block or two across iterations, so allow a small slack
        # below the ideal k*k*iterations = 27 full-reload count.
        assert smart < naive
        assert naive >= 23  # essentially a full reload every iteration
