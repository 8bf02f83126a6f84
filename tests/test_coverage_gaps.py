"""Coverage for smaller surfaces: CLI, filter placement/context, engine
variants (multi-block vectors, several I/O filters), determinism."""

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.core import DOoCEngine
from repro.datacutter import END_OF_STREAM, Filter, Layout, ThreadedRuntime
from repro.spmv.generator import choose_gap_parameter, gap_uniform_csr
from repro.spmv.partition import GridPartition
from repro.spmv.program import build_iterated_spmv
from repro.spmv.reference import iterated_spmv_reference


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig7" in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["table99"]) == 2

    def test_fig1_runs(self, capsys):
        assert cli_main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "memory hierarchy" in out
        assert "regenerated" in out

    def test_table4_with_nodes(self, capsys):
        assert cli_main(["table4", "--nodes", "1", "--seed", "0"]) == 0
        assert "Table IV" in capsys.readouterr().out


class TestFilterContext:
    def test_placement_and_identity_visible_to_filters(self):
        seen = []

        class Probe(Filter):
            def process(self, ctx):
                seen.append((ctx.name, ctx.instance, ctx.instances, ctx.node))

        layout = Layout("ctx")
        layout.add_filter("probe", Probe, instances=3, replicable=True,
                          placement=[5, 6, 7])
        ThreadedRuntime(layout).run(timeout=20)
        assert sorted(seen) == [
            ("probe", 0, 3, 5), ("probe", 1, 3, 6), ("probe", 2, 3, 7)]

    def test_placement_length_mismatch_rejected(self):
        from repro.datacutter import LayoutError

        layout = Layout("bad")
        with pytest.raises(LayoutError, match="placement"):
            layout.add_filter("f", Filter, instances=2, replicable=True,
                              placement=[0])

    def test_stop_requested_visible_after_failure(self):
        saw_stop = []

        class Boom(Filter):
            def process(self, ctx):
                raise RuntimeError("x")

        class Watcher(Filter):
            inputs = ("in",)

            def process(self, ctx):
                while not ctx.stop_requested:
                    try:
                        buf = ctx.read("in", timeout=0.05)
                    except TimeoutError:
                        continue
                    if buf is END_OF_STREAM:
                        break
                saw_stop.append(True)

        layout = Layout("stop")
        layout.add_filter("b", Boom)
        layout.add_filter("w", Watcher)
        with pytest.raises(Exception):
            ThreadedRuntime(layout).run(timeout=20)
        assert saw_stop == [True]


def spmv_problem(n=120, k=3, seed=0):
    rng = np.random.default_rng(seed)
    p = GridPartition(n, k)
    m = gap_uniform_csr(n, n, choose_gap_parameter(n, 8.0), rng)
    return m, p, p.split_matrix(m), rng.normal(size=n)


class TestEngineVariants:
    def test_multi_block_vectors_end_to_end(self, tmp_path):
        """Vector arrays split across several storage blocks exercise the
        worker's gather/scatter path."""
        m, p, blocks, x0 = spmv_problem()
        result = build_iterated_spmv(
            blocks, p.split_vector(x0), iterations=2, n_nodes=1,
            vector_block_elems=16)  # 40-row parts -> 3 blocks each
        eng = DOoCEngine(n_nodes=1, workers=2, scratch_dir=tmp_path)
        eng.run(result.program, timeout=120)
        np.testing.assert_allclose(
            result.fetch_final(eng), iterated_spmv_reference(m, x0, 2),
            rtol=1e-9)

    def test_multiple_io_filters(self, tmp_path):
        m, p, blocks, x0 = spmv_problem(seed=1)
        result = build_iterated_spmv(blocks, p.split_vector(x0),
                                     iterations=2, n_nodes=1)
        eng = DOoCEngine(n_nodes=1, workers=2,
                         io_filters_per_node=3, scratch_dir=tmp_path)
        eng.run(result.program, timeout=120)
        np.testing.assert_allclose(
            result.fetch_final(eng), iterated_spmv_reference(m, x0, 2),
            rtol=1e-9)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_results_identical_across_worker_counts(self, tmp_path, workers):
        """Scheduling nondeterminism must never change numerics."""
        m, p, blocks, x0 = spmv_problem(seed=2)
        result = build_iterated_spmv(blocks, p.split_vector(x0),
                                     iterations=2, n_nodes=1)
        eng = DOoCEngine(n_nodes=1, workers=workers,
                         scratch_dir=tmp_path / str(workers))
        eng.run(result.program, timeout=120)
        np.testing.assert_allclose(
            result.fetch_final(eng), iterated_spmv_reference(m, x0, 2),
            rtol=1e-9)

    def test_prefetch_depth_zero(self, tmp_path):
        m, p, blocks, x0 = spmv_problem(seed=3)
        result = build_iterated_spmv(blocks, p.split_vector(x0),
                                     iterations=1, n_nodes=1)
        eng = DOoCEngine(n_nodes=1, prefetch_depth=0, scratch_dir=tmp_path)
        eng.run(result.program, timeout=120)
        np.testing.assert_allclose(
            result.fetch_final(eng), iterated_spmv_reference(m, x0, 1),
            rtol=1e-9)
