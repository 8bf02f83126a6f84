"""Integration tests: full DOoC engine runs on real threads and real files."""

import numpy as np
import pytest

from repro.core import DOoCEngine, DoocError, Program


def scale_fn(factor):
    def fn(ins, outs, meta):
        (in_name,) = list(ins)
        (out_name,) = list(outs)
        outs[out_name][:] = ins[in_name] * factor
    return fn


def add_fn(ins, outs, meta):
    (out_name,) = list(outs)
    total = None
    for arr in ins.values():
        total = arr.astype(float) if total is None else total + arr
    outs[out_name][:] = total


class TestSingleNode:
    def test_one_task_round_trip(self, tmp_path):
        prog = Program("p", default_block_elems=64)
        x = np.arange(100, dtype=float)
        prog.initial_array("x", x)
        prog.array("y", 100)
        prog.add_task("scale", scale_fn(3.0), ["x"], ["y"])
        eng = DOoCEngine(n_nodes=1, workers=2, scratch_dir=tmp_path)
        report = eng.run(prog, timeout=60)
        np.testing.assert_allclose(eng.fetch("y"), 3.0 * x)
        assert report.assignment == {"scale": 0}

    def test_chain_of_tasks(self, tmp_path):
        prog = Program("chain", default_block_elems=64)
        x = np.ones(50)
        prog.initial_array("a0", x)
        for i in range(5):
            prog.array(f"a{i+1}", 50)
            prog.add_task(f"t{i}", scale_fn(2.0), [f"a{i}"], [f"a{i+1}"])
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path)
        eng.run(prog, timeout=60)
        np.testing.assert_allclose(eng.fetch("a5"), 32.0 * x)

    def test_diamond_dependency(self, tmp_path):
        prog = Program("diamond", default_block_elems=64)
        prog.initial_array("x", np.full(10, 1.0))
        prog.array("l", 10)
        prog.array("r", 10)
        prog.array("out", 10)
        prog.add_task("left", scale_fn(2.0), ["x"], ["l"])
        prog.add_task("right", scale_fn(3.0), ["x"], ["r"])
        prog.add_task("join", add_fn, ["l", "r"], ["out"])
        eng = DOoCEngine(n_nodes=1, workers=2, scratch_dir=tmp_path)
        eng.run(prog, timeout=60)
        np.testing.assert_allclose(eng.fetch("out"), np.full(10, 5.0))

    def test_multi_block_arrays(self, tmp_path):
        prog = Program("blocks", default_block_elems=16)  # 7 blocks
        x = np.arange(100, dtype=float)
        prog.initial_array("x", x)
        prog.array("y", 100, block_elems=16)
        prog.add_task("scale", scale_fn(-1.0), ["x"], ["y"])
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path)
        eng.run(prog, timeout=60)
        np.testing.assert_allclose(eng.fetch("y"), -x)

    def test_out_of_core_spills_under_tiny_budget(self, tmp_path):
        # 8 arrays of 32 KiB with a 64 KiB budget: must spill/load.
        n = 4096
        prog = Program("ooc", default_block_elems=n)
        x = np.arange(n, dtype=float)
        prog.initial_array("a0", x)
        for i in range(8):
            prog.array(f"a{i+1}", n)
            prog.add_task(f"t{i}", scale_fn(1.0), [f"a{i}"], [f"a{i+1}"])
        eng = DOoCEngine(
            n_nodes=1, workers=1,
            memory_budget_per_node=64 * 1024 + 1024,
            scratch_dir=tmp_path,
        )
        report = eng.run(prog, timeout=120)
        np.testing.assert_allclose(eng.fetch("a8"), x)
        assert report.total_spills > 0
        assert report.metrics[0]["loads"] > 0

    def test_fetch_unknown_array_rejected(self, tmp_path):
        prog = Program("p", default_block_elems=64)
        prog.initial_array("x", np.ones(4))
        prog.array("y", 4)
        prog.add_task("t", scale_fn(1.0), ["x"], ["y"])
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path)
        eng.run(prog, timeout=60)
        with pytest.raises(DoocError, match="unknown array"):
            eng.fetch("ghost")

    def test_task_error_propagates(self, tmp_path):
        def boom(ins, outs, meta):
            raise ValueError("bad kernel")

        prog = Program("err", default_block_elems=64)
        prog.initial_array("x", np.ones(4))
        prog.array("y", 4)
        prog.add_task("t", boom, ["x"], ["y"])
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path)
        with pytest.raises(Exception):
            eng.run(prog, timeout=60)


class TestMultiNode:
    def test_cross_node_fetch(self, tmp_path):
        """Producer on node 0, consumer pulled to node 1 by data affinity."""
        def head_sum(ins, outs, meta):
            outs["y"][:] = ins["x"] + ins["big1"][:32]

        prog = Program("cross", default_block_elems=64)
        prog.initial_array("x", np.full(32, 2.0), home=0)
        prog.initial_array("big1", np.ones(4096), home=1)  # anchor node 1
        prog.array("y", 32)
        prog.add_task("consume", head_sum, ["x", "big1"], ["y"])
        # consume reads x (node 0, 256 B) and big1 (node 1, 32 KB):
        # affinity places it on node 1, forcing a remote fetch of x.
        eng = DOoCEngine(n_nodes=2, scratch_dir=tmp_path)
        report = eng.run(prog, timeout=60)
        assert report.assignment["consume"] == 1
        assert report.total_remote_fetches >= 1
        np.testing.assert_allclose(eng.fetch("y"), np.full(32, 3.0))

    def test_parallel_independent_tasks_spread(self, tmp_path):
        prog = Program("spread", default_block_elems=64)
        for i in range(4):
            prog.initial_array(f"x{i}", np.full(16, float(i)), home=i % 2)
            prog.array(f"y{i}", 16)
            prog.add_task(f"t{i}", scale_fn(10.0), [f"x{i}"], [f"y{i}"])
        eng = DOoCEngine(n_nodes=2, scratch_dir=tmp_path)
        report = eng.run(prog, timeout=60)
        assert {report.assignment[f"t{i}"] for i in range(4)} == {0, 1}
        for i in range(4):
            np.testing.assert_allclose(eng.fetch(f"y{i}"), np.full(16, 10.0 * i))

    def test_reduction_across_nodes(self, tmp_path):
        """partials on 3 nodes, summed on one: the SpMV reduce pattern."""
        prog = Program("reduce", default_block_elems=64)
        n = 128
        expected = np.zeros(n)
        for i in range(3):
            data = np.full(n, float(i + 1))
            expected += data
            prog.initial_array(f"p{i}", data, home=i)
        prog.array("total", n)
        prog.add_task("sum", add_fn, ["p0", "p1", "p2"], ["total"])
        eng = DOoCEngine(n_nodes=3, scratch_dir=tmp_path)
        report = eng.run(prog, timeout=60)
        np.testing.assert_allclose(eng.fetch("total"), expected)
        # Two of the three inputs had to cross nodes.
        assert report.total_remote_fetches >= 2

    def test_deterministic_results_across_seeds(self, tmp_path):
        """The directory RNG must not affect results."""
        def build():
            prog = Program("det", default_block_elems=32)
            prog.initial_array("a", np.arange(64, dtype=float), home=0)
            prog.initial_array("b", np.arange(64, dtype=float) * 2, home=1)
            prog.array("s", 64)
            prog.add_task("sum", add_fn, ["a", "b"], ["s"])
            return prog

        out = []
        for seed in [0, 1]:
            eng = DOoCEngine(n_nodes=2, scratch_dir=tmp_path / str(seed),
                             rng_seed=seed)
            eng.run(build(), timeout=60)
            out.append(eng.fetch("s"))
        np.testing.assert_array_equal(out[0], out[1])


class TestIteratedPattern:
    def test_iterated_axpy_like_chain_multi_node(self, tmp_path):
        """An iterated per-part update with cross-part mixing: the shape of
        iterated SpMV without the matrix."""
        parts, n, iters = 2, 64, 3
        prog = Program("iter", default_block_elems=64)
        vals = {}
        for p in range(parts):
            data = np.full(n, float(p + 1))
            vals[p] = data
            prog.initial_array(f"x0_{p}", data, home=p)
        for i in range(1, iters + 1):
            prev = {p: vals[p] for p in range(parts)}
            for p in range(parts):
                prog.array(f"x{i}_{p}", n)
                prog.add_task(
                    f"mix_{i}_{p}", add_fn,
                    [f"x{i-1}_{q}" for q in range(parts)],
                    [f"x{i}_{p}"],
                )
                vals[p] = sum(prev.values())
        eng = DOoCEngine(n_nodes=2, workers=2, scratch_dir=tmp_path)
        eng.run(prog, timeout=120)
        for p in range(parts):
            np.testing.assert_allclose(eng.fetch(f"x{iters}_{p}"), vals[p])


class TestValidation:
    def test_duplicate_array_rejected(self):
        prog = Program("p")
        prog.array("x", 10)
        with pytest.raises(DoocError, match="twice"):
            prog.array("x", 10)

    def test_task_undeclared_array_rejected(self):
        prog = Program("p")
        with pytest.raises(DoocError, match="undeclared"):
            prog.add_task("t", None, ["ghost"], [])

    def test_initial_array_must_be_1d(self):
        prog = Program("p")
        with pytest.raises(DoocError, match="1-D"):
            prog.initial_array("m", np.zeros((2, 2)))

    def test_bad_home_rejected_at_run(self, tmp_path):
        prog = Program("p", default_block_elems=8)
        prog.initial_array("x", np.ones(4), home=7)
        prog.array("y", 4)
        prog.add_task("t", scale_fn(1.0), ["x"], ["y"])
        eng = DOoCEngine(n_nodes=2, scratch_dir=tmp_path)
        with pytest.raises(DoocError, match="homed on node"):
            eng.run(prog)

    def test_engine_param_validation(self):
        with pytest.raises(DoocError):
            DOoCEngine(n_nodes=0)
        with pytest.raises(DoocError):
            DOoCEngine(workers=0)
