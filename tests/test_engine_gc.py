"""Tests for DAG-driven array garbage collection (the storage layer's
delete interface, exercised end to end)."""

import numpy as np
import pytest

from repro.core import DOoCEngine, DoocError, Program
from repro.core.iofilter import array_path


def scale_fn(ins, outs, meta):
    (in_name,) = list(ins)
    (out_name,) = list(outs)
    outs[out_name][:] = ins[in_name] * meta.get("factor", 2.0)


def chain_program(stages=6, n=512):
    prog = Program("gc-chain", default_block_elems=n)
    x = np.arange(n, dtype=float)
    prog.initial_array("a0", x)
    for i in range(stages):
        prog.array(f"a{i+1}", n)
        prog.add_task(f"t{i}", scale_fn, [f"a{i}"], [f"a{i+1}"], factor=2.0)
    return prog, x, stages


class TestGarbageCollection:
    def test_intermediates_deleted_result_kept(self, tmp_path):
        prog, x, stages = chain_program()
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path, gc_arrays=True)
        eng.run(prog, timeout=60)
        # The terminal output survives and is correct.
        np.testing.assert_allclose(eng.fetch(f"a{stages}"), x * 2.0 ** stages)
        # Intermediates are gone from the store.
        store = eng.stores[0]
        for i in range(1, stages):
            assert not store.has_array(f"a{i}")
        # The initial array is never collected.
        assert store.has_array("a0")

    def test_gc_disabled_keeps_everything(self, tmp_path):
        prog, x, stages = chain_program()
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path, gc_arrays=False)
        eng.run(prog, timeout=60)
        store = eng.stores[0]
        for i in range(stages + 1):
            assert store.has_array(f"a{i}")

    def test_gc_unlinks_scratch_files(self, tmp_path):
        """Under a tiny budget, intermediates spill to scratch files; with
        GC those files are unlinked (or never created, because the array
        died before eviction needed to persist it)."""
        def leftover_files(gc):
            prog, x, stages = chain_program(stages=8, n=4096)
            eng = DOoCEngine(
                n_nodes=1, workers=1,
                memory_budget_per_node=3 * 4096 * 8 + 1024,
                scratch_dir=tmp_path / f"gc{gc}", gc_arrays=gc,
            )
            report = eng.run(prog, timeout=120)
            np.testing.assert_allclose(
                eng.fetch(f"a{stages}"), x * 2.0 ** stages)
            scratch = eng.node_scratch(0)
            files = sum(
                array_path(scratch, f"a{i}").exists()
                for i in range(1, stages)
            )
            return files, report.total_spills

        files_without, spills_without = leftover_files(False)
        files_with, _ = leftover_files(True)
        assert spills_without > 0          # the budget genuinely bites
        assert files_without > 0           # ... leaving spill files behind
        assert files_with < files_without  # GC removes (or avoids) them

    def test_gc_bounds_memory_on_long_chains(self, tmp_path):
        """With GC, a long chain needs spills only for the working set;
        without it, dead intermediates must be spilled to make room."""
        def run(gc):
            prog, _, stages = chain_program(stages=10, n=4096)
            eng = DOoCEngine(
                n_nodes=1, workers=1,
                memory_budget_per_node=4 * 4096 * 8,
                scratch_dir=tmp_path / f"gc{gc}", gc_arrays=gc,
            )
            return eng.run(prog, timeout=120)

        with_gc = run(True)
        without_gc = run(False)
        assert with_gc.total_spills <= without_gc.total_spills

    def test_gc_across_nodes_clears_cached_copies(self, tmp_path):
        """Consumers' remotely-fetched cached copies are collected too."""
        def head_sum(ins, outs, meta):
            outs["out"][:] = ins["left"] + ins["right"]

        prog = Program("gc-cross", default_block_elems=256)
        prog.initial_array("x", np.full(256, 1.0), home=0)
        prog.array("left", 256)
        prog.array("right", 256)
        prog.array("out", 256)
        prog.add_task("l", scale_fn, ["x"], ["left"], factor=2.0)
        prog.add_task("r", scale_fn, ["x"], ["right"], factor=3.0)
        prog.add_task("join", head_sum, ["left", "right"], ["out"])
        eng = DOoCEngine(n_nodes=2, scratch_dir=tmp_path, gc_arrays=True)
        report = eng.run(prog, timeout=60)
        np.testing.assert_allclose(eng.fetch("out"), np.full(256, 5.0))
        for node in range(2):
            store = eng.stores[node]
            assert not store.has_array("left")
            assert not store.has_array("right")

    def test_fetch_of_collected_array_fails_cleanly(self, tmp_path):
        prog, x, stages = chain_program(stages=3)
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path, gc_arrays=True)
        eng.run(prog, timeout=60)
        with pytest.raises(DoocError):
            eng.fetch("a1")
