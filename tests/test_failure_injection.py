"""Failure injection: errors must surface, never hang the runtime."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DOoCEngine, Program
from repro.datacutter import (
    END_OF_STREAM,
    DataBuffer,
    Filter,
    FilterError,
    Layout,
    ThreadedRuntime,
)
from repro.sim import Environment, FlowNetwork, Link
from repro.util.rng import spawn


class TestDataCutterFailures:
    def test_error_in_init_surfaces(self):
        class BadInit(Filter):
            def init(self, ctx):
                raise RuntimeError("init failed")

            def process(self, ctx):
                pass

        layout = Layout("l")
        layout.add_filter("f", BadInit)
        with pytest.raises(FilterError) as exc:
            ThreadedRuntime(layout).run(timeout=20)
        assert "init failed" in repr(exc.value.cause)

    def test_error_in_finalize_surfaces(self):
        class BadFinalize(Filter):
            def process(self, ctx):
                pass

            def finalize(self, ctx):
                raise RuntimeError("finalize failed")

        layout = Layout("l")
        layout.add_filter("f", BadFinalize)
        with pytest.raises(FilterError):
            ThreadedRuntime(layout).run(timeout=20)

    def test_consumer_crash_does_not_hang_many_producers(self):
        class Src(Filter):
            outputs = ("out",)

            def process(self, ctx):
                for i in range(10_000):
                    ctx.write("out", DataBuffer(i))

        class CrashSoon(Filter):
            inputs = ("in",)

            def process(self, ctx):
                for _ in range(3):
                    ctx.read("in")
                raise ValueError("dead consumer")

        layout = Layout("l")
        layout.add_filter("src", Src, instances=3)
        layout.add_filter("dst", CrashSoon)
        layout.connect("src", "out", "dst", "in", capacity=2)
        with pytest.raises(FilterError):
            ThreadedRuntime(layout).run(timeout=30)

    def test_blocked_reader_unblocks_on_peer_crash(self):
        class Quiet(Filter):
            outputs = ("out",)

            def process(self, ctx):
                raise RuntimeError("producer died before writing")

        class Reader(Filter):
            inputs = ("in",)

            def process(self, ctx):
                ctx.read("in")  # would block forever without EOS-on-crash

        layout = Layout("l")
        layout.add_filter("p", Quiet)
        layout.add_filter("r", Reader)
        layout.connect("p", "out", "r", "in")
        with pytest.raises(FilterError):
            ThreadedRuntime(layout).run(timeout=30)


class TestEngineFailures:
    def test_worker_crash_multi_node_does_not_hang(self, tmp_path):
        def boom(ins, outs, meta):
            raise ValueError("kernel exploded")

        def ok(ins, outs, meta):
            outs["b"][:] = ins["x"]

        prog = Program("crash", default_block_elems=64)
        prog.initial_array("x", np.ones(64), home=0)
        prog.array("a", 64)
        prog.array("b", 64)
        prog.add_task("bad", boom, ["x"], ["a"])
        prog.add_task("good", ok, ["x"], ["b"])
        eng = DOoCEngine(n_nodes=2, scratch_dir=tmp_path)
        with pytest.raises(Exception):
            eng.run(prog, timeout=60)

    def test_missing_scratch_file_detected(self, tmp_path):
        prog = Program("missing", default_block_elems=8)
        prog.initial_from_scratch("ghost", 8, home=0)
        prog.array("y", 8)
        prog.add_task("t", lambda i, o, m: None, ["ghost"], ["y"])
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path)
        with pytest.raises(Exception, match="no backing file"):
            eng.run(prog, timeout=30)


class TestSimFailures:
    def test_failed_transfer_size_rejected_before_any_state_change(self):
        env = Environment()
        net = FlowNetwork(env)
        link = Link("l", 10.0)
        with pytest.raises(ValueError):
            net.transfer([link], -5)
        assert net.active_flow_count() == 0

    @given(seed=st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_flow_network_conserves_bytes(self, seed):
        """Whatever the interleaving, completed bytes equal offered bytes."""
        env = Environment()
        net = FlowNetwork(env)
        links = [Link(f"l{i}", float(10 ** (i % 3))) for i in range(3)]
        rng = spawn(seed, "conserve")
        total = 0.0

        def go(delay, size, route):
            yield env.timeout(delay)
            yield net.transfer(route, size)

        for _ in range(12):
            size = float(rng.uniform(0.1, 50.0))
            total += size
            route = [links[i] for i in sorted(
                rng.choice(3, size=int(rng.integers(1, 4)), replace=False))]
            env.process(go(float(rng.uniform(0, 3)), size, route))
        env.run()
        assert net.bytes_completed == pytest.approx(total, rel=1e-9)
        assert net.active_flow_count() == 0
