"""Tests for the filter-stream middleware (buffers, layout, threaded runtime)."""

import threading

import numpy as np
import pytest

from repro.datacutter import (
    END_OF_STREAM,
    DataBuffer,
    Filter,
    FilterError,
    Layout,
    LayoutError,
    StreamClosedError,
    ThreadedRuntime,
)


class TestDataBuffer:
    def test_nbytes_estimates(self):
        assert DataBuffer(np.zeros(10, dtype=np.float64)).nbytes == 80
        assert DataBuffer(b"abcd").nbytes == 4
        assert DataBuffer("hi").nbytes == 2
        assert DataBuffer(None).nbytes == 0
        assert DataBuffer([b"ab", b"cd"]).nbytes == 4
        assert DataBuffer({"k": b"abc"}).nbytes == 3
        assert DataBuffer(object()).nbytes == 64

    def test_explicit_nbytes_wins(self):
        assert DataBuffer(b"abcd", nbytes=100).nbytes == 100
        with pytest.raises(ValueError):
            DataBuffer(b"", nbytes=-1)

    def test_eos_is_falsy_singleton(self):
        assert not END_OF_STREAM
        assert END_OF_STREAM is type(END_OF_STREAM)()


class Source(Filter):
    """Writes ``items``, addressed to ``copies`` consumer copies in turn."""

    outputs = ("out",)

    def __init__(self, items, copies=1):
        self.items = items
        self.copies = copies

    def process(self, ctx):
        for i, item in enumerate(self.items):
            ctx.write("out", DataBuffer(item, {"__dest__": i % self.copies}))


class Transform(Filter):
    """Forwards ``fn(payload)`` from ``in`` to ``out``."""

    inputs = ("in",)
    outputs = ("out",)

    def __init__(self, fn):
        self.fn = fn

    def on(self, ctx, port, buf):
        if buf is END_OF_STREAM:
            return True
        ctx.write("out", DataBuffer(self.fn(buf.payload)))
        return False


class Collect(Filter):
    inputs = ("in",)
    results: list  # set per-instance in __init__

    def __init__(self, sink):
        self.sink = sink

    def process(self, ctx):
        while True:
            buf = ctx.read("in")
            if buf is END_OF_STREAM:
                return
            self.sink.append((ctx.instance, buf.payload))


def run_layout(items, *, workers=1, transform=lambda x: x * 10):
    sink = []
    layout = Layout("test")
    layout.add_filter("src", lambda: Source(items, workers))
    layout.add_filter("work", lambda: Transform(transform), instances=workers)
    layout.add_filter("col", lambda: Collect(sink))
    layout.connect("src", "out", "work", "in")
    layout.connect("work", "out", "col", "in")
    ThreadedRuntime(layout).run(timeout=20)
    return sink


class TestPipelines:
    def test_linear_pipeline(self):
        sink = run_layout([1, 2, 3, 4])
        assert sorted(p for _, p in sink) == [10, 20, 30, 40]

    def test_replicated_workers_process_everything(self):
        sink = run_layout(list(range(40)), workers=4)
        assert sorted(p for _, p in sink) == [i * 10 for i in range(40)]

    def test_round_robin_spreads_work(self):
        """A producer addressing four copies in turn gives each its share."""
        counts = [0, 0, 0, 0]
        lock = threading.Lock()
        sink = []
        layout = Layout("rr")
        layout.add_filter("src", lambda: Source(list(range(16)), copies=4))

        class Tally(Filter):
            inputs = ("in",)
            outputs = ("out",)

            def process(self, ctx):
                while True:
                    buf = ctx.read("in")
                    if buf is END_OF_STREAM:
                        return
                    with lock:
                        counts[ctx.instance] += 1
                    ctx.write("out", buf)

        layout.add_filter("work", Tally, instances=4)
        layout.add_filter("col", lambda: Collect(sink))
        layout.connect("src", "out", "work", "in")
        layout.connect("work", "out", "col", "in")
        ThreadedRuntime(layout).run(timeout=20)
        assert counts == [4, 4, 4, 4]

    def test_directed_policy_routes_by_dest(self):
        sink = []

        class DirectedSource(Filter):
            outputs = ("out",)

            def process(self, ctx):
                for dest in [2, 0, 1]:
                    ctx.write("out", DataBuffer(dest, {"__dest__": dest}))

        layout = Layout("dir")
        layout.add_filter("src", DirectedSource)
        layout.add_filter("col", lambda: Collect(sink), instances=3)
        layout.connect("src", "out", "col", "in")
        ThreadedRuntime(layout).run(timeout=20)
        assert sorted(sink) == [(0, 0), (1, 1), (2, 2)]

    def test_one_copy_consumer_needs_no_meta(self):
        sink = []

        class Bare(Filter):
            outputs = ("out",)

            def process(self, ctx):
                for item in (1, 2):
                    ctx.write("out", DataBuffer(item))

        layout = Layout("bare")
        layout.add_filter("src", Bare)
        layout.add_filter("col", lambda: Collect(sink))
        layout.connect("src", "out", "col", "in")
        ThreadedRuntime(layout).run(timeout=20)
        assert sink == [(0, 1), (0, 2)]

    @pytest.mark.parametrize("meta", [{}, {"__dest__": 3}, {"__dest__": -1}])
    def test_many_copy_consumer_needs_a_dest_in_range(self, meta):
        class Stray(Filter):
            outputs = ("out",)

            def process(self, ctx):
                ctx.write("out", DataBuffer(1, meta))

        layout = Layout("stray")
        layout.add_filter("src", Stray)
        layout.add_filter("col", lambda: Collect([]), instances=3)
        layout.connect("src", "out", "col", "in", name="to-col")
        with pytest.raises(FilterError) as excinfo:
            ThreadedRuntime(layout).run(timeout=20)
        assert excinfo.value.filter_name == "src"
        assert isinstance(excinfo.value.cause, StreamClosedError)
        assert "'to-col'" in str(excinfo.value.cause)

    def test_merging_two_streams_on_one_input_port(self):
        sink = []
        layout = Layout("merge")
        layout.add_filter("a", lambda: Source([1, 2]))
        layout.add_filter("b", lambda: Source([3, 4]))
        layout.add_filter("col", lambda: Collect(sink))
        layout.connect("a", "out", "col", "in")
        layout.connect("b", "out", "col", "in")
        ThreadedRuntime(layout).run(timeout=20)
        assert sorted(p for _, p in sink) == [1, 2, 3, 4]

    def test_fan_out_one_port_to_two_streams(self):
        sink_a, sink_b = [], []
        layout = Layout("fan")
        layout.add_filter("src", lambda: Source([1, 2, 3]))
        layout.add_filter("ca", lambda: Collect(sink_a))
        layout.add_filter("cb", lambda: Collect(sink_b))
        layout.connect("src", "out", "ca", "in")
        layout.connect("src", "out", "cb", "in")
        ThreadedRuntime(layout).run(timeout=20)
        assert sorted(p for _, p in sink_a) == [1, 2, 3]
        assert sorted(p for _, p in sink_b) == [1, 2, 3]

    def test_backpressure_small_capacity_still_completes(self):
        sink = []
        layout = Layout("bp")
        layout.add_filter("src", lambda: Source(list(range(100))))
        layout.add_filter("col", lambda: Collect(sink))
        layout.connect("src", "out", "col", "in", capacity=1)
        ThreadedRuntime(layout).run(timeout=30)
        assert len(sink) == 100

    def test_pipelined_parallelism_overlaps_stages(self):
        """Two dependent stages run concurrently on different buffers."""
        active = {"work": 0, "peak": 0}
        lock = threading.Lock()
        barrier_hit = threading.Event()

        def slowish(x):
            with lock:
                active["work"] += 1
                active["peak"] = max(active["peak"], active["work"])
            barrier_hit.wait(0.01)
            with lock:
                active["work"] -= 1
            return x

        sink = []
        layout = Layout("pipe")
        layout.add_filter("src", lambda: Source(list(range(30)), copies=3))
        layout.add_filter("w1", lambda: Transform(slowish), instances=3)
        layout.add_filter("col", lambda: Collect(sink))
        layout.connect("src", "out", "w1", "in")
        layout.connect("w1", "out", "col", "in")
        ThreadedRuntime(layout).run(timeout=30)
        assert len(sink) == 30
        assert active["peak"] >= 2  # replicas genuinely overlapped


class TestStats:
    def test_stream_stats_count_buffers_and_bytes(self):
        sink = []
        layout = Layout("stats")
        layout.add_filter("src", lambda: Source([b"aa", b"bbbb"]))
        layout.add_filter("col", lambda: Collect(sink))
        layout.connect("src", "out", "col", "in", name="s")
        rt = ThreadedRuntime(layout)
        rt.run(timeout=20)
        buffers, nbytes = rt.stream_stats()["s"]
        assert buffers == 2 and nbytes == 6


class TestErrors:
    def test_filter_exception_propagates_with_identity(self):
        def boom(x):
            raise ValueError("kaboom")

        with pytest.raises(FilterError) as excinfo:
            run_layout([1], transform=boom)
        assert excinfo.value.filter_name == "work"
        assert isinstance(excinfo.value.cause, ValueError)

    def test_blocked_writer_unblocks_on_consumer_crash(self):
        class Crash(Filter):
            inputs = ("in",)

            def process(self, ctx):
                ctx.read("in")
                raise RuntimeError("consumer died")

        layout = Layout("crash")
        layout.add_filter("src", lambda: Source(list(range(1000))))
        layout.add_filter("col", Crash)
        layout.connect("src", "out", "col", "in", capacity=1)
        with pytest.raises(FilterError):
            ThreadedRuntime(layout).run(timeout=30)

    def test_layout_validation_unknown_port(self):
        layout = Layout("bad")
        layout.add_filter("src", lambda: Source([1]))
        layout.add_filter("col", lambda: Collect([]))
        layout.connect("src", "nope", "col", "in")
        with pytest.raises(LayoutError, match="no output port"):
            ThreadedRuntime(layout)

    def test_layout_validation_unknown_filter(self):
        layout = Layout("bad")
        layout.add_filter("src", lambda: Source([1]))
        layout.connect("src", "out", "ghost", "in")
        with pytest.raises(LayoutError, match="unknown filter"):
            ThreadedRuntime(layout)

    def test_duplicate_filter_rejected(self):
        layout = Layout("dup")
        layout.add_filter("x", lambda: Source([1]))
        with pytest.raises(LayoutError, match="duplicate"):
            layout.add_filter("x", lambda: Source([2]))

    def test_self_loop_rejected(self):
        class Loop(Filter):
            inputs = ("in",)
            outputs = ("out",)

            def process(self, ctx):
                pass

        layout = Layout("loop")
        layout.add_filter("l", Loop)
        layout.connect("l", "out", "l", "in")
        with pytest.raises(LayoutError, match="self-loop"):
            ThreadedRuntime(layout)

    def test_unconnected_declared_input_reads_eos(self):
        sink = []

        class Lonely(Filter):
            inputs = ("in",)

            def process(self, ctx):
                sink.append(ctx.read("in"))

        layout = Layout("lonely")
        layout.add_filter("l", Lonely)
        ThreadedRuntime(layout).run(timeout=10)
        assert sink == [END_OF_STREAM]

    def test_unconnected_output_discards(self):
        layout = Layout("sinkless")
        layout.add_filter("src", lambda: Source([1, 2, 3]))
        ThreadedRuntime(layout).run(timeout=10)  # must not raise


class TestReadAny:
    def test_read_any_multiplexes_and_terminates(self):
        seen = []

        class Mux(Filter):
            inputs = ("a", "b")

            def process(self, ctx):
                while True:
                    port, buf = ctx.read_any(["a", "b"])
                    if buf is END_OF_STREAM:
                        return
                    seen.append((port, buf.payload))

        layout = Layout("mux")
        layout.add_filter("sa", lambda: Source([1, 2]))
        layout.add_filter("sb", lambda: Source([3]))
        layout.add_filter("mux", Mux)
        layout.connect("sa", "out", "mux", "a")
        layout.connect("sb", "out", "mux", "b")
        ThreadedRuntime(layout).run(timeout=20)
        assert sorted(seen) == [("a", 1), ("a", 2), ("b", 3)]

    def test_read_any_with_no_connected_ports(self):
        result = []

        class Empty(Filter):
            inputs = ("a",)

            def process(self, ctx):
                result.append(ctx.read_any(["a"]))

        layout = Layout("e")
        layout.add_filter("f", Empty)
        ThreadedRuntime(layout).run(timeout=10)
        assert result == [(None, END_OF_STREAM)]

    @pytest.mark.parametrize("call", ["read", "read_any"])
    def test_timed_wait_honours_its_deadline(self, call):
        """A timeout shorter than the runtime's poll slice used to be
        rounded up to the slice (10 ms became 50 ms), and with it every
        heartbeat, cancel-poll and retry period the engine passes down."""
        import time

        waited = []
        release = threading.Event()

        class Quiet(Filter):
            outputs = ("out",)

            def process(self, ctx):
                release.wait(10)  # keeps the stream open, sends nothing

        class Reader(Filter):
            inputs = ("in",)

            def process(self, ctx):
                start = time.monotonic()
                try:
                    with pytest.raises(TimeoutError):
                        if call == "read":
                            ctx.read("in", timeout=0.01)
                        else:
                            ctx.read_any(["in"], timeout=0.01)
                    waited.append(time.monotonic() - start)
                finally:
                    release.set()

        layout = Layout("deadline")
        layout.add_filter("quiet", Quiet)
        layout.add_filter("reader", Reader)
        layout.connect("quiet", "out", "reader", "in")
        ThreadedRuntime(layout).run(timeout=10)
        assert len(waited) == 1 and 0.01 <= waited[0] < 0.03


class TestFilterContext:
    def test_identity_visible_to_filters(self):
        seen = []

        class Probe(Filter):
            def process(self, ctx):
                seen.append((ctx.name, ctx.instance, ctx.instances))

        layout = Layout("ctx")
        layout.add_filter("probe", Probe, instances=3)
        ThreadedRuntime(layout).run(timeout=20)
        assert sorted(seen) == [("probe", 0, 3), ("probe", 1, 3), ("probe", 2, 3)]

    def test_each_copy_is_built_once(self):
        """The runtime checks ports against the filters it runs: no probe
        instance is built beside them."""
        built = []

        def factory():
            built.append(1)
            return Collect([])

        layout = Layout("once")
        layout.add_filter("src", lambda: Source([1, 2], copies=2))
        layout.add_filter("col", factory, instances=2)
        layout.connect("src", "out", "col", "in")
        ThreadedRuntime(layout).run(timeout=20)
        assert len(built) == 2
