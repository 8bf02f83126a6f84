"""Tests for the :mod:`repro.obs` observability package."""

import json
import threading

import pytest

from repro.obs import (
    SCHEMA_VERSION,
    MetricsRegistry,
    TraceEvent,
    Tracer,
    export_chrome_trace,
    load_chrome_trace,
    load_events_jsonl,
    normalize_chrome_trace,
    save_events_jsonl,
    to_chrome,
    validate_chrome_trace,
)
from repro.obs.cli import main as trace_cli


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestTracer:
    def test_instant_uses_injected_clock(self):
        clock = FakeClock(100.0)
        tr = Tracer(clock=clock)
        clock.advance(1.5)
        tr.instant(0, "sched", "sched", "prefetch", array="A_0_0")
        (e,) = tr.events()
        assert e.ts == pytest.approx(1.5)  # relative to the epoch
        assert (e.node, e.lane, e.cat, e.name, e.ph) == (
            0, "sched", "sched", "prefetch", "i")
        assert e.args == {"array": "A_0_0"}

    def test_span_records_duration(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span(1, "worker/0", "task", "task", task="t0"):
            clock.advance(2.0)
        (e,) = tr.events()
        assert e.ph == "X"
        assert e.dur == pytest.approx(2.0)
        assert e.ts == pytest.approx(0.0)

    def test_counter_event(self):
        tr = Tracer(clock=FakeClock())
        tr.counter(0, "storage", "storage", "alloc_queue", 7)
        (e,) = tr.events()
        assert e.ph == "C" and e.args["value"] == 7

    def test_disabled_records_nothing_but_keeps_heartbeat(self):
        clock = FakeClock()
        tr = Tracer(enabled=False, clock=clock)
        clock.advance(3.0)
        tr.instant(0, "x", "task", "task")
        assert tr.events() == []
        assert tr.last_activity == pytest.approx(3.0)

    def test_ring_overflow_counts_dropped(self):
        tr = Tracer(capacity=4, clock=FakeClock())
        for i in range(10):
            tr.instant(0, "x", "task", f"e{i}")
        events = tr.events()
        assert len(events) == 4
        assert [e.name for e in events] == ["e6", "e7", "e8", "e9"]
        assert tr.dropped() == {0: 6}

    def test_per_node_rings_and_filter(self):
        tr = Tracer(clock=FakeClock())
        tr.instant(0, "x", "task", "a")
        tr.instant(1, "x", "task", "b")
        assert [e.name for e in tr.events(node=1)] == ["b"]
        assert len(tr.events()) == 2

    def test_drain_clears(self):
        tr = Tracer(clock=FakeClock())
        tr.instant(0, "x", "task", "a")
        assert len(tr.drain()) == 1
        assert tr.events() == []

    def test_concurrent_emit(self):
        tr = Tracer(capacity=1 << 14)
        n_threads, per_thread = 8, 200

        def emitter(tid):
            for i in range(per_thread):
                tr.instant(tid % 3, f"lane{tid}", "task", "task", i=i)

        threads = [threading.Thread(target=emitter, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tr.events()) == n_threads * per_thread
        assert tr.dropped() == {}

    def test_event_json_round_trip(self):
        e = TraceEvent(1.25, 2, "io/0", "io", "read", "X", 0.5,
                       {"array": "a", "block": 3})
        assert TraceEvent.from_json(e.to_json()) == e


class TestMetricsRegistry:
    def test_counters_and_labels(self):
        m = MetricsRegistry(0)
        m.inc("loads", label="a")
        m.inc("loads", 2, label="b")
        m.inc("spills")
        assert m.get("loads") == 3
        assert m.labeled("loads") == {"a": 1, "b": 2}
        assert m.get("missing") == 0

    def test_observe_max(self):
        m = MetricsRegistry()
        m.observe_max("depth", 3)
        m.observe_max("depth", 1)
        assert m.maximum("depth") == 3

    def test_as_dict_flattens(self):
        m = MetricsRegistry()
        m.inc("loads", label="a")
        m.observe_max("depth", 5)
        d = m.as_dict()
        assert d["loads"] == 1
        assert d["loads_by_label"] == {"a": 1}
        assert d["depth_max"] == 5


def scripted_events() -> list[TraceEvent]:
    """A fixed miniature run used by the export and golden-file tests."""
    return [
        TraceEvent(0.0, -1, "engine", "run", "phase", "i",
                   args={"phase": "start"}),
        TraceEvent(0.001, 0, "sched", "sched", "prefetch", "i",
                   args={"array": "A_0_0"}),
        TraceEvent(0.002, 0, "io/0", "io", "read", "X", 0.004,
                   args={"array": "A_0_0", "block": 0}),
        TraceEvent(0.002, 0, "storage", "storage", "load", "X", 0.005,
                   args={"array": "A_0_0", "block": 0}),
        TraceEvent(0.008, 0, "sched", "task", "dispatch", "i",
                   args={"task": "mult_0", "worker": 0}),
        TraceEvent(0.009, 0, "worker/0", "task", "grant_wait", "X", 0.001,
                   args={"op": "read", "array": "A_0_0"}),
        TraceEvent(0.010, 0, "worker/0", "task", "task", "X", 0.02,
                   args={"task": "mult_0"}),
        TraceEvent(0.031, 0, "storage", "storage", "spill", "X", 0.003,
                   args={"array": "y_0", "block": 0}),
        TraceEvent(0.034, 0, "storage", "storage", "drop", "i",
                   args={"array": "A_0_0", "block": 0}),
        TraceEvent(0.035, 1, "storage", "storage", "fetch_remote", "X", 0.002,
                   args={"array": "x_0", "block": 0}),
        TraceEvent(0.036, 1, "storage", "storage", "alloc_queue", "C",
                   args={"value": 2}),
        TraceEvent(0.040, -1, "engine", "run", "phase", "i",
                   args={"phase": "end"}),
    ]


class TestChromeExport:
    def test_structure(self):
        doc = to_chrome(scripted_events())
        events = validate_chrome_trace(doc)
        meta = [e for e in events if e["ph"] == "M"]
        assert {m["pid"] for m in meta} == {-1, 0, 1}
        assert {m["args"]["name"] for m in meta} == {"engine", "node0", "node1"}
        assert doc["otherData"]["schema_version"] == SCHEMA_VERSION
        spans = [e for e in events if e["ph"] == "X"]
        assert all(isinstance(e["dur"], (int, float)) for e in spans)
        # seconds -> microseconds
        load = next(e for e in spans if e["name"] == "load")
        assert load["ts"] == pytest.approx(2000.0)
        assert load["dur"] == pytest.approx(5000.0)
        instants = [e for e in events if e["ph"] == "i"]
        assert all(e["s"] == "t" for e in instants)
        counter = next(e for e in events if e["ph"] == "C")
        assert counter["args"] == {"value": 2}

    def test_export_and_validate_file(self, tmp_path):
        path = export_chrome_trace(scripted_events(), tmp_path / "t.json")
        doc = load_chrome_trace(path)
        assert validate_chrome_trace(doc)

    @pytest.mark.parametrize("doc", [
        [],
        {"traceEvents": "nope"},
        {"traceEvents": [{"ph": "Z", "name": "x", "pid": 0, "ts": 0}]},
        {"traceEvents": [{"ph": "i", "pid": 0, "ts": 0}]},
        {"traceEvents": [{"ph": "i", "name": "x", "pid": 0, "ts": -5}]},
        {"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "ts": 0}]},
    ])
    def test_validate_rejects_malformed(self, doc):
        with pytest.raises(ValueError):
            validate_chrome_trace(doc)

    def test_jsonl_round_trip(self, tmp_path):
        events = scripted_events()
        path = save_events_jsonl(events, tmp_path / "t.jsonl")
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"schema_version": SCHEMA_VERSION}
        assert load_events_jsonl(path) == events

    def test_normalize_is_shift_invariant(self):
        events = scripted_events()
        shifted = [TraceEvent(e.ts + 17.3, e.node, e.lane, e.cat, e.name,
                              e.ph, e.dur * 3.0, e.args) for e in events]
        a = normalize_chrome_trace(to_chrome(events))
        b = normalize_chrome_trace(to_chrome(shifted))
        assert a == b


class TestGoldenChromeTrace:
    def test_matches_golden_file(self):
        from pathlib import Path
        golden_path = Path(__file__).parent / "data" / "golden_chrome_trace.json"
        golden = json.loads(golden_path.read_text())
        got = normalize_chrome_trace(to_chrome(scripted_events()))
        assert got == golden, (
            "exported Chrome-trace schema drifted from the golden file; if "
            "the change is intentional, regenerate tests/data/"
            "golden_chrome_trace.json (see docs/OBSERVABILITY.md)")


class TestEngineTraceIntegration:
    """A real traced engine run exports a valid, complete Chrome trace."""

    def _chain_program(self, nodes=2, length=4096, links=5):
        import numpy as np

        from repro.core import Program

        def step(ins, outs, meta):
            (o,) = list(outs)
            (i,) = list(ins)
            outs[o][:] = ins[i] + 1.0

        def join(ins, outs, meta):
            (o,) = list(outs)
            total = None
            for arr in ins.values():
                total = arr.astype(float) if total is None else total + arr
            outs[o][:] = total

        prog = Program("traced", default_block_elems=length)
        for node in range(nodes):
            x = np.arange(length, dtype=float)
            prog.initial_array(f"x{node}", x, home=node)
            prog.initial_array(f"z{node}", np.ones(length), home=node)
            prev = f"x{node}"
            for i in range(links):
                out = f"y{node}_{i}"
                prog.array(out, length)
                prog.add_task(f"t{node}_{i}", step, [prev], [out])
                prev = out
            prog.array(f"out{node}", length)
            # z goes cold during the chain: the join's prefetch must
            # re-warm it, and its spilled/loaded round trip shows up.
            prog.add_task(f"join{node}", join, [prev, f"z{node}"],
                          [f"out{node}"])
        return prog

    def test_run_trace_has_all_event_kinds_on_all_nodes(self, tmp_path):
        from repro.core import DOoCEngine

        prog = self._chain_program()
        # Budget for ~3.3 blocks per node: enough for any one task's pins
        # (3 blocks), tight enough to force loads, spills and prefetches.
        eng = DOoCEngine(n_nodes=2, memory_budget_per_node=110_000,
                         scratch_dir=tmp_path, trace=True)
        report = eng.run(prog, timeout=120)
        events = report.trace_events
        assert events
        kinds = {(e.cat, e.name) for e in events}
        for expected in [("task", "task"), ("task", "dispatch"),
                         ("storage", "load"), ("storage", "spill"),
                         ("sched", "prefetch"), ("io", "read"),
                         ("io", "write"), ("run", "phase")]:
            assert expected in kinds, f"missing {expected} in trace"
        # Every node contributed task AND storage events.
        for node in (0, 1):
            cats = {e.cat for e in events if e.node == node}
            assert {"task", "storage"} <= cats
        # Spans carry non-negative durations; instants none.
        assert all(e.dur >= 0 for e in events)
        # The exported file is a structurally valid Chrome trace.
        path = report.save_chrome_trace(tmp_path / "run.json")
        validate_chrome_trace(load_chrome_trace(path))
        # And the JSONL round-trips losslessly.
        jsonl = report.save_trace(tmp_path / "run.jsonl")
        assert load_events_jsonl(jsonl) == sorted(
            events, key=lambda e: (e.ts, e.node, e.lane))

    def test_untraced_run_is_empty_but_reports_metrics(self, tmp_path):
        from repro.core import DOoCEngine

        prog = self._chain_program(nodes=1, links=2)
        eng = DOoCEngine(n_nodes=1, scratch_dir=tmp_path)
        report = eng.run(prog, timeout=60)
        assert report.trace_events == []
        assert report.metrics[0]["loads"] >= 1


class TestTraceCLI:
    def test_summary_of_jsonl(self, tmp_path, capsys):
        path = save_events_jsonl(scripted_events(), tmp_path / "run.jsonl")
        assert trace_cli([str(path)]) == 0
        out = capsys.readouterr().out
        assert "12 events" in out
        assert "3 node(s)" in out
        assert "task.task" in out

    def test_convert_to_chrome(self, tmp_path, capsys):
        src = save_events_jsonl(scripted_events(), tmp_path / "run.jsonl")
        dst = tmp_path / "run.json"
        assert trace_cli([str(src), "-o", str(dst)]) == 0
        assert validate_chrome_trace(load_chrome_trace(dst))

    def test_summary_of_chrome_json(self, tmp_path, capsys):
        path = export_chrome_trace(scripted_events(), tmp_path / "run.json")
        assert trace_cli([str(path)]) == 0
        assert "events" in capsys.readouterr().out

    def test_module_dispatch(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main
        path = save_events_jsonl(scripted_events(), tmp_path / "run.jsonl")
        assert repro_main(["trace", str(path)]) == 0
        assert "events" in capsys.readouterr().out
