"""The traced repeat: keep the engine's events, lay them on the benchmark's
time axis, and reduce them to the ``trace.*`` per-layer metrics.

The engine already records spans when built with ``trace=``; nothing is
added to it.  ``KeepTracer`` only stops the events being thrown away by
callers that discard the ``RunReport`` (``OutOfCoreMatrix.matvec``, the job
server's runner), so one code path serves all six workloads.
"""

from __future__ import annotations

import time

from repro.obs import Tracer

#: (category, name) of the engine's duration spans -> per-layer metric
ENGINE_SPANS = {
    ("task", "task"): "trace.task_s",
    ("task", "grant_wait"): "trace.grant_wait_s",
    ("storage", "load"): "trace.load_s",
    ("io", "read"): "trace.read_s",
    ("storage", "spill"): "trace.spill_s",
    ("io", "write"): "trace.write_s",
    ("storage", "fetch_remote"): "trace.fetch_remote_s",
}


class KeepTracer(Tracer):
    """A disabled-by-default tracer that remembers what ``drain`` removed.

    Disabled it costs what the engine's own default tracer costs (a clock
    read per emit); ``enabled`` is switched on for the one traced repeat.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False, capacity=1 << 18)
        self.kept: list = []
        #: add to an event's ``ts`` to get ``time.monotonic`` seconds
        self.offset = time.monotonic() - self.now()

    def drain(self):
        events = super().drain()
        self.kept.extend(events)
        return events


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def uncovered_length(intervals, cover) -> float:
    """Length of ``intervals`` (as a union) not covered by ``cover``."""
    both = union_length(list(intervals) + list(cover))
    return both - union_length(cover)


def trace_metrics(tracer: KeepTracer, attributed_wall_s: float) -> dict:
    """Reduce one traced repeat's engine events.

    ``attributed_wall_s`` is the wall the spans are meant to explain (the
    engine's own ``RunReport.wall_seconds``, summed over runs).
    """
    out = {name: 0.0 for name in ENGINE_SPANS.values()}
    everything = []
    io_by_node: dict[int, list] = {}
    task_by_node: dict[int, list] = {}
    for e in tracer.kept:
        if e.ph != "X":
            continue
        key = (e.cat, e.name)
        if key not in ENGINE_SPANS:
            continue
        out[ENGINE_SPANS[key]] += e.dur
        span = (e.ts, e.ts + e.dur)
        everything.append(span)
        if e.cat == "io":
            io_by_node.setdefault(e.node, []).append(span)
        elif key == ("task", "task"):
            task_by_node.setdefault(e.node, []).append(span)
    out["trace.unattributed_s"] = max(
        attributed_wall_s - union_length(everything), 0.0)
    io_total = sum(union_length(s) for s in io_by_node.values())
    io_alone = sum(uncovered_length(s, task_by_node.get(node, []))
                   for node, s in io_by_node.items())
    # the "non-overlapped" column of the paper's Tables III/IV
    out["trace.io_nonoverlap_share"] = io_alone / io_total if io_total else 0.0
    out["trace.dropped_events"] = float(sum(tracer.dropped().values()))
    return out


def export(tracer: KeepTracer, spans: list[dict]) -> dict:
    """Benchmark spans and engine events on one (monotonic) time axis."""
    events = []
    for e in tracer.kept:
        obj = e.to_json()
        obj["ts"] = e.ts + tracer.offset
        events.append(obj)
    return {"clock": "time.monotonic seconds", "spans": spans,
            "engine_events": events}
