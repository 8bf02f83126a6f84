"""ASCII Gantt charts of simulated testbed runs (Fig. 5-style views).

The paper's Fig. 5 explains the policies with Gantt charts; this module
renders the same kind of view from an actual simulated run's trace: ``=``
filesystem reads, ``m`` multiplies/reductions, ``>``/``<`` vector sends
and receives, per compute node.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.obs.tracer import TraceEvent, Tracer
from repro.testbed.app import TestbedParams, run_testbed_spmv

GLYPHS = {"io": "=", "compute": "m", "send": ">", "recv": "<"}


def render_gantt(
    events: Iterable[TraceEvent],
    *,
    width: int = 100,
    lane_glyphs: dict[str, str] | None = None,
) -> str:
    """ASCII Gantt chart of the spans in ``events``, one row per node.

    ``lane_glyphs`` maps an event's lane to a single character; lanes
    without a mapping render as their first letter.
    """
    spans = [e for e in events if e.ph == "X"]
    if not spans:
        return "(empty trace)"
    t_end = max(e.ts + e.dur for e in spans)
    t_start = min(e.ts for e in spans)
    span = max(t_end - t_start, 1e-12)
    glyphs = lane_glyphs or {}
    nodes = sorted({e.node for e in spans})
    label_width = max(len(f"n{n}") for n in nodes) + 1
    rows = []
    for n in nodes:
        row = [" "] * width
        for e in sorted((e for e in spans if e.node == n), key=lambda e: e.ts):
            a = int((e.ts - t_start) / span * (width - 1))
            b = int((e.ts + e.dur - t_start) / span * (width - 1))
            glyph = glyphs.get(e.lane, e.lane[:1] or "?")
            for pos in range(a, max(b, a) + 1):
                row[pos] = glyph
        rows.append(f"{f'n{n}':<{label_width}}|{''.join(row)}|")
    header = f"{'':<{label_width}}|{'time ->':<{width}}|"
    return "\n".join([header, *rows])


def simulated_gantt(
    nodes: int,
    policy: str,
    *,
    seed: int = 1,
    until_s: float | None = None,
    width: int = 96,
    params: TestbedParams | None = None,
    **run_kwargs,
) -> str:
    """Run a testbed simulation and render its activity timeline.

    ``until_s`` crops the chart to the first N simulated seconds (default:
    the first iteration's share of the run).
    """
    tracer = Tracer()
    row = run_testbed_spmv(nodes, policy, seed=seed, tracer=tracer,
                           params=params or TestbedParams(), **run_kwargs)
    crop = until_s if until_s is not None else row.time_s / row.iterations
    events = [e for e in tracer.events() if e.ts < crop]
    header = (
        f"{policy} policy, {nodes} node(s), first {crop:.0f} s of "
        f"{row.time_s:.0f} s  (= read, m compute, > send, < recv)"
    )
    return header + "\n" + render_gantt(events, width=width,
                                        lane_glyphs=GLYPHS)
