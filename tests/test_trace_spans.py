"""Tests for the span-union query over trace events and the ASCII Gantt
renderer that draws them."""

import pytest

from repro.obs import TraceEvent, span_union_seconds
from repro.testbed.gantt import render_gantt


def span(node, lane, start, end):
    return TraceEvent(ts=start, node=node, lane=lane, cat="storage",
                      name="load", ph="X", dur=end - start)


def test_busy_time_merges_overlaps():
    events = [
        span(0, "io", 0.0, 5.0),
        span(0, "io", 3.0, 8.0),   # overlaps -> union [0, 8)
        span(0, "io", 10.0, 12.0),
    ]
    assert span_union_seconds(events, node=0, lane="io") == pytest.approx(10.0)


def test_busy_time_filters_by_kind_and_lane():
    events = [
        span(0, "io", 0.0, 4.0),
        span(0, "compute", 0.0, 2.0),
        span(1, "io", 0.0, 1.0),
        # an instant is not a span, wherever it falls
        TraceEvent(ts=50.0, node=0, lane="io", cat="sched", name="prefetch"),
    ]
    # Union semantics across nodes: [0,4) U [0,1) = [0,4).
    assert span_union_seconds(events, lane="io") == pytest.approx(4.0)
    assert span_union_seconds(events, node=0) == pytest.approx(4.0)
    assert span_union_seconds(events, node=1, lane="compute") == 0.0


def test_render_gantt_has_one_row_per_lane():
    events = [
        span(1, "load", 0.0, 2.0),
        span(1, "mult", 2.0, 3.0),
        span(2, "load", 0.0, 2.0),
    ]
    art = render_gantt(events, width=40)
    lines = art.splitlines()
    assert len(lines) == 3  # header + 2 nodes
    assert lines[1].startswith("n1")
    assert "l" in lines[1] and "m" in lines[1]
    assert "m" not in lines[2]


def test_render_gantt_empty():
    assert render_gantt([]) == "(empty trace)"


def test_render_gantt_glyph_override():
    art = render_gantt([span(1, "load", 0.0, 1.0)], lane_glyphs={"load": "L"})
    assert "L" in art
