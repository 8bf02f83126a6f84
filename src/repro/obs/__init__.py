"""Runtime observability: tracing, metrics, and the stall watchdog.

The paper's argument is about *when* blocks move (Fig. 5's back-and-forth
traversal, Table 3's load counts); this package makes that timeline a
first-class artefact of every run:

* :class:`Tracer` / :class:`TraceEvent` — low-overhead structured events
  in per-node ring buffers (same schema for the threaded engine and the
  DES testbed);
* :class:`MetricsRegistry` — the named counters every runtime component
  increments, reported per node as ``RunReport.metrics``;
* :mod:`repro.obs.chrome` — ``chrome://tracing`` export, JSONL
  persistence, validation (``python -m repro trace <run>``);
* :class:`StallWatchdog` / :class:`Diagnosis` — turns a silent mid-run
  stall into a report naming blocked tickets, queued allocations and
  ready pools instead of a bare timeout.
"""

from repro.obs.chrome import (
    export_chrome_trace,
    load_chrome_trace,
    load_events_jsonl,
    normalize_chrome_trace,
    save_events_jsonl,
    to_chrome,
    validate_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import (
    SCHEMA_VERSION,
    TraceEvent,
    Tracer,
    span_union_seconds,
)
from repro.obs.vocab import EVENT_NAMES, EVENTS, is_known_event
from repro.obs.watchdog import Diagnosis, StallWatchdog

__all__ = [
    "SCHEMA_VERSION",
    "TraceEvent",
    "Tracer",
    "EVENTS",
    "EVENT_NAMES",
    "is_known_event",
    "MetricsRegistry",
    "StallWatchdog",
    "Diagnosis",
    "to_chrome",
    "export_chrome_trace",
    "load_chrome_trace",
    "validate_chrome_trace",
    "normalize_chrome_trace",
    "save_events_jsonl",
    "load_events_jsonl",
    "span_union_seconds",
]
