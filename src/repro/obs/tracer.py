"""Low-overhead runtime event tracing.

The engine is a web of threads (storage, I/O, scheduler, worker filters per
node) whose interesting behaviour is *temporal*: when blocks are loaded,
spilled and reused, when tasks wait for grants, when prefetches land or are
dropped.  :class:`Tracer` records that timeline as structured
:class:`TraceEvent` records in **per-node ring buffers** (bounded memory,
oldest events overwritten) guarded by per-node locks, so hot paths never
contend across nodes and never block on a consumer.

The same schema is emitted by the threaded engine (wall-clock timestamps)
and the DES testbed (:class:`repro.cluster.SimCluster` hands ``complete``
its simulated start and end, so the tracer's own clock is never read).
Export with :mod:`repro.obs.chrome` and open the result in
``chrome://tracing`` / Perfetto.

Event vocabulary (the stable schema; see docs/OBSERVABILITY.md):

======== =========== ==============================================
category name        meaning
======== =========== ==============================================
task     task        one task body executing on a worker (span)
task     dispatch    scheduler handed a task to a worker (instant)
task     grant_wait  worker waited for storage grants (span)
storage  load        block load: io_cmd write -> io_done (span)
storage  spill       block spill: io_cmd write -> io_done (span)
storage  drop        block dropped from memory (instant)
storage  fetch_remote remote block fetch round trip (span)
storage  alloc_queue allocation queue depth (counter)
sched    prefetch    prefetch request issued (instant)
sched    prefetch_dropped storage dropped a prefetch (instant)
sched    forced_dispatch nothing resident or in flight: demand-load (instant)
io       read/write  raw disk time inside an I/O filter (span)
io       io_retry    I/O attempt failed; backing off to retry (instant)
io       io_error    I/O retries exhausted; error reply sent (instant)
task     task_failed a task attempt failed on a worker (instant)
task     task_retry  scheduler re-queued a failed task (instant)
task     task_escalate local retries exhausted; sent to gsched (instant)
task     task_reroute gsched moved a task to another node (instant)
storage  io_failed   storage received an io_error reply (instant)
storage  deny        a blocked ticket was failed fast (instant)
storage  fetch_retry unanswered peer fetch retransmitted (instant)
storage  lookup_retry unanswered owner lookup retransmitted (instant)
storage  lookup_restart owner walk exhausted and restarted (instant)
storage  rehome      an array's home moved (task reroute) (instant)
storage  request_rejected read/write request refused (instant)
fault    *           FaultPlan injection (kind in the name) (instant)
run      phase       run-level milestones (instant)
======== =========== ==============================================
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Iterator
from typing import Any

__all__ = ["TraceEvent", "Tracer", "span_union_seconds"]

#: schema version embedded in exports; bump on incompatible changes
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped runtime event.

    ``ph`` follows the Chrome trace phases: ``"X"`` complete (has ``dur``),
    ``"i"`` instant, ``"C"`` counter (value in ``args``).
    """

    ts: float            # seconds since the tracer's epoch
    node: int            # logical node (-1 = engine-global)
    lane: str            # thread-like lane within the node ("worker/0", "io/1", ...)
    cat: str             # "task" | "storage" | "sched" | "io" | "run"
    name: str            # event name from the schema vocabulary
    ph: str = "i"        # "X" | "i" | "C"
    dur: float = 0.0     # seconds; only meaningful for ph == "X"
    args: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "ts": self.ts, "node": self.node, "lane": self.lane,
            "cat": self.cat, "name": self.name, "ph": self.ph,
        }
        if self.ph == "X":
            out["dur"] = self.dur
        if self.args:
            out["args"] = dict(self.args)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> TraceEvent:
        return cls(
            ts=float(obj["ts"]), node=int(obj["node"]), lane=str(obj["lane"]),
            cat=str(obj["cat"]), name=str(obj["name"]), ph=str(obj.get("ph", "i")),
            dur=float(obj.get("dur", 0.0)), args=dict(obj.get("args", {})),
        )


def span_union_seconds(events: Iterable[TraceEvent], *,
                       node: int | None = None,
                       lane: str | None = None) -> float:
    """Total length of the union of the matching spans (``ph == "X"``).

    Overlapping spans are merged first, so concurrent I/O streams on one
    lane are not double counted — this is the paper's "time spent reading
    from the file system", and one minus its share of the makespan is the
    "non-overlapped" column of Tables III/IV.
    """
    spans = sorted(
        (e.ts, e.ts + e.dur) for e in events
        if e.ph == "X"
        and (node is None or e.node == node)
        and (lane is None or e.lane == lane)
    )
    total = 0.0
    cur_start: float | None = None
    cur_end = 0.0
    for start, end in spans:
        if cur_start is None:
            cur_start, cur_end = start, end
        elif start <= cur_end:
            cur_end = max(cur_end, end)
        else:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
    if cur_start is not None:
        total += cur_end - cur_start
    return total


class _NodeRing:
    """Bounded event buffer for one node, with its own lock."""

    __slots__ = ("lock", "events", "dropped")

    def __init__(self, capacity: int):
        self.lock = threading.Lock()
        self.events: deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, event: TraceEvent) -> None:
        with self.lock:
            if len(self.events) == self.events.maxlen:
                self.dropped += 1
            self.events.append(event)


class Tracer:
    """Thread-safe event recorder with per-node ring buffers.

    ``enabled=False`` keeps every call-site unconditional while reducing
    each emit to a clock read + attribute store (the watchdog still sees
    activity); ring appends are skipped entirely.
    """

    def __init__(self, *, enabled: bool = True, capacity: int = 1 << 16,
                 clock: Callable[[], float] | None = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.enabled = enabled
        self.capacity = capacity
        self._clock = clock or time.monotonic
        self._epoch = self._clock()
        self._rings: dict[int, _NodeRing] = {}
        self._rings_lock = threading.Lock()
        #: timestamp (tracer clock) of the most recent emit, even when
        #: disabled — the stall watchdog's heartbeat.
        self.last_activity = 0.0

    # -- clock ----------------------------------------------------------------

    def now(self) -> float:
        """Seconds since the tracer's epoch."""
        return self._clock() - self._epoch

    # -- emission -------------------------------------------------------------

    def _ring(self, node: int) -> _NodeRing:
        ring = self._rings.get(node)
        if ring is None:
            with self._rings_lock:
                ring = self._rings.setdefault(node, _NodeRing(self.capacity))
        return ring

    def emit(self, event: TraceEvent) -> None:
        self.last_activity = event.ts
        if not self.enabled:
            return
        self._ring(event.node).append(event)

    def instant(self, node: int, lane: str, cat: str, name: str, **args: Any) -> None:
        self.emit(TraceEvent(self.now(), node, lane, cat, name, "i", args=args))

    def counter(self, node: int, lane: str, cat: str, name: str,
                value: float, **args: Any) -> None:
        self.emit(TraceEvent(self.now(), node, lane, cat, name, "C",
                             args={"value": value, **args}))

    def complete(self, node: int, lane: str, cat: str, name: str,
                 start: float, *, end: float | None = None, **args: Any) -> None:
        """Record a finished span that began at tracer time ``start``."""
        end = self.now() if end is None else end
        self.emit(TraceEvent(start, node, lane, cat, name, "X",
                             dur=max(end - start, 0.0), args=args))

    @contextmanager
    def span(self, node: int, lane: str, cat: str, name: str,
             **args: Any) -> Iterator[None]:
        start = self.now()
        try:
            yield
        finally:
            self.complete(node, lane, cat, name, start, **args)

    # -- consumption ----------------------------------------------------------

    def events(self, node: int | None = None) -> list[TraceEvent]:
        """Snapshot of recorded events (all nodes by default), time-ordered."""
        out: list[TraceEvent] = []
        with self._rings_lock:
            rings = list(self._rings.items())
        for n, ring in rings:
            if node is not None and n != node:
                continue
            with ring.lock:
                out.extend(ring.events)
        out.sort(key=lambda e: (e.ts, e.node, e.lane))
        return out

    def drain(self) -> list[TraceEvent]:
        """Collect and clear every ring (thread-safe)."""
        out: list[TraceEvent] = []
        with self._rings_lock:
            rings = list(self._rings.values())
        for ring in rings:
            with ring.lock:
                out.extend(ring.events)
                ring.events.clear()
        out.sort(key=lambda e: (e.ts, e.node, e.lane))
        return out

    def dropped(self) -> dict[int, int]:
        """Events overwritten per node since construction (ring overflow)."""
        with self._rings_lock:
            return {n: r.dropped for n, r in self._rings.items() if r.dropped}
