"""The worker filter: a node's computing filter, one instance a slot.

It asks the storage filter for every interval of a task in one message,
runs the body on the granted views — here, or on the process plane in the
slot's worker process (:mod:`repro.core.procplane`); either way through
:func:`repro.core.task.run_task_body` — and hands the tickets back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.array import ArrayDesc
from repro.core.errors import DoocError, IOFailedError
from repro.core.interval import (Interval, Permission, intervals_for_range,
                                 whole_array)
from repro.core.opcache import DecodedOperandCache, OperandContext
from repro.core.procplane import (EnvelopeUnpicklable, ProcessWorkerPool,
                                  WorkerProcessCrash, build_envelope)
from repro.core.shm import SegmentPool
from repro.core.storage import Ticket
from repro.core.task import TaskSpec, run_task_body
from repro.datacutter.buffers import END_OF_STREAM, DataBuffer
from repro.datacutter.errors import StreamClosedError
from repro.datacutter.filters import Filter, FilterContext
from repro.faults import FaultInjector, InjectedTaskCrash
from repro.obs import Tracer
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import RunState


@dataclass
class _Attempt:
    """One task attempt of a worker, from its request to its releases."""

    task: TaskSpec
    attempt: int
    started: float
    #: array -> the intervals asked for, and how many there are
    reads: dict[str, list[Interval]] = field(default_factory=dict)
    writes: dict[str, list[Interval]] = field(default_factory=dict)
    wanted: int = 0
    #: grants received, each unwound by ``_abort`` if the attempt fails
    held: list[Ticket] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)


class _WorkerFilter(Filter):
    """Executes task bodies against storage-granted views.

    A task attempt that fails — an injected crash, a task-body exception,
    or a storage ``error`` reply after the I/O layer exhausted its retries —
    is *unwound* rather than allowed to kill the filter: every read grant
    is released, every write grant is abandoned (its ranges were never
    published, thanks to write-once semantics), and a ``failed`` report
    goes to the local scheduler, which re-dispatches the task.
    """

    inputs = ("in", "from_storage")
    outputs = ("to_storage", "to_lsched")

    def __init__(self, node: int, run: RunState, tracer: Tracer):
        self.node = node
        self.tracer = tracer
        #: the attempt whose grants are awaited (None: waiting for a task)
        self._attempt: _Attempt | None = None
        self.begin(run)

    def begin(self, run: RunState) -> None:
        """Bind the next run: descriptors, counters, faults, planes."""
        store = run.stores[self.node]
        self.descs: dict[str, ArrayDesc] = run.descs
        self.metrics: MetricsRegistry = store.metrics
        self.injector: FaultInjector | None = run.injectors.get(self.node)
        #: node-shared decoded-operand cache (None = disabled); handed to
        #: task bodies through the OperandContext in ``meta``
        self.opcache: DecodedOperandCache | None = store.opcache
        #: process worker plane: when set, task bodies ship to a worker
        #: process as block-handle envelopes; this thread stays the
        #: protocol endpoint (tickets, leases, failure reports)
        self.plane: ProcessWorkerPool | None = run.plane
        self.segment_pool: SegmentPool | None = run.segment_pool

    def listening(self) -> tuple[str, ...]:
        return ("from_storage",) if self._attempt is not None else ("in",)

    def debug_snapshot(self) -> dict:
        """The grants this worker waits for, for the stall watchdog."""
        a = self._attempt
        return {"awaiting": [] if a is None else [
            f"worker awaiting {a.wanted - len(a.held) - len(a.errors)} of "
            f"{a.wanted} grants for {a.task.name}"]}

    # -- storage round-trips ----------------------------------------------------

    def _request(self, ctx: FilterContext, a: _Attempt) -> bool:
        """Ask the store for every interval of the task in one message; a
        task that asks for nothing runs at once."""
        out_ranges: dict[str, tuple[int, int]] = a.task.meta.get(
            "out_ranges", {})
        a.reads = {n: whole_array(self.descs[n]) for n in a.task.inputs}
        #: of each output, the [lo, hi) this task writes: all of it, or
        #: the range a split gave this subtask
        a.writes = {n: intervals_for_range(
                        self.descs[n],
                        *out_ranges.get(n, (0, self.descs[n].length)))
                    for n in a.task.outputs}
        reads = [iv for ivs in a.reads.values() for iv in ivs]
        writes = [iv for ivs in a.writes.values() for iv in ivs]
        a.wanted = len(reads) + len(writes)
        ctx.write("to_storage", DataBuffer(
            {"op": "acquire", "reads": reads, "writes": writes,
             "reply_to": ("worker", ctx.instance)}))
        return self._on_grants(ctx, a)

    def _abort(self, ctx: FilterContext, held: list[Ticket]) -> None:
        """Unwind a failed attempt so a re-execution starts clean.

        Read grants are released (unpinning inputs frees memory other
        work may be queued on); write grants are abandoned — nothing they
        covered was published, so the retry can request them again.  The
        task's tickets go back in one message, as a completed one's do.
        """
        if not held:
            return
        try:
            ctx.write("to_storage", DataBuffer(
                {"op": "release", "tickets": list(held), "abandon": True}))
        except StreamClosedError:
            pass

    def _on_grants(self, ctx: FilterContext, a: _Attempt) -> bool:
        """With every interval answered (granted, or refused with an
        error), run the attempt through its releases; False while grants
        are due.  The grants in ``held`` are unwound on *any* failure, by
        the one ``try`` ``tests/test_api_surface.py::TestTicketHandoffs``
        pins."""
        held = a.held
        if len(held) + len(a.errors) < a.wanted:
            return False
        try:
            if a.errors:
                # The backing I/O failed past its retry budget, or the
                # store refused the request outright.
                first = a.errors[0]
                raise IOFailedError(
                    f"access to {first['array']}[{first['block']}] failed: "
                    f"{first['error']}")
            self.tracer.complete(
                self.node, f"worker/{ctx.instance}", "task", "grant_wait",
                a.started, intervals=a.wanted)
            by_iv = {(t.permission, t.interval.array, t.interval.block,
                      t.interval.lo): t for t in held}
            read_tickets, write_tickets = (
                {n: [by_iv[perm, iv.array, iv.block, iv.lo] for iv in ivs]
                 for n, ivs in asked.items()}
                for perm, asked in ((Permission.READ, a.reads),
                                    (Permission.WRITE, a.writes)))
            # in request order: reads, then writes
            granted = [t for ts in (*read_tickets.values(),
                                    *write_tickets.values()) for t in ts]
            task = a.task
            if self.injector is not None and self.injector.task_fault(
                    task.name, a.attempt):
                raise InjectedTaskCrash(
                    f"injected crash of task {task.name!r} attempt "
                    f"{a.attempt} on node {self.node}")
            #: the seal generations of the read grants: the freshness
            #: proof for a body's operand-cache keys, on either plane
            generations = {n: tuple(t.generation for t in ts)
                           for n, ts in read_tickets.items()}
            if self.plane is None or not self._run_remote(
                    ctx, task, granted, read_tickets, write_tickets,
                    generations):
                copied = run_task_body(
                    task.fn, task.meta,
                    {n: [t.data for t in ts]
                     for n, ts in read_tickets.items()},
                    {n: [t.data for t in ts]
                     for n, ts in write_tickets.items()},
                    OperandContext(self.opcache, generations)
                    if self.opcache is not None else None)
                if copied:
                    self.metrics.inc("bytes_copied", copied)
            held.clear()  # from here the normal release owns every ticket
            ctx.write("to_storage", DataBuffer(
                {"op": "release", "tickets": granted, "abandon": False}))
        except BaseException:
            self._abort(ctx, held)
            raise
        return True

    def _run_remote(self, ctx: FilterContext, task: TaskSpec,
                    granted: list[Ticket],
                    read_tickets: dict[str, list[Ticket]],
                    write_tickets: dict[str, list[Ticket]],
                    generations: dict[str, tuple[int, ...]]) -> bool:
        """Ship the task to this slot's worker process.

        Returns False to fall back to inline execution (a grant without a
        segment handle, or a task that can't pickle).  Every segment a
        granted span lies in is leased, once, around the dispatch, so a concurrent
        reclaim can never unlink memory the child is computing on; leases
        drain in the ``finally`` even when the child crashes — the parent
        owns the lease lifecycle, never the (killable) child.
        """
        if any(t.handle is None for t in granted):
            self.metrics.inc("process_plane_fallbacks")
            return False
        envelope = build_envelope(
            task.fn, task.meta,
            {a: [t.handle for t in ts] for a, ts in read_tickets.items()},
            {a: {"dtype": self.descs[a].dtype,
                 "lo": ts[0].interval.lo, "hi": ts[-1].interval.hi,
                 "parts": [(t.handle, t.interval.lo, t.interval.hi)
                           for t in ts]}
             for a, ts in write_tickets.items()},
            generations)
        leased: list[str] = []
        try:
            for name in dict.fromkeys(t.handle.segment for t in granted):
                self.segment_pool.lease(name)
                leased.append(name)
            try:
                reply = self.plane.run_envelope(
                    self.node, ctx.instance, envelope)
            except EnvelopeUnpicklable:
                self.metrics.inc("process_plane_fallbacks")
                return False
            except WorkerProcessCrash:
                self.metrics.inc("worker_crashes")
                raise  # -> failure report -> re-dispatch (worker respawned)
        finally:
            for name in leased:
                self.segment_pool.release(name)
        if not reply.get("ok"):
            raise DoocError(
                f"task {task.name!r} failed in worker process: "
                f"{reply.get('error')}")
        for counter in ("bytes_copied", "opcache_hits", "opcache_misses"):
            if reply.get(counter):
                self.metrics.inc(counter, int(reply[counter]))
        return True

    def init(self, ctx: FilterContext) -> None:
        ctx.write("to_lsched", DataBuffer({"op": "idle", "inst": ctx.instance}))

    def on(self, ctx: FilterContext, port: str | None, buf) -> bool:
        a = self._attempt
        if buf is END_OF_STREAM:
            if a is not None:
                raise StreamClosedError(
                    "storage replies closed while awaiting grants")
            return True
        msg = buf.payload
        if a is None:
            if msg["op"] == "shutdown":
                return True
            self._attempt = a = _Attempt(msg["task"], msg.get("attempt", 1),
                                         self.tracer.now())
            step = self._request
        else:
            a.held.extend(msg["tickets"])
            a.errors.extend(msg["errors"])
            step = self._on_grants
        try:
            if not step(ctx, a):
                return False  # grants still due
        except StreamClosedError:
            raise  # runtime failure/shutdown, not a task failure
        except Exception as exc:  # noqa: BLE001 - reported for re-execution
            self.tracer.instant(
                self.node, f"worker/{ctx.instance}", "task", "task_failed",
                task=a.task.name, attempt=a.attempt, error=repr(exc))
            ctx.write("to_lsched", DataBuffer(
                {"op": "failed", "task": a.task,
                 "parent": a.task.meta.get("parent"), "attempt": a.attempt,
                 "error": repr(exc), "inst": ctx.instance}))
        else:
            self.tracer.complete(
                self.node, f"worker/{ctx.instance}", "task", "task",
                a.started, task=a.task.name)
            ctx.write("to_lsched", DataBuffer(
                {"op": "done", "task": a.task.name,
                 "parent": a.task.meta.get("parent"), "inst": ctx.instance}))
        self._attempt = None
        return False
