"""The worker filter: a node's computing filter, one instance a slot.

A hand-off is a batch of ready tasks.  The worker asks the storage filter
for every interval of the batch in one message, runs the bodies back to
back on the granted views — here, or on the process plane in the slot's
worker process (:mod:`repro.core.procplane`), as one envelope; either way
through :func:`repro.core.task.run_task_body` — hands the tickets back in
one message and reports on the batch in one more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.array import ArrayDesc
from repro.core.errors import DoocError, IOFailedError
from repro.core.interval import Interval, Permission, whole_array
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

#: a task's operands: array -> its tickets, in block order
_Tickets = dict[str, list[Ticket]]


@dataclass
class _Batch:
    """One hand-off of a worker, from its request to its report."""

    tasks: tuple[TaskSpec, ...]
    attempts: tuple[int, ...]
    started: float
    #: of each task, array -> the intervals it reads / writes
    reads: list[dict[str, list[Interval]]] = field(default_factory=list)
    writes: list[dict[str, list[Interval]]] = field(default_factory=list)
    #: intervals asked for: the reads of the batch (each once), its writes
    asked: list[tuple[Permission, Interval]] = field(default_factory=list)
    #: grants received, each unwound by ``_abort`` if the batch fails
    held: list[Ticket] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    #: the outcome, in task order: ``ran`` done, then ``failed`` failed
    #: (each spent its attempt), the rest returned unrun
    ran: int = 0
    failed: int = 0
    error: str = ""


class _WorkerFilter(Filter):
    """Executes batches of task bodies against storage-granted views.

    A task that fails — an injected crash, a body exception, or a storage
    ``error`` reply after the I/O layer exhausted its retries — is
    *unwound* rather than allowed to kill the filter.  The tasks of its
    batch before it complete and publish; its write grants and those of
    the tasks after it are abandoned (their ranges were never published,
    thanks to write-once semantics), every read grant is released, and
    the report tells the local scheduler which task failed — it spends an
    attempt and is re-dispatched — and which go back to ready unrun.
    """

    inputs = ("in", "from_storage")
    outputs = ("to_storage", "to_lsched")

    def __init__(self, node: int, run: RunState, tracer: Tracer):
        self.node = node
        self.tracer = tracer
        #: the batch whose grants are awaited (None: waiting for one)
        self._batch: _Batch | None = None
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
        return ("from_storage",) if self._batch is not None else ("in",)

    def debug_snapshot(self) -> dict:
        """The grants this worker waits for, for the stall watchdog."""
        b = self._batch
        return {"awaiting": [] if b is None else [
            f"worker awaiting {len(b.asked) - len(b.held) - len(b.errors)} "
            f"of {len(b.asked)} grants for "
            f"{', '.join(t.name for t in b.tasks)}"]}

    # -- storage round-trips ----------------------------------------------------

    def _request(self, ctx: FilterContext, b: _Batch) -> bool:
        """Ask the store for every interval of the batch in one message
        (an interval several of its tasks read, once); a batch that asks
        for nothing runs at once."""
        for task in b.tasks:
            b.reads.append({n: whole_array(self.descs[n])
                            for n in task.inputs})
            b.writes.append({n: whole_array(self.descs[n])
                             for n in task.outputs})
        reads = list(dict.fromkeys(
            iv for r in b.reads for ivs in r.values() for iv in ivs))
        writes = [iv for w in b.writes for ivs in w.values() for iv in ivs]
        b.asked = ([(Permission.READ, iv) for iv in reads]
                   + [(Permission.WRITE, iv) for iv in writes])
        ctx.write("to_storage", DataBuffer(
            {"op": "acquire", "reads": reads, "writes": writes,
             # whose uses of the store's plan this spends
             "tasks": [t.name for t in b.tasks],
             "reply_to": ("worker", ctx.instance)}))
        return self._on_grants(ctx, b)

    def _abort(self, ctx: FilterContext, held: list[Ticket]) -> None:
        """Unwind a failed batch so a re-execution starts clean.

        Read grants are released (unpinning inputs frees memory other
        work may be queued on); write grants are abandoned — nothing they
        covered was published, so the retry can request them again.  The
        tickets go back in one message, as a completed batch's do.
        """
        if not held:
            return
        try:
            ctx.write("to_storage", DataBuffer(
                {"op": "release",
                 "tickets": [t for t in held
                             if t.permission is Permission.READ],
                 "abandon": [t for t in held
                             if t.permission is Permission.WRITE]}))
        except StreamClosedError:
            pass

    def _doomed(self, b: _Batch) -> int:
        """How many tasks of the batch, from its first, may run: the
        first that cannot is one an interval of which the store refused,
        or one a crash is planned for (counted only once the batch
        reaches it, by :meth:`_doom`)."""
        refused = {e["array"] for e in b.errors}
        for i, (task, attempt) in enumerate(zip(b.tasks, b.attempts)):
            if not refused.isdisjoint({*b.reads[i], *b.writes[i]}) or (
                    self.injector is not None and self.injector.plan.task_fault(
                        self.node, task.name, attempt)):
                return i
        return len(b.tasks)

    def _doom(self, b: _Batch) -> Exception:
        """The failure of the task :meth:`_doomed` stopped at."""
        task, attempt = b.tasks[b.ran], b.attempts[b.ran]
        arrays = {*b.reads[b.ran], *b.writes[b.ran]}
        refused = [e for e in b.errors if e["array"] in arrays]
        if refused:
            # The backing I/O failed past its retry budget, or the
            # store refused the request outright.
            first = refused[0]
            return IOFailedError(
                f"access to {first['array']}[{first['block']}] failed: "
                f"{first['error']}")
        self.injector.task_fault(task.name, attempt)
        return InjectedTaskCrash(
            f"injected crash of task {task.name!r} attempt {attempt} on "
            f"node {self.node}")

    def _on_grants(self, ctx: FilterContext, b: _Batch) -> bool:
        """With every interval answered (granted, or refused with an
        error), run the batch through its release; False while grants
        are due.  The bodies run in hand-off order and stop at the first
        failure.  The grants in ``held`` are unwound on *any* failure
        outside a body, by the one ``try``
        ``tests/test_api_surface.py::TestTicketHandoffs`` pins."""
        held = b.held
        if len(held) + len(b.errors) < len(b.asked):
            return False
        try:
            if not b.errors:
                self.tracer.complete(
                    self.node, f"worker/{ctx.instance}", "task",
                    "grant_wait", b.started, intervals=len(b.asked))
            by_iv = {(t.permission, t.interval): t for t in held}
            runnable = self._doomed(b)
            operands = [tuple({n: [by_iv[perm, iv] for iv in ivs]
                               for n, ivs in asked[i].items()}
                              for perm, asked in ((Permission.READ, b.reads),
                                                  (Permission.WRITE, b.writes)))
                        for i in range(runnable)]
            try:
                if self.plane is None or not operands or not self._run_remote(
                        ctx, b, operands):
                    for task, (reads, writes) in zip(b.tasks, operands):
                        copied = run_task_body(
                            task.fn, task.meta,
                            {n: [t.data for t in ts]
                             for n, ts in reads.items()},
                            {n: [t.data for t in ts]
                             for n, ts in writes.items()},
                            OperandContext(self.opcache, _generations(reads))
                            if self.opcache is not None else None)
                        if copied:
                            self.metrics.inc("bytes_copied", copied)
                        self._finished(ctx, b)
                if b.ran < len(b.tasks):
                    raise self._doom(b)
            except Exception as exc:  # noqa: BLE001 - reported, retried
                b.failed = b.failed or 1
                b.error = repr(exc)
            # One release, in request order: the reads, the writes of the
            # tasks that ran (published), and the others' (abandoned).
            published = {iv for w in b.writes[:b.ran]
                         for ivs in w.values() for iv in ivs}
            back = [by_iv[key] for key in b.asked if key in by_iv]
            held.clear()  # from here the release owns every ticket
            ctx.write("to_storage", DataBuffer(
                {"op": "release",
                 "tickets": [t for t in back
                             if t.permission is Permission.READ
                             or t.interval in published],
                 "abandon": [t for t in back
                             if t.permission is Permission.WRITE
                             and t.interval not in published]}))
        except BaseException:
            self._abort(ctx, held)
            raise
        return True

    def _finished(self, ctx: FilterContext, b: _Batch) -> None:
        """The body of the batch's next task returned: its span runs from
        the end of the one before (the first's from the request)."""
        self.tracer.complete(
            self.node, f"worker/{ctx.instance}", "task", "task",
            b.started, task=b.tasks[b.ran].name)
        b.started = self.tracer.now()
        b.ran += 1

    def _run_remote(self, ctx: FilterContext, b: _Batch,
                    operands: list[tuple[_Tickets, _Tickets]]) -> bool:
        """Ship the runnable tasks to this slot's worker process, in one
        envelope.

        Returns False to fall back to inline execution (a grant without a
        segment handle, or a task that can't pickle).  Every segment a
        granted span lies in is leased, once, around the dispatch, so a
        concurrent reclaim can never unlink memory the child is computing
        on; leases drain in the ``finally`` even when the child crashes —
        the parent owns the lease lifecycle, never the (killable) child.
        A crash fails every task of the envelope.
        """
        granted = [t for ops in operands for tickets in ops
                   for ts in tickets.values() for t in ts]
        if any(t.handle is None for t in granted):
            self.metrics.inc("process_plane_fallbacks")
            return False
        bodies = [build_envelope(
            task.fn, task.meta,
            {a: [t.handle for t in ts] for a, ts in reads.items()},
            {a: {"dtype": self.descs[a].dtype,
                 "lo": ts[0].interval.lo, "hi": ts[-1].interval.hi,
                 "parts": [(t.handle, t.interval.lo, t.interval.hi)
                           for t in ts]}
             for a, ts in writes.items()},
            _generations(reads))
            for task, (reads, writes) in zip(b.tasks, operands)]
        leased: list[str] = []
        try:
            for name in dict.fromkeys(t.handle.segment for t in granted):
                self.segment_pool.lease(name)
                leased.append(name)
            try:
                reply = self.plane.run_envelope(
                    self.node, ctx.instance, *bodies)
            except EnvelopeUnpicklable:
                self.metrics.inc("process_plane_fallbacks")
                return False
            except WorkerProcessCrash:
                self.metrics.inc("worker_crashes")
                b.failed = len(bodies)
                raise  # -> failure report -> re-dispatch (worker respawned)
        finally:
            for name in leased:
                self.segment_pool.release(name)
        for counter in ("bytes_copied", "opcache_hits", "opcache_misses"):
            if reply.get(counter):
                self.metrics.inc(counter, int(reply[counter]))
        for _ in range(reply.get("ran", len(bodies))):
            self._finished(ctx, b)
        if not reply["ok"]:
            raise DoocError(
                f"task {b.tasks[b.ran].name!r} failed in worker process: "
                f"{reply.get('error')}")
        return True

    def init(self, ctx: FilterContext) -> None:
        ctx.write("to_lsched", DataBuffer({"op": "idle", "inst": ctx.instance}))

    def on(self, ctx: FilterContext, port: str | None, buf) -> bool:
        b = self._batch
        if buf is END_OF_STREAM:
            if b is not None:
                raise StreamClosedError(
                    "storage replies closed while awaiting grants")
            return True
        msg = buf.payload
        if b is None:
            if msg["op"] == "shutdown":
                return True
            self._batch = b = _Batch(tuple(msg["batch"]),
                                     tuple(msg["attempts"]),
                                     self.tracer.now())
            step = self._request
        else:
            b.held.extend(msg["tickets"])
            b.errors.extend(msg["errors"])
            step = self._on_grants
        try:
            if not step(ctx, b):
                return False  # grants still due
        except StreamClosedError:
            raise  # runtime failure/shutdown, not a task failure
        except Exception as exc:  # noqa: BLE001 - reported for re-execution
            # Unwound before anything was published: the first task
            # failed, the others go back.
            b.ran, b.failed, b.error = 0, 1, repr(exc)
        self._report(ctx, b)
        self._batch = None
        return False

    def _report(self, ctx: FilterContext, b: _Batch) -> None:
        """Tell the local scheduler how the batch went, in one message."""
        failed = range(b.ran, b.ran + b.failed)
        for i in failed:
            self.tracer.instant(
                self.node, f"worker/{ctx.instance}", "task", "task_failed",
                task=b.tasks[i].name, attempt=b.attempts[i], error=b.error)
        ctx.write("to_lsched", DataBuffer(
            {"op": "done", "inst": ctx.instance,
             "done": [t.name for t in b.tasks[:b.ran]],
             "failed": [{"task": b.tasks[i].name, "error": b.error}
                        for i in failed],
             "returned": [t.name for t in b.tasks[b.ran + b.failed:]]}))


def _generations(reads: _Tickets) -> dict[str, tuple[int, ...]]:
    """The seal generations of a task's read grants: the freshness proof
    for a body's operand-cache keys, on either plane."""
    return {n: tuple(t.generation for t in ts) for n, ts in reads.items()}
