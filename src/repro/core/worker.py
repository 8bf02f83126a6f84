"""The worker filter: a node's computing filter, one instance a slot.

It asks the storage filter for every interval of a task in one message,
runs the body on the granted views — here, or on the process plane in the
slot's worker process (:mod:`repro.core.procplane`); either way through
:func:`repro.core.task.run_task_body` — and hands the tickets back.
"""

from __future__ import annotations

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

    def __init__(self, node: int, descs: dict[str, ArrayDesc],
                 tracer: Tracer, metrics: MetricsRegistry,
                 injector: FaultInjector | None = None,
                 opcache: DecodedOperandCache | None = None,
                 plane: ProcessWorkerPool | None = None,
                 segment_pool: SegmentPool | None = None):
        self.node = node
        self.descs = descs
        self.tracer = tracer
        self.metrics = metrics
        self.injector = injector
        #: node-shared decoded-operand cache (None = disabled); handed to
        #: task bodies through the OperandContext in ``meta``
        self.opcache = opcache
        #: process worker plane: when set, task bodies ship to a worker
        #: process as block-handle envelopes; this thread stays the
        #: protocol endpoint (tickets, leases, failure reports)
        self.plane = plane
        self.segment_pool = segment_pool

    # -- storage round-trips ----------------------------------------------------

    def _acquire(self, ctx: FilterContext, reads: list[Interval],
                 writes: list[Interval], held: list[Ticket]) -> list[Ticket]:
        """Ask the store for every interval of a task in one message;
        returns the tickets in request order, reads then writes.

        Grants are appended to ``held`` as they arrive so that a failure
        leaves no ticket untracked; every interval is answered (granted,
        or refused with an error) before this raises, so nothing remains
        outstanding.
        """
        start = self.tracer.now()
        ctx.write("to_storage", DataBuffer(
            {"op": "acquire", "reads": reads, "writes": writes,
             "reply_to": ("worker", ctx.instance)}))
        wanted = len(reads) + len(writes)
        errors: list[dict] = []
        while len(held) + len(errors) < wanted:
            buf = ctx.read("from_storage")
            if buf is END_OF_STREAM:
                raise StreamClosedError(
                    "storage replies closed while awaiting grants")
            held.extend(buf.payload["tickets"])
            errors.extend(buf.payload["errors"])
        if errors:
            # The backing I/O failed past its retry budget, or the store
            # refused the request outright.
            first = errors[0]
            raise IOFailedError(
                f"access to {first['array']}[{first['block']}] failed: "
                f"{first['error']}")
        self.tracer.complete(
            self.node, f"worker/{ctx.instance}", "task", "grant_wait", start,
            intervals=wanted)
        by_iv = {(t.permission, t.interval.array, t.interval.block,
                  t.interval.lo): t for t in held}
        return [by_iv[(perm, iv.array, iv.block, iv.lo)]
                for perm, ivs in ((Permission.READ, reads),
                                  (Permission.WRITE, writes))
                for iv in ivs]

    def _release_all(self, ctx: FilterContext, tickets: list[Ticket], *,
                     abandon: bool = False) -> None:
        """Hand a task's tickets back in one message.  ``abandon``: the
        attempt failed, so its write grants are retracted, not published."""
        ctx.write("to_storage", DataBuffer(
            {"op": "release", "tickets": tickets, "abandon": abandon}))

    def _abort(self, ctx: FilterContext, held: list[Ticket]) -> None:
        """Unwind a failed attempt so a re-execution starts clean.

        Read grants are released (unpinning inputs frees memory other
        work may be queued on); write grants are abandoned — nothing they
        covered was published, so the retry can request them again.
        """
        if not held:
            return
        try:
            self._release_all(ctx, list(held), abandon=True)
        except StreamClosedError:
            pass

    def _run_task(self, ctx: FilterContext, task: TaskSpec,
                  attempt: int) -> None:
        """One task attempt, requests through releases.

        The whole ticket lifecycle lives inside one ``try`` so that every
        grant collected into ``held`` is unwound by ``_abort`` on *any*
        failure — the structure the ``DOOC001`` lint rule checks for.
        """
        held: list[Ticket] = []
        try:
            out_ranges: dict[str, tuple[int, int]] = task.meta.get(
                "out_ranges", {})
            reads = {a: whole_array(self.descs[a]) for a in task.inputs}
            #: of each output, the [lo, hi) this task writes: all of it,
            #: or the range a split gave this subtask
            writes = {a: intervals_for_range(
                          self.descs[a],
                          *out_ranges.get(a, (0, self.descs[a].length)))
                      for a in task.outputs}
            granted = self._acquire(
                ctx, [iv for ivs in reads.values() for iv in ivs],
                [iv for ivs in writes.values() for iv in ivs], held)
            grants = iter(granted)
            read_tickets = {a: [next(grants) for _ in ivs]
                            for a, ivs in reads.items()}
            write_tickets = {a: [next(grants) for _ in ivs]
                             for a, ivs in writes.items()}
            if self.injector is not None and self.injector.task_fault(
                    task.name, attempt):
                raise InjectedTaskCrash(
                    f"injected crash of task {task.name!r} attempt {attempt} "
                    f"on node {self.node}")
            #: the seal generations of the read grants: the freshness
            #: proof for a body's operand-cache keys, on either plane
            generations = {a: tuple(t.generation for t in ts)
                           for a, ts in read_tickets.items()}
            if self.plane is None or not self._run_remote(
                    ctx, task, granted, read_tickets, write_tickets,
                    generations):
                copied = run_task_body(
                    task.fn, task.meta,
                    {a: [t.data for t in ts]
                     for a, ts in read_tickets.items()},
                    {a: [t.data for t in ts]
                     for a, ts in write_tickets.items()},
                    OperandContext(self.opcache, generations)
                    if self.opcache is not None else None)
                if copied:
                    self.metrics.inc("bytes_copied", copied)
            held.clear()  # from here the normal release owns every ticket
            self._release_all(ctx, granted)
        except BaseException:
            self._abort(ctx, held)
            raise

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

    def process(self, ctx: FilterContext) -> None:
        ctx.write("to_lsched", DataBuffer({"op": "idle", "inst": ctx.instance}))
        while True:
            buf = ctx.read("in")
            if buf is END_OF_STREAM:
                return
            msg = buf.payload
            if msg["op"] == "shutdown":
                return
            task: TaskSpec = msg["task"]
            attempt: int = msg.get("attempt", 1)
            started = self.tracer.now()
            try:
                self._run_task(ctx, task, attempt)
            except StreamClosedError:
                raise  # runtime failure/shutdown, not a task failure
            except Exception as exc:  # noqa: BLE001 - reported for re-execution
                self.tracer.instant(
                    self.node, f"worker/{ctx.instance}", "task",
                    "task_failed", task=task.name, attempt=attempt,
                    error=repr(exc))
                ctx.write("to_lsched", DataBuffer(
                    {"op": "failed", "task": task,
                     "parent": task.meta.get("parent"),
                     "attempt": attempt, "error": repr(exc),
                     "inst": ctx.instance}))
            else:
                self.tracer.complete(
                    self.node, f"worker/{ctx.instance}", "task", "task",
                    started, task=task.name)
                ctx.write("to_lsched", DataBuffer(
                    {"op": "done", "task": task.name,
                     "parent": task.meta.get("parent"),
                     "inst": ctx.instance}))

