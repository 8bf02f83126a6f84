"""The local scheduler: per-node reorder + prefetch decision core.

The local scheduler "splits [tasks] to match the parallelism available on
the node", marks tasks ready once their predecessors finish, prefers ready
tasks "whose data input are available in memory", and "makes sure that
there are a given number of ready tasks whose data are in memory by
sending sufficient prefetch requests to the storage layer".

The preference order implemented here is what makes the back-and-forth
plan of Fig. 5(b) *emerge* rather than be programmed:

1. tasks with **every** input array resident come first;
2. then by resident input bytes (more reuse first);
3. ties broken **LIFO** on readiness: the task that became ready last runs
   first.  In iterated SpMV, the column processed last in iteration *i*
   produces its reduced vector last, so iteration *i+1* starts with the
   sub-matrix that is still in memory and traverses the columns backwards.

``LocalSchedulerCore`` is the whole policy as a pure object (no stream,
tracer or clock): its driver hands it residency snapshots and its own
message counts, and carries out what it decides.  The engine's driver,
``_LocalSchedulerFilter`` below, is the only one today — the DES testbed
models the same policy independently (ROADMAP item 6(b)).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from collections.abc import Mapping
from typing import TYPE_CHECKING, AbstractSet, Literal, NamedTuple

from repro.core.errors import SchedulingError
from repro.core.task import TaskSpec
from repro.datacutter.buffers import END_OF_STREAM, DataBuffer
from repro.datacutter.filters import Filter, FilterContext
from repro.obs import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import RunState


@dataclass(frozen=True)
class _ReadyEntry:
    seq: int  # readiness order (monotonic)
    task: TaskSpec


class Decision(NamedTuple):
    """What :meth:`LocalSchedulerCore.choose` tells its driver: ``run``
    ``task`` (its inputs are resident, or reordering is off); ``force`` it
    although its demand reads will load, ``why`` being ``declined`` (the
    store refused to prefetch one of its inputs) or ``nothing_loading``;
    ``sync`` with the global scheduler first; or ``wait`` for a message."""

    action: Literal["run", "force", "sync", "wait"]
    task: TaskSpec | None = None
    why: str = ""


class LocalSchedulerCore:
    """Decision core for one node."""

    def __init__(self, node: int, *, prefetch_depth: int = 2,
                 reorder: bool = True):
        if prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        self.node = node
        self.prefetch_depth = prefetch_depth
        #: when False, tasks run in plain readiness (FIFO) order — the
        #: naive MPI-style plan of Fig. 5(a), kept as an ablation switch
        self.reorder = reorder
        self._seq = itertools.count()
        self._ready: dict[str, _ReadyEntry] = {}
        self._prefetched: set[str] = set()  # arrays already asked for

    # -- feeding ---------------------------------------------------------------

    def add_ready(self, task: TaskSpec) -> None:
        """A task assigned to this node became runnable."""
        if task.name in self._ready:
            raise ValueError(f"task {task.name!r} added ready twice")
        self._ready[task.name] = _ReadyEntry(next(self._seq), task)

    @property
    def ready_count(self) -> int:
        return len(self._ready)

    def pending_tasks(self) -> list[TaskSpec]:
        return [e.task for e in self._ready.values()]

    def ready_inputs(self) -> set[str]:
        """Every input array of a ready task: the only names ``rank`` and
        ``prefetch_plan`` test against ``resident``, so a residency
        snapshot need cover no others."""
        return {a for e in self._ready.values() for a in e.task.inputs}

    # -- decisions ---------------------------------------------------------------

    def _score(self, entry: _ReadyEntry, resident: AbstractSet[str],
               nbytes: Mapping[str, int]) -> tuple:
        t = entry.task
        res_bytes = sum(nbytes.get(a, 0) for a in t.inputs if a in resident)
        all_resident = all(a in resident for a in t.inputs)
        # Sort descending on each component: (all_resident, bytes, seq).
        return (all_resident, res_bytes, entry.seq)

    def rank(self, resident: AbstractSet[str],
             nbytes: Mapping[str, int]) -> list[TaskSpec]:
        """Ready tasks in execution-preference order."""
        if not self.reorder:
            return self.pending_tasks()  # dict order is readiness order
        entries = sorted(
            self._ready.values(),
            key=lambda e: self._score(e, resident, nbytes),
            reverse=True,
        )
        return [e.task for e in entries]

    def choose(self, resident: AbstractSet[str], nbytes: Mapping[str, int],
               *, declined: AbstractSet[str] = frozenset(),
               loading: AbstractSet[str] = frozenset(), inflight: int = 0,
               syncing: bool = False, unsynced: bool = False) -> Decision:
        """Decide what an idle worker gets, and *claim* the task if any.

        Section III-C: "a task which is ready and whose data input are
        available in memory is sent to the computing filter".  When none
        is, the rule waits for events, never for the clock (DESIGN.md,
        section 6).  Whatever is in flight — a task running here
        (``inflight``), an input of a ready task in ``loading``, a
        ``syncing`` request — ends in a message: wait for it.  With nothing
        in flight but completions the global scheduler has not answered
        for (``unsynced``), tasks they made ready (a resident one,
        perhaps) may be on their way: sync first.  Otherwise no message is
        coming, and the top-ranked task is forced: its demand reads load,
        and may evict.  ``resident``, ``loading`` and ``declined`` are the
        store's reply to the query that followed the last prefetches.
        """
        ranked = self.rank(resident, nbytes)
        if not ranked:
            return Decision("wait")
        if not self.reorder:
            # Ablation: the naive plan runs strictly in readiness order,
            # paying demand loads as they come (Fig. 5a).
            return Decision("run", self.claim(ranked[0].name))
        for t in ranked:
            if all(a in resident for a in t.inputs):
                return Decision("run", self.claim(t.name))
        if inflight or syncing or any(
                a in loading for t in ranked for a in t.inputs):
            return Decision("wait")
        if unsynced:
            return Decision("sync")
        task = self.claim(ranked[0].name)
        return Decision("force", task,
                        "declined" if declined.intersection(task.inputs)
                        else "nothing_loading")

    def claim(self, name: str) -> TaskSpec:
        """Remove a ready task from the pool (the caller will run it)."""
        entry = self._ready.pop(name)
        self._prefetched.difference_update(entry.task.inputs)
        return entry.task

    def prefetch_plan(self, resident: AbstractSet[str],
                      nbytes: Mapping[str, int]) -> list[str]:
        """Arrays to warm for the next ``prefetch_depth`` preferred tasks.

        Already-resident and already-requested arrays are skipped; the
        caller should forward each name to the storage layer once.
        """
        plan: list[str] = []
        for t in self.rank(resident, nbytes)[: self.prefetch_depth]:
            for array in t.inputs:
                if array in resident or array in self._prefetched or array in plan:
                    continue
                plan.append(array)
        self._prefetched.update(plan)
        return plan

    def forget_prefetch(self, array: str) -> None:
        """Allow an array to be prefetched again: the storage declined the
        request (no free headroom) or has evicted the block since."""
        self._prefetched.discard(array)

    # -- splitting ---------------------------------------------------------------

    @staticmethod
    def split(task: TaskSpec, parts: int) -> list[TaskSpec]:
        """Split a splittable task into ``parts`` row-range subtasks.

        The task must carry ``meta['splitter']``: a callable
        ``(task, parts) -> list[TaskSpec]`` provided by the application
        (the middleware cannot know how to partition an arbitrary kernel's
        output).  Subtasks carry ``meta['parent']`` for completion
        accounting.
        """
        if parts <= 1 or not task.splittable:
            return [task]
        splitter = task.meta.get("splitter")
        if splitter is None:
            return [task]
        subtasks = splitter(task, parts)
        for sub in subtasks:
            if sub.meta.get("parent") != task.name:
                raise ValueError(
                    f"splitter for {task.name!r} must set meta['parent']"
                )
        return subtasks


class _LocalSchedulerFilter(Filter):
    """Per-node scheduler: dispatch, split, prefetch.

    The event loop around :class:`LocalSchedulerCore`.  Prefetch requests
    keep a window of ready tasks memory-resident; they only fill free
    memory, so out of core the store declines them, and what happens then
    is the core's :meth:`~LocalSchedulerCore.choose`.  This filter keeps
    the counts that rule is about — tasks in flight here, completions not
    yet synced with the global scheduler, what the store said was loading
    — and blocks whenever it says wait: each thing in flight ends in a
    message (``done``/``failed``, ``wake``/``dropped``, ``synced``).
    """

    inputs = ("in", "from_workers", "from_storage")
    outputs = ("to_gsched", "to_workers", "to_storage")

    def __init__(self, node: int, workers: int, run: RunState, *,
                 prefetch_depth: int = 2, reorder: bool = True,
                 tracer: Tracer | None = None, max_attempts: int = 3):
        self.node = node
        self.workers = workers
        self.prefetch_depth = prefetch_depth
        self.reorder = reorder
        self.tracer = tracer or Tracer(enabled=False)
        self.max_attempts = max_attempts
        #: idle worker instances; every one of them at a run's end, so
        #: this outlives the run (a worker says "idle" once, at start)
        self._idle: list[int] = []
        self.begin(run)

    def begin(self, run: RunState) -> None:
        """Bind the next run: sizes, counters, liveness beacon, faults;
        a fresh decision core."""
        self.core = LocalSchedulerCore(self.node,
                                       prefetch_depth=self.prefetch_depth,
                                       reorder=self.reorder)
        self.nbytes = run.nbytes
        store = run.stores.get(self.node)
        self.metrics = store.metrics if store is not None else None
        #: liveness beacon period (None = membership tracking off)
        self.heartbeat_s = (run.recovery.tracker.config.heartbeat_s
                            if run.recovery is not None else None)
        self.injector = run.injectors.get(self.node)
        #: injected permanent death point: die after this many worker
        #: completions on this node (None = immortal)
        self._kill_after = (self.injector.kill_step()
                            if self.injector is not None else None)
        self._next_beat = 0.0
        self._parents: dict[str, int] = {}  # parent task -> remaining subtasks
        self._attempts: dict[str, int] = {}  # task -> attempts dispatched here
        self._inflight = 0
        self._completions = 0
        #: completions were reported since the last sync with the global
        #: scheduler / a sync request is unanswered
        self._unsynced = self._syncing = False
        self._loading: set[str] = set()  # as of the last map reply
        #: a cancel drain is underway: no dispatch, no retries, no
        #: escalation — only in-flight work finishes
        self._cancelling = False
        self._drain_acked = False

    def _on_storage_note(self, msg: dict) -> None:
        """A push note from storage: ``wake`` (residency changed; the
        caller re-dispatches anyway) or ``dropped`` (evicted: re-arm)."""
        if msg["op"] == "dropped":
            self.core.forget_prefetch(msg["array"])

    def _query_map(self, ctx: FilterContext) -> tuple[set[str], set[str]]:
        """Ask storage which inputs of the ready tasks are resident (the
        only names ranking, prefetch planning and the choice test); returns
        ``(resident, declined)``.
        Declined prefetches are re-armed (memory may be free by the next
        event); one whose load *failed* is not: the task's demand read,
        dispatched unwarmed, reports the error."""
        ctx.write("to_storage", DataBuffer(
            {"op": "map", "arrays": self.core.ready_inputs()}))
        while True:
            buf = ctx.read("from_storage")
            if buf is END_OF_STREAM:
                return set(), set()
            msg = buf.payload
            if msg["op"] == "map":
                self._loading = msg["loading"]
                for array in msg["declined"]:
                    self.core.forget_prefetch(array)
                return msg["resident"], msg["declined"]
            # "wake"/"dropped" notes racing the reply are absorbed here;
            # the dispatch about to run uses the fresher map anyway.
            self._on_storage_note(msg)

    def _choose(self, ctx: FilterContext, resident: set[str],
                declined: set[str]) -> TaskSpec | None:
        """Carry out what the core decides; returns the task to dispatch."""
        decision = self.core.choose(
            resident, self.nbytes, declined=declined, loading=self._loading,
            inflight=self._inflight, syncing=self._syncing,
            unsynced=self._unsynced)
        if decision.action == "sync":
            # Streams are FIFO, so this is answered after whatever our
            # completions made ready has been sent.
            self._unsynced, self._syncing = False, True
            ctx.write("to_gsched", DataBuffer({"op": "sync", "node": self.node}))
        elif decision.action == "force":
            self._inc("forced_dispatches")
            self.tracer.instant(
                self.node, "sched", "sched", "forced_dispatch",
                task=decision.task.name, why=decision.why)
        return decision.task

    @property
    def _dying(self) -> bool:
        """Has the injected death point been reached?"""
        return (self._kill_after is not None
                and self._completions >= self._kill_after)

    def _maybe_beat(self, ctx: FilterContext) -> None:
        """Send the periodic liveness beacon to the global scheduler.

        The beacon comes from this scheduler loop, not from task progress,
        so a node mired in I/O retries or task re-executions still beats —
        the failure detector only fires on genuine silence.  It is not
        routed through the tracer: a beat is not runtime progress and must
        not reset the stall watchdog's quiet clock.
        """
        if self.heartbeat_s is None or self._dying:
            return
        now = time.monotonic()
        if now >= self._next_beat:
            self._next_beat = now + self.heartbeat_s
            self._inc("heartbeats_sent")
            ctx.write("to_gsched", DataBuffer(
                {"op": "heartbeat", "node": self.node}))

    def _die(self, ctx: FilterContext) -> None:
        """Permanent injected node death: fall silent, then drain.

        The node's threads cannot simply vanish (they share the runtime
        with the survivors), so death is modeled as the loudest possible
        silence: workers are shut down, storage enters corpse mode, the
        control stream to the global scheduler closes, and the filter
        discards inbound traffic until every stream reaches end-of-stream.
        """
        if self.injector is not None:
            self.injector.record_node_kill(self._completions)
        for worker in range(self.workers):
            ctx.write("to_workers", DataBuffer(
                {"op": "shutdown"}, {"__dest__": worker}))
        ctx.write("to_storage", DataBuffer({"op": "die"}))
        ctx.close("to_gsched")
        ctx.close("to_storage")
        while True:
            _port, buf = ctx.read_any(["in", "from_workers", "from_storage"])
            if buf is END_OF_STREAM:
                return

    def _dispatch(self, ctx: FilterContext) -> None:
        if self._dying or self._cancelling:
            return  # no new work on a node that is dying or draining
        while self._idle and self.core.ready_count:
            resident, declined = self._query_map(ctx)
            # Keep upcoming tasks warm regardless of whether we dispatch.
            plan = self.core.prefetch_plan(resident, self.nbytes)
            for array in plan:
                self.tracer.instant(self.node, "sched", "sched", "prefetch",
                                    array=array)
                ctx.write("to_storage", DataBuffer(
                    {"op": "prefetch", "array": array}))
            if plan:
                # Streams are FIFO: this reply tells accepted from declined.
                resident, declined = self._query_map(ctx)
            task = self._choose(ctx, resident, declined)
            if task is None:
                break
            subtasks = [task]
            spare = len(self._idle) - 1
            if task.splittable and spare > 0 and self.core.ready_count == 0:
                subtasks = LocalSchedulerCore.split(task, spare + 1)
                if len(subtasks) > 1:
                    self._parents[task.name] = len(subtasks)
            for sub in subtasks:
                if not self._idle:
                    # More subtasks than workers (split() may round up):
                    # requeue the remainder as ready work.
                    self.core.add_ready(sub)
                    continue
                worker = self._idle.pop(0)
                self._inflight += 1
                attempt = self._attempts.get(sub.name, 0) + 1
                self._attempts[sub.name] = attempt
                self.tracer.instant(self.node, "sched", "task", "dispatch",
                                    task=sub.name, worker=worker,
                                    attempt=attempt)
                ctx.write("to_workers", DataBuffer(
                    {"op": "task", "task": sub, "attempt": attempt},
                    {"__dest__": worker}))

    def debug_snapshot(self) -> dict:
        """Scheduler-side state for the stall watchdog (best effort)."""
        return {
            "ready_tasks": sorted(t.name for t in self.core.pending_tasks()),
            "inflight": self._inflight,
            "idle_workers": len(self._idle),
            "syncing": self._syncing,
            "loading": sorted(self._loading),
        }

    def _inc(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name)

    def _on_done(self, ctx: FilterContext, msg: dict) -> None:
        self._inflight -= 1
        self._completions += 1
        self._attempts.pop(msg["task"], None)
        task = msg.get("parent") or msg["task"]
        if task in self._parents:
            self._parents[task] -= 1
            if self._parents[task]:
                return  # sibling subtasks still running
            del self._parents[task]
        self._unsynced = True
        ctx.write("to_gsched", DataBuffer({"op": "done", "task": task}))

    def _on_failed(self, ctx: FilterContext, msg: dict) -> None:
        """A worker reported a failed attempt: re-execute or escalate."""
        self._inflight -= 1
        task: TaskSpec = msg["task"]
        attempt: int = msg["attempt"]
        if self._cancelling:
            # The run is being torn down: a failed attempt needs neither a
            # retry nor an escalation, only its inflight slot back.
            self._attempts.pop(task.name, None)
            return
        if attempt < self.max_attempts:
            # Write-once makes re-execution safe: the failed attempt
            # published nothing, so the task simply becomes ready again.
            self._inc("task_reexecutions")
            self.tracer.instant(self.node, "sched", "task", "task_retry",
                                task=task.name, attempt=attempt,
                                error=msg["error"])
            self.core.add_ready(task)
            return
        self._attempts.pop(task.name, None)
        if msg.get("parent") is not None:
            # A subtask of a split: sibling subtasks may already have
            # published ranges of the shared outputs, so rerouting the
            # parent would collide with write-once.  Local retries are the
            # only recourse (documented limitation, see docs/FAULTS.md).
            raise SchedulingError(
                f"subtask {task.name!r} failed {attempt} times on node "
                f"{self.node}: {msg['error']}")
        self.tracer.instant(self.node, "sched", "task", "task_escalate",
                            task=task.name, error=msg["error"])
        ctx.write("to_gsched", DataBuffer(
            {"op": "failed", "task": task.name, "node": self.node,
             "error": msg["error"]}))

    def _begin_cancel_drain(self, ctx: FilterContext) -> None:
        """Global scheduler asked for a cancel drain: discard queued
        ready work (no worker ever saw it, so dropping it is safe) and
        let only in-flight tasks run to completion."""
        self._cancelling = True
        for t in list(self.core.pending_tasks()):
            self.core.claim(t.name)
        self._maybe_ack_drain(ctx)

    def _maybe_ack_drain(self, ctx: FilterContext) -> None:
        """Tell the global scheduler this node is quiescent (once)."""
        if (self._cancelling and not self._drain_acked
                and self._inflight == 0):
            self._drain_acked = True
            self.tracer.instant(self.node, "sched", "run", "cancel_drain")
            ctx.write("to_gsched", DataBuffer(
                {"op": "cancel_drained", "node": self.node}))

    def process(self, ctx: FilterContext) -> None:
        self._maybe_beat(ctx)
        while True:
            if self._dying and self._inflight == 0:
                self._die(ctx)
                return
            try:
                port, buf = ctx.read_any(
                    ["in", "from_workers", "from_storage"],
                    timeout=None if self._dying else self.heartbeat_s)
            except TimeoutError:
                self._maybe_beat(ctx)
                continue
            self._maybe_beat(ctx)
            if buf is END_OF_STREAM:
                break
            msg = buf.payload
            if port == "in":
                if msg["op"] == "shutdown":
                    break
                if msg["op"] == "end":
                    # The DAG is done and the workers idle: no beacon
                    # until the next run, and storage finishes the run.
                    self.heartbeat_s = None
                    ctx.write("to_storage", DataBuffer({"op": "end"}))
                    continue
                if msg["op"] == "begin":
                    continue  # a run began: the beacon above went out
                if msg["op"] == "cancel":
                    self._begin_cancel_drain(ctx)
                    continue
                if msg["op"] == "gc":
                    ctx.write("to_storage", DataBuffer(
                        {"op": "delete", "array": msg["array"]}))
                    continue
                if msg["op"] in ("rehome", "ensure", "evict"):
                    # Reroute/recovery bookkeeping from the global
                    # scheduler, relayed to storage ahead of any
                    # re-dispatched task.
                    ctx.write("to_storage", DataBuffer(msg))
                    continue
                if msg["op"] == "synced":
                    self._syncing = False
                elif not self._cancelling:  # else: sent before the cancel
                    for task in msg["tasks"]:
                        self.core.add_ready(task)
            elif port == "from_storage":
                if msg["op"] == "ended":
                    # Storage's half of the barrier, behind everything this
                    # node sent the global scheduler during the run.
                    ctx.write("to_gsched", DataBuffer(msg))
                    continue
                self._on_storage_note(msg)  # wake/dropped; then re-dispatch
            else:
                # "idle" (a worker's first word), "done" or "failed": each
                # also says the worker instance that sent it is free.
                if msg["op"] == "failed":
                    self._on_failed(ctx, msg)
                elif msg["op"] == "done":
                    self._on_done(ctx, msg)
                self._idle.append(msg["inst"])
                self._maybe_ack_drain(ctx)
            self._dispatch(ctx)
        # Wind down: workers are idle by construction (the global scheduler
        # only announces shutdown once the DAG is complete).
        for worker in range(self.workers):
            ctx.write("to_workers", DataBuffer(
                {"op": "shutdown"}, {"__dest__": worker}))
        ctx.write("to_storage", DataBuffer({"op": "shutdown"}))

