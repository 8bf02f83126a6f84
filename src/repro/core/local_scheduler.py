"""The local scheduler: per-node reorder + prefetch decision core.

The local scheduler marks tasks ready once their predecessors finish,
prefers ready tasks "whose data input are available in memory", and
"makes sure that there are a given number of ready tasks whose data are
in memory by sending sufficient prefetch requests to the storage layer".
The paper's scheduler also "splits [tasks] to match the parallelism
available on the node"; here batching does that job: a worker is handed
a *batch* of resident ready tasks, at most its share of them, so no idle
worker goes without (:meth:`LocalSchedulerCore.batch`).  A task is never
split: no program declares how one would be.

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
models the same policy independently (ROADMAP item 4).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from collections.abc import Mapping
from typing import TYPE_CHECKING, AbstractSet, Literal, NamedTuple

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
    ``batch`` on one worker (its inputs are resident, or reordering is
    off); ``force`` its one task although its demand reads will load,
    ``why`` being ``declined`` (the store refused to prefetch one of its
    inputs) or ``nothing_loading``; ``sync`` with the global scheduler
    first; or ``wait`` for a message."""

    action: Literal["run", "force", "sync", "wait"]
    #: the tasks one worker gets, top-ranked first (empty: sync or wait)
    batch: tuple[TaskSpec, ...] = ()
    why: str = ""

    @property
    def task(self) -> TaskSpec | None:
        """The batch's top-ranked task (None: nothing is handed out)."""
        return self.batch[0] if self.batch else None


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
               syncing: bool = False, unsynced: bool = False,
               idle: int = 1, room: int = 0) -> Decision:
        """Decide what an idle worker gets, and *claim* it.

        Section III-C: "a task which is ready and whose data input are
        available in memory is sent to the computing filter" — with the
        further resident ones :meth:`batch` lets ride along (``idle``:
        the workers free now, this one included; ``room``: the bytes the
        driver's view says are free).  When no ready task is resident,
        the rule waits for events, never for the clock (DESIGN.md,
        section 6).  Whatever is in flight — a task running here
        (``inflight``), an input of a ready task in ``loading``, a
        ``syncing`` request — ends in a message: wait for it.  With
        nothing in flight but completions the global scheduler has not
        answered for (``unsynced``), tasks they made ready (a resident
        one, perhaps) may be on their way: sync first.  Otherwise no
        message is coming, and the top-ranked task is forced, alone: its
        demand reads load, and may evict.  ``resident``, ``loading`` and
        ``declined`` are what the store's notes have said so far.
        """
        ranked = self.rank(resident, nbytes)
        if not ranked:
            return Decision("wait")
        if not self.reorder:
            # Ablation: the naive plan runs strictly in readiness order,
            # one task a hand-off, paying demand loads as they come
            # (Fig. 5a).
            return Decision("run", (self.claim(ranked[0].name),))
        hot = list(itertools.takewhile(
            lambda t: all(a in resident for a in t.inputs), ranked))
        if hot:
            return Decision("run", tuple(
                self.claim(t.name)
                for t in self.batch(hot, nbytes, idle=idle, room=room)))
        if inflight or syncing or any(
                a in loading for t in ranked for a in t.inputs):
            return Decision("wait")
        if unsynced:
            return Decision("sync")
        task = self.claim(ranked[0].name)
        return Decision("force", (task,),
                        "declined" if declined.intersection(task.inputs)
                        else "nothing_loading")

    def batch(self, hot: list[TaskSpec], nbytes: Mapping[str, int], *,
              idle: int = 1, room: int = 0) -> list[TaskSpec]:
        """The tasks one hand-off carries, out of ``hot`` (the ready tasks
        with every input resident, in rank order): the first, then the
        next ones while the batch is at most this worker's share of them,
        ⌈len(hot) / idle⌉ — so no idle worker goes without — and their
        outputs fit in ``room``, the driver's view of free memory (budget
        less resident arrays less the outputs of tasks in flight) with
        room to spare, so without an eviction.  Out of core that view is
        full, and a batch is one task; so it is without a view (``room``
        0)."""
        share = -(-len(hot) // max(idle, 1))
        for size, task in enumerate(hot[:share]):
            room -= sum(nbytes.get(a, 0) for a in task.outputs)
            if size and room <= 0:
                return hot[:size]
        return hot[:share]

    def claim(self, name: str) -> TaskSpec:
        """Remove a ready task from the pool (the caller will run it)."""
        return self._ready.pop(name).task

    def prefetch_plan(self, resident: AbstractSet[str],
                      nbytes: Mapping[str, int]) -> list[str]:
        """Arrays to warm for the next ``prefetch_depth`` preferred tasks.

        Already-resident and already-requested arrays are skipped (until
        :meth:`forget_prefetch`); the caller should forward each name to
        the storage layer once.
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
        """Allow an array to be prefetched again: the store freed memory
        since it declined the request, or dropped the array."""
        self._prefetched.discard(array)


class _LocalSchedulerFilter(Filter):
    """Per-node scheduler: dispatch and prefetch.

    The step function around :class:`LocalSchedulerCore`.  Prefetch
    requests keep a window of ready tasks memory-resident; they only fill
    free memory, so out of core the store declines them, and what happens
    then is the core's :meth:`~LocalSchedulerCore.choose`.  The filter
    never asks the store: its notes say what is ``resident`` or
    ``dropped`` and answer each prefetch.  It keeps the counts the rule is
    about — tasks in flight here, completions not yet synced with the
    global scheduler, prefetches not yet answered — and waits whenever it
    says wait: each ends in a message (``done``/``failed``, a note, ``synced``).
    """

    #: notes first: a choice sees every change the store has sent so far
    inputs = ("from_storage", "in", "from_workers")
    outputs = ("to_gsched", "to_workers", "to_storage")

    def __init__(self, node: int, workers: int, run: RunState, *,
                 reorder: bool = True, tracer: Tracer | None = None,
                 max_attempts: int = 3):
        self.node = node
        self.workers = workers
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
        self.core = LocalSchedulerCore(self.node, reorder=self.reorder)
        self.nbytes = run.nbytes
        store = run.stores.get(self.node)
        self.metrics = store.metrics if store is not None else None
        #: the node's memory budget (0 without a store: batches of one)
        self.budget = store.budget if store is not None else 0
        #: liveness beacon period (None = membership tracking off)
        self.heartbeat_s = (run.recovery.tracker.config.heartbeat_s
                            if run.recovery is not None else None)
        self.injector = run.injectors.get(self.node)
        #: injected permanent death point: die after this many worker
        #: completions on this node (None = immortal)
        self._kill_after = (self.injector.kill_step()
                            if self.injector is not None else None)
        self._next_beat = 0.0
        self._attempts: dict[str, tuple[int, TaskSpec]] = {}  # (tries, spec)
        self._inflight = 0
        #: bytes the outputs of the tasks in flight here will take
        self._inflight_bytes = 0
        self._completions = 0
        #: completions were reported since the last sync with the global
        #: scheduler / a sync request is unanswered
        self._unsynced = self._syncing = False
        #: the store's residency as its notes tell it (seeded while the
        #: graph is parked): arrays all resident, prefetched and not yet
        #: answered, declined (-> bytes dropped since), named by any note
        self._resident: set[str] = set()
        self._resident_bytes = 0
        self._now_resident(store.resident_arrays() if store is not None
                           else ())
        self._loading: set[str] = set()
        self._declined: dict[str, int] = {}
        self._told: set[str] = set()
        #: the run is cancelled: no dispatch, no retries, no escalation —
        #: only in-flight work finishes, then the run ends as usual
        self._cancelling = False
        #: the run's "end" went to storage / the node died (injected)
        self._ended = self._dead = False

    def _on_note(self, msg: dict) -> None:
        """A storage note about one array.  ``dropped`` re-arms it, and a
        declined prefetch once the drops since add up to its size (only
        freed memory can let it fit).  The others answer a prefetch; a
        *failed* one is not re-armed: the task's demand read reports it."""
        op, array = msg["op"], msg["array"]
        self._told.add(array)
        if op == "dropped":
            if array in self._resident:
                self._resident.discard(array)
                self._resident_bytes -= self.nbytes.get(array, 0)
            self.core.forget_prefetch(array)
            for name in list(self._declined):
                self._declined[name] += self.nbytes.get(array, 0)
                if self._declined[name] >= self.nbytes.get(name, 0):
                    del self._declined[name]
                    self.core.forget_prefetch(name)
            return
        self._loading.discard(array)
        if op == "resident":
            self._now_resident((array,))
            self._declined.pop(array, None)
        elif op == "declined":
            self._declined[array] = 0

    def _now_resident(self, arrays) -> None:
        """Add ``arrays`` to the resident view, and their bytes to its
        total."""
        for array in arrays:
            if array not in self._resident:
                self._resident.add(array)
                self._resident_bytes += self.nbytes.get(array, 0)

    def _outputs_bytes(self, task: TaskSpec) -> int:
        return sum(self.nbytes.get(a, 0) for a in task.outputs)

    def _choose(self, ctx: FilterContext) -> tuple[TaskSpec, ...] | None:
        """Carry out what the core decides; returns the batch to hand to
        one worker."""
        decision = self.core.choose(
            self._resident, self.nbytes, declined=frozenset(self._declined),
            loading=self._loading, inflight=self._inflight,
            syncing=self._syncing, unsynced=self._unsynced,
            idle=len(self._idle),
            room=self.budget - self._resident_bytes - self._inflight_bytes)
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
        return decision.batch or None

    @property
    def _dying(self) -> bool:
        """Has the injected death point been reached?"""
        return (self._kill_after is not None
                and self._completions >= self._kill_after)

    def deadline(self) -> float | None:
        """The next liveness beacon, while the run wants one."""
        return (None if self.heartbeat_s is None or self._dying
                else self._next_beat)

    def on_deadline(self, ctx: FilterContext) -> None:
        """Send the periodic liveness beacon to the global scheduler.

        The beacon comes from this scheduler's clock, not from task
        progress, so a node mired in I/O retries or task re-executions
        still beats — the failure detector only fires on genuine silence.
        It is not routed through the tracer: a beat is not runtime
        progress and must not reset the stall watchdog's quiet clock.
        """
        self._next_beat = time.monotonic() + self.heartbeat_s
        self._inc("heartbeats_sent")
        ctx.write("to_gsched", DataBuffer({"op": "heartbeat", "node": self.node}))

    def _stop(self, ctx: FilterContext, op: str) -> None:
        """Shut the workers down and send storage ``op``."""
        for worker in range(self.workers):
            ctx.write("to_workers", DataBuffer(
                {"op": "shutdown"}, {"__dest__": worker}))
        ctx.write("to_storage", DataBuffer({"op": op}))

    def _die(self, ctx: FilterContext) -> None:
        """Permanent injected node death, as the loudest possible silence
        (the node's threads share the runtime with the survivors, so they
        cannot just vanish): workers shut down, storage turns corpse, the
        control stream to the global scheduler closes, and inbound traffic
        is discarded until every stream reaches end-of-stream."""
        if self.injector is not None:
            self.injector.record_node_kill(self._completions)
        self._stop(ctx, "die")
        ctx.close("to_gsched")
        ctx.close("to_storage")
        self._dead = True

    def _dispatch(self, ctx: FilterContext) -> None:
        """While a worker is idle and a task ready (no new work on a node
        that is dying or cancelled): keep the preferred tasks warm, the
        prefetches marked ``loading`` until answered, then hand out what
        the core chooses."""
        while (self._idle and self.core.ready_count
               and not self._dying and not self._cancelling):
            for array in self.core.prefetch_plan(self._resident, self.nbytes):
                self._loading.add(array)
                self.tracer.instant(self.node, "sched", "sched", "prefetch",
                                    array=array)
                ctx.write("to_storage", DataBuffer(
                    {"op": "prefetch", "array": array}))
            batch = self._choose(ctx)
            if batch is None:
                return
            self._hand_off(ctx, batch)

    def _hand_off(self, ctx: FilterContext, batch: tuple[TaskSpec, ...]) -> None:
        """Give an idle worker ``batch`` in one message; each of its tasks
        is in flight, on its next attempt."""
        worker = self._idle.pop(0)
        attempts = []
        for task in batch:
            attempt = self._attempts.get(task.name, (0,))[0] + 1
            self._attempts[task.name] = attempt, task
            attempts.append(attempt)
            self._inflight += 1
            self._inflight_bytes += self._outputs_bytes(task)
            self.tracer.instant(self.node, "sched", "task", "dispatch",
                                task=task.name, worker=worker,
                                attempt=attempt)
        ctx.write("to_workers", DataBuffer(
            {"op": "run", "batch": batch, "attempts": tuple(attempts)},
            {"__dest__": worker}))

    def debug_snapshot(self) -> dict:
        """Scheduler-side state for the stall watchdog (best effort)."""
        return {
            "ready_tasks": sorted(t.name for t in self.core.pending_tasks()),
            "inflight": self._inflight,
            "idle_workers": len(self._idle),
            "syncing": self._syncing,
            "loading": sorted(self._loading),  # prefetches not yet answered
        }

    def _inc(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name)

    def _on_report(self, ctx: FilterContext, msg: dict) -> None:
        """A worker's one report on its batch: the tasks it ``done``, the
        ones that ``failed`` (each spent an attempt), the ones it
        ``returned`` unrun behind a failure (they spent none).  The
        finished ones go to the global scheduler in one ``done``."""
        finished = []
        for name in msg["done"]:
            task = self._settle(name)
            self._completions += 1
            # The worker released before it reported: the outputs are
            # resident unless a note about them came first (one still on
            # its way corrects the view).
            self._now_resident(a for a in task.outputs if a not in self._told)
            finished.append(name)
        for failure in msg["failed"]:
            self._on_failed(ctx, failure)
        for name in msg["returned"]:
            tries, task = self._attempts[name]
            self._settle(name)
            if not self._cancelling:
                if tries > 1:
                    self._attempts[name] = tries - 1, task
                self.core.add_ready(task)
        if finished:
            self._unsynced = True
            ctx.write("to_gsched", DataBuffer({"op": "done",
                                               "tasks": finished}))

    def _settle(self, name: str) -> TaskSpec:
        """A task of a batch is no longer in flight; returns its spec."""
        _, task = self._attempts.pop(name)
        self._inflight -= 1
        self._inflight_bytes -= self._outputs_bytes(task)
        return task

    def _on_failed(self, ctx: FilterContext, failure: dict) -> None:
        """A failed attempt: re-execute or escalate."""
        attempt, task = self._attempts[failure["task"]]
        self._settle(task.name)
        if self._cancelling:
            # The run is being torn down: a failed attempt needs neither a
            # retry nor an escalation.
            return
        if attempt < self.max_attempts:
            # Write-once makes re-execution safe: the failed attempt
            # published nothing, so the task simply becomes ready again.
            self._attempts[task.name] = attempt, task
            self._inc("task_reexecutions")
            self.tracer.instant(self.node, "sched", "task", "task_retry",
                                task=task.name, attempt=attempt,
                                error=failure["error"])
            self.core.add_ready(task)
            return
        self.tracer.instant(self.node, "sched", "task", "task_escalate",
                            task=task.name, error=failure["error"])
        ctx.write("to_gsched", DataBuffer(
            {"op": "failed", "task": task.name, "node": self.node,
             "error": failure["error"]}))

    def _end(self, ctx: FilterContext) -> None:
        """Forward the run's end to storage, once: the DAG is done, or the
        run is cancelled and nothing is in flight here any more."""
        if not self._ended:
            self._ended = True
            if self._cancelling:
                self.tracer.instant(self.node, "sched", "run", "cancel_drain")
            ctx.write("to_storage", DataBuffer({"op": "end"}))

    def on(self, ctx: FilterContext, port: str | None, buf) -> bool:
        if self._dead:
            return buf is END_OF_STREAM
        if buf is END_OF_STREAM:
            port, buf = "in", DataBuffer({"op": "shutdown"})
        msg = buf.payload
        if port == "in":
            op = msg["op"]
            if op == "shutdown":
                # Workers are idle by construction: the global scheduler
                # only announces shutdown once every node's work is done.
                self._stop(ctx, "shutdown")
                return True
            if op == "end":
                self._end(ctx)  # the DAG is done and the workers idle
            elif op == "cancel":
                # No worker ever saw the ready work: drop it.
                self._cancelling = True
                for t in list(self.core.pending_tasks()):
                    self.core.claim(t.name)
            elif op == "gc":
                ctx.write("to_storage", DataBuffer(
                    {"op": "delete", "array": msg["array"]}))
            elif op in ("rehome", "ensure", "evict"):
                # Reroute/recovery bookkeeping from the global scheduler,
                # relayed to storage ahead of any re-dispatched task.
                ctx.write("to_storage", DataBuffer(msg))
            elif op == "synced":
                self._syncing = False
                self._dispatch(ctx)
            elif op == "tasks":  # none come after a cancel
                for task in msg["tasks"]:
                    self.core.add_ready(task)
                self._dispatch(ctx)
            # "begin": a run began, and with it the beacon
        elif port == "from_storage":
            if msg["op"] == "ended":
                # Storage's half of the barrier, behind everything this
                # node sent the global scheduler during the run; no
                # beacon until the next one.
                self.heartbeat_s = None
                ctx.write("to_gsched", DataBuffer(msg))
            else:
                self._on_note(msg)
                self._dispatch(ctx)
        else:
            # "idle" (a worker's first word) or "done", its report on a
            # batch: each also says the worker instance that sent it is free.
            if msg["op"] == "done":
                self._on_report(ctx, msg)
            self._idle.append(msg["inst"])
            self._dispatch(ctx)
        if self._dying and not self._inflight:
            self._die(ctx)
        elif self._cancelling and not self._inflight:
            self._end(ctx)
        return False
