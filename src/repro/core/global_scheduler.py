"""The global scheduler: affinity-based task placement, and the filter
that walks the DAG with it.

"Tasks are sent to the compute nodes which host most of the data required
to process them."  Placement walks the DAG in topological order; a task's
outputs become homed on its assigned node, so affinity chains through the
graph.  Ties are broken toward the least-loaded node (by assigned input
bytes), then the lowest node index — both deterministic.

``GlobalScheduler`` and ``failover_node`` are pure;
``_GlobalSchedulerFilter`` is their event loop in the engine: it sends
ready tasks where they were placed, reroutes one that keeps failing, and
fails a dead node's tasks over by the same affinity rule.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, NoReturn

from repro.core.array import ArrayDesc
from repro.core.dag import TaskDAG
from repro.core.errors import NodeLostError, SchedulingError, TaskFailedError
from repro.core.task import TaskSpec
from repro.datacutter.buffers import END_OF_STREAM, DataBuffer
from repro.datacutter.filters import Filter, FilterContext
from repro.obs import Tracer
from repro.obs.metrics import MetricsRegistry
from repro.recovery.lineage import LineageLog, plan_reconstruction
from repro.recovery.membership import SUSPECT, MembershipTracker

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import RunState


def failover_node(
    task_inputs,
    array_homes: Mapping[str, int],
    survivors: list[int],
    array_nbytes: Mapping[str, int],
) -> int:
    """Pick the survivor hosting the most input bytes of a recovering task.

    The same affinity heuristic as initial placement ("tasks are sent to
    the compute nodes which host most of the data required to process
    them"), restricted to nodes still alive after a failure.  Ties break
    toward the lowest node index; pass ``survivors`` sorted for a
    deterministic choice.
    """
    if not survivors:
        raise SchedulingError("failover_node needs at least one survivor")
    return max(survivors, key=lambda node: sum(
        array_nbytes.get(a, 0) for a in task_inputs
        if array_homes.get(a) == node))


class GlobalScheduler:
    """Computes (and records) a task -> node assignment."""

    def __init__(
        self,
        dag: TaskDAG,
        n_nodes: int,
        array_homes: Mapping[str, int],
        array_nbytes: Mapping[str, int],
    ):
        if n_nodes < 1:
            raise SchedulingError("need at least one node")
        for array in dag.initial_arrays:
            if array not in array_homes:
                raise SchedulingError(f"initial array {array!r} has no home node")
            if not 0 <= array_homes[array] < n_nodes:
                raise SchedulingError(
                    f"initial array {array!r} homed on invalid node "
                    f"{array_homes[array]}"
                )
        self.dag = dag
        self.n_nodes = n_nodes
        self.array_homes: dict[str, int] = dict(array_homes)
        self.array_nbytes = dict(array_nbytes)
        self.assignment: dict[str, int] = {}
        self._node_load: list[float] = [0.0] * n_nodes

    def _nbytes(self, array: str) -> int:
        size = self.array_nbytes.get(array)
        if size is None:
            raise SchedulingError(f"array {array!r} has no declared size")
        return size

    def assign_all(self) -> dict[str, int]:
        """Place every task; returns {task_name: node}."""
        for name in self.dag.topological_order():
            self.assignment[name] = self._place(name)
        return self.assignment

    def _place(self, name: str) -> int:
        t = self.dag.tasks[name]
        affinity = [0.0] * self.n_nodes
        for array in t.inputs:
            home = self.array_homes.get(array)
            if home is None:
                raise SchedulingError(
                    f"task {name!r}: input {array!r} has no home when placed "
                    "(topological-order violation?)"
                )
            affinity[home] += self._nbytes(array)
        # Most affinity; ties: least accumulated load, then lowest index.
        node = min(range(self.n_nodes),
                   key=lambda n: (-affinity[n], self._node_load[n], n))
        self._node_load[node] += sum(self._nbytes(a) for a in t.inputs) or 1.0
        for array in t.outputs:
            self.array_homes[array] = node
        return node

    def node_tasks(self, node: int) -> list[str]:
        """Tasks assigned to ``node``, in topological order."""
        return [n for n in self.dag.topological_order() if self.assignment.get(n) == node]


@dataclass
class _RecoveryContext:
    """Everything the global scheduler needs to detect and survive a node
    loss; a run either tracks node loss with all of it, or has none."""

    #: the heartbeat-driven failure detector
    tracker: MembershipTracker
    descs: dict[str, ArrayDesc]
    nbytes: dict[str, int]
    #: (array, dead_node, new_home) -> copy the backing file to the new
    #: home's scratch (models a re-read from the shared filesystem)
    reseed: Callable[[str, int, int], None]
    metrics: MetricsRegistry
    #: the durable journal of what ran where and what recovery did
    lineage: LineageLog
    #: False turns detection into a named failure instead of recovery
    node_recovery: bool = True


class _GlobalSchedulerFilter(Filter):
    """Walks the DAG, dispatching ready tasks to their assigned nodes.

    With ``gc_arrays`` enabled, the scheduler also exercises the storage
    layer's delete interface: once every consumer of an intermediate array
    has completed, a garbage-collection message goes to every node (the
    home drops memory + scratch file, consumers drop cached copies).
    Initial arrays and terminal outputs are always kept.

    A task that exhausts its local re-execution budget is **rerouted**: the
    assignment moves to a node that has not tried it, the task's output
    arrays are rehomed there (broadcast to every node so directories and
    remote registrations follow), and the task is re-sent.  Once every
    node has tried and failed, the run dies with :class:`TaskFailedError`.
    """

    inputs = ("in",)

    def __init__(self, n_nodes: int, run: RunState, *,
                 gc_arrays: bool = False,
                 max_reroutes: int | None = None,
                 tracer: Tracer | None = None):
        self.n_nodes = n_nodes
        self.gc_arrays = gc_arrays
        self.max_reroutes = max_reroutes
        self.tracer = tracer or Tracer(enabled=False)
        self.outputs = tuple(f"out_{i}" for i in range(n_nodes))
        self.begin(run)

    def begin(self, run: RunState) -> None:
        """Bind the next run: its DAG, placement and recovery; nothing of
        the run before survives."""
        self.dag: TaskDAG = run.dag
        self.assignment = run.assignment
        #: array -> home node; shared with the engine so reroutes are
        #: visible to post-run ``fetch()``
        self.homes = run.homes
        #: failure detector, lineage, re-seeding (None = node loss not tracked)
        self.recovery = run.recovery
        self.membership = (run.recovery.tracker if run.recovery is not None
                           else None)
        #: cooperative cancellation token (None = run to completion)
        self.cancel = run.cancel
        self.park = run.park
        #: did this scheduler actually drain the run for a cancel?  The
        #: engine keys RunCancelled off this, not off the raw token, so a
        #: token set after the DAG completed does not fail a finished run.
        self.cancelled = False
        #: nodes whose drain acknowledgement is still outstanding
        self._cancel_pending: set[int] = set()
        self._consumers_left: dict[str, int] = {}
        self._tried: dict[str, set[int]] = {}  # task -> nodes that failed it
        self._reroutes: dict[str, int] = {}
        #: arrays GC'd cluster-wide (their producers may need replaying)
        self._collected: set[str] = set()
        #: completed tasks re-executing for block reconstruction; their
        #: "done" reports bypass DAG bookkeeping (already marked complete)
        self._replaying: set[str] = set()
        #: reassigned tasks the corpse may have finished with the report
        #: still in flight: a second "done" for these is expected, not a bug
        self._dup_ok: set[str] = set()
        #: deterministic round-robin cursor for homeless recovery placement
        self._failover_rr = 0
        if self.gc_arrays:
            for t in self.dag.tasks.values():
                for array in t.outputs:
                    self._consumers_left[array] = len(
                        self.dag.consumers_of(array))

    def _live_nodes(self) -> list[int]:
        if self.membership is None:
            return list(range(self.n_nodes))
        dead = set(self.membership.dead_nodes())
        return [n for n in range(self.n_nodes) if n not in dead]

    def _broadcast(self, ctx: FilterContext, payload: dict) -> None:
        for i in self._live_nodes():
            ctx.write(f"out_{i}", DataBuffer(dict(payload)))

    def _send(self, ctx: FilterContext, names: list[str]) -> None:
        """Deliver ready tasks, one message per node: a local scheduler
        with nothing resident dispatches at once, and handed siblings one
        by one it would force the first and evict the sub-matrix the next
        reuses (Fig. 5b)."""
        by_node: dict[int, list[TaskSpec]] = {}
        for name in names:
            by_node.setdefault(self.assignment[name], []).append(
                self.dag.tasks[name])
        for node, tasks in by_node.items():
            ctx.write(f"out_{node}", DataBuffer({"op": "tasks", "tasks": tasks}))

    def _collect(self, ctx: FilterContext, completed: str) -> None:
        for array in self.dag.tasks[completed].inputs:
            left = self._consumers_left.get(array)
            if left is None:
                continue  # initial array: never collected
            left -= 1
            self._consumers_left[array] = left
            if left == 0:
                self._collected.add(array)
                self._broadcast(ctx, {"op": "gc", "array": array})

    def _reroute(self, ctx: FilterContext, msg: dict) -> None:
        """Move a repeatedly-failing task to a node that has not tried it."""
        name, failed_node = msg["task"], msg["node"]
        tried = self._tried.setdefault(name, {self.assignment[name]})
        tried.add(failed_node)
        reroutes = self._reroutes.get(name, 0)
        live = self._live_nodes()
        candidates = [n for n in live if n not in tried]
        if not candidates or (self.max_reroutes is not None
                              and reroutes >= self.max_reroutes):
            raise TaskFailedError(
                f"task {name!r} failed on node(s) {sorted(tried)} "
                f"(last error: {msg['error']})")
        new_node = candidates[0]
        self._reroutes[name] = reroutes + 1
        self.tracer.instant(new_node, "gsched", "task", "task_reroute",
                            task=name, from_node=failed_node,
                            error=msg["error"])
        self._move_task(ctx, name, new_node)
        self._send(ctx, [name])

    def _move_task(self, ctx: FilterContext, name: str, new_node: int,
                   *, recover: bool = False) -> None:
        """Re-home a task's outputs to ``new_node`` and prep its inputs.

        Outputs follow the task: every live node updates its registration
        (local on the new home, remote handles elsewhere) and forgets
        cached owner entries and block state; inputs are at least remotely
        registered on the new node.  ``recover``: the old home is dead.
        """
        self.assignment[name] = new_node
        spec = self.dag.tasks[name]
        for array in spec.outputs:
            self.homes[array] = new_node
            self._broadcast(ctx, {"op": "rehome", "array": array,
                                  "home": new_node, "recover": recover})
        for array in spec.inputs:
            ctx.write(f"out_{new_node}", DataBuffer(
                {"op": "ensure", "array": array,
                 "home": self.homes.get(array, -1)}))

    # -- node-loss recovery ---------------------------------------------------

    def _check_membership(self, ctx: FilterContext, now: float) -> None:
        """Escalate nodes silent at ``now``.  A completion the corpse
        managed to report may still be queued when death fires; the plan
        then counts that task as incomplete and reassigns it, and the late
        duplicate "done" is absorbed via ``_dup_ok``."""
        for node, state in self.membership.check(now):
            silent = self.membership.snapshot(now)[node]["silent_s"]
            if state == SUSPECT:
                self.recovery.metrics.inc("nodes_suspected")
                self.tracer.instant(node, "gsched", "recovery",
                                    "node_suspect", silent_s=silent)
            else:
                self.tracer.instant(node, "gsched", "recovery", "node_dead",
                                    silent_s=silent)
                self._on_node_dead(ctx, node)

    def _heartbeat(self, ctx: FilterContext, node: int) -> None:
        if self.membership.beat(node, time.monotonic()) is not None:
            # A quarantined suspect came back before the dead threshold.
            self.recovery.metrics.inc("nodes_recovered")
            self.tracer.instant(node, "gsched", "recovery", "node_alive")

    def _next_survivor(self, survivors: list[int]) -> int:
        node = survivors[self._failover_rr % len(survivors)]
        self._failover_rr += 1
        return node

    def _on_node_dead(self, ctx: FilterContext, dead: int) -> None:
        """Recover from one node's permanent loss.

        Eviction first (survivors stop probing the corpse), then lost
        initial arrays re-seed from the filesystem onto survivors, lost
        derived blocks are reconstructed by re-executing their (completed)
        producers from lineage, and the corpse's unfinished tasks move to
        survivors.  Write-once makes all of it safe: replays produce the
        same bytes, and no survivor cache needs invalidation.
        """
        if self.cancelled:
            # The run is being torn down anyway: no reconstruction, just
            # stop survivors probing the corpse and stop waiting for its
            # drain ack (its in-flight work died with it).
            self._broadcast(ctx, {"op": "evict", "node": dead})
            self._cancel_pending.discard(dead)
            return
        rc = self.recovery
        plan = plan_reconstruction(
            self.dag, self.homes, self.assignment, dead,
            descs=rc.descs, collected=self._collected)
        survivors = self._live_nodes()
        rc.metrics.inc("nodes_lost")
        rc.metrics.inc("blocks_lost", plan.lost_blocks)
        rc.lineage.record(
            "node_dead", node=dead, lost_arrays=plan.lost_arrays,
            lost_blocks=plan.lost_blocks, reseed=plan.reseed,
            replay=plan.replay, reassign=plan.reassign)
        rc.lineage.sync()
        if not survivors or not rc.node_recovery:
            raise NodeLostError(
                f"node {dead} declared dead with {len(plan.lost_arrays)} "
                f"arrays ({plan.lost_blocks} blocks) homed on it"
                + ("" if survivors else "; no survivors left to recover on")
                + ("" if rc.node_recovery else "; node recovery is disabled"),
                node=dead, lost_blocks=plan.lost_blocks)
        self._broadcast(ctx, {"op": "evict", "node": dead})
        for array in plan.reseed:
            new_home = self._next_survivor(survivors)
            rc.reseed(array, dead, new_home)
            self.homes[array] = new_home
            self._broadcast(ctx, {"op": "rehome", "array": array,
                                  "home": new_home, "on_disk": True,
                                  "recover": True})
            rc.metrics.inc("arrays_reseeded")
            rc.lineage.record("reseed", array=array, node=new_home)
        ready_now = set(self.dag.ready_tasks())
        for name in plan.replay:
            self._fail_over(ctx, name, dead, survivors, "replay",
                            "lineage_replay", "tasks_replayed")
            self._replaying.add(name)
            self._send(ctx, [name])
        for name in plan.reassign:
            self._fail_over(ctx, name, dead, survivors, "reassign",
                            "task_reassign", "tasks_reassigned")
            if name in ready_now and name not in self._replaying:
                # It had been dispatched to the corpse; send it again.  The
                # corpse may even have finished it with the report still in
                # flight, so tolerate one duplicate completion.
                self._dup_ok.add(name)
                self._send(ctx, [name])
        rc.lineage.sync()

    def _fail_over(self, ctx: FilterContext, name: str, dead: int,
                   survivors: list[int], kind: str, event: str,
                   metric: str) -> None:
        """Move a task of the corpse to the survivor hosting most of its
        inputs, on the record (``kind``: its lineage entry)."""
        rc = self.recovery
        new_node = failover_node(self.dag.tasks[name].inputs, self.homes,
                                 survivors, rc.nbytes)
        self._move_task(ctx, name, new_node, recover=True)
        self.tracer.instant(new_node, "gsched", "recovery", event,
                            task=name, from_node=dead)
        rc.metrics.inc(metric)
        rc.lineage.record(kind, task=name, node=new_node)

    def _all_vanished(self, ctx: FilterContext) -> NoReturn:
        """Every lsched control stream closed before the DAG completed.

        No heartbeat can arrive any more, so with a failure detector armed
        its clock runs from deadline to deadline until ``_on_node_dead``
        names the longest-silent node: a single-node kill, with no survivor
        left to heartbeat, still fails by name (``NodeLostError``).
        """
        if self.membership is not None:
            while (due := self.membership.next_deadline()) is not None:
                self._check_membership(ctx, due)  # may raise NodeLostError
        raise SchedulingError("local schedulers vanished before the DAG completed")

    def _begin_cancel(self, ctx: FilterContext) -> None:
        """The token fired: stop dispatching and ask every node to drain.

        The drain request goes to local schedulers, never to storage:
        each node finishes (only) its in-flight tasks, acks, and the
        normal shutdown broadcast below runs once every ack is in — so
        storage still drains strictly after all workers everywhere are
        idle, same as a completed run.
        """
        if self.cancelled:
            return  # the token check at start, then the posted message
        self.cancelled = True
        self._cancel_pending = set(self._live_nodes())
        self.tracer.instant(-1, "gsched", "run", "run_cancel",
                            reason=self.cancel.reason)
        self._broadcast(ctx, {"op": "cancel"})

    def process(self, ctx: FilterContext) -> None:
        """Between runs, wait for the engine's ``run``; run it; park on the
        barrier, or wind the graph down (a ``shutdown`` from the engine, a
        cancelled run, a node death, the process plane)."""
        while True:
            _port, buf = ctx.read_any(["in"])
            if buf is END_OF_STREAM or buf.payload["op"] == "shutdown":
                break
            # Anything else but "run" is left over from the run that ended:
            # a cancel posted after it finished, a heartbeat, a sync.
            if buf.payload["op"] == "run" and not self._run(ctx):
                break
        for i in range(self.n_nodes):
            ctx.write(f"out_{i}", DataBuffer({"op": "shutdown"}))

    def _run(self, ctx: FilterContext) -> bool:
        """Walk the DAG to completion (or drain it for a cancel); True if
        the run ended on the barrier with the graph parked."""
        if self.membership is not None:
            # Every node beats from now on, whether it has work or not.
            self._broadcast(ctx, {"op": "begin"})
        if self.cancel is not None and self.cancel.is_set():
            # Cancelled before dispatch: nothing runs, but the drain
            # handshake still happens so the exit path is the same.
            self._begin_cancel(ctx)
        else:
            self._send(ctx, sorted(self.dag.ready_tasks()))
        while True:
            if self.cancelled:
                if not self._cancel_pending:
                    return False  # every node drained: wind down
            elif self.dag.done and not self._replaying:
                break
            wait_s = None  # untimed: every other wake-up is a message
            if self.membership is not None:
                now = time.monotonic()
                self._check_membership(ctx, now)
                due = self.membership.next_deadline()
                wait_s = None if due is None else max(due - now, 0.0)
            try:
                _port, buf = ctx.read_any(["in"], timeout=wait_s)
            except TimeoutError:
                continue  # a detector deadline is due
            if buf is END_OF_STREAM:
                self._all_vanished(ctx)
            msg = buf.payload
            if msg["op"] == "heartbeat":
                self._heartbeat(ctx, msg["node"])
                continue
            if msg["op"] == "sync":
                # FIFO: what this node's completions made ready went first.
                ctx.write(f"out_{msg['node']}", DataBuffer({"op": "synced"}))
                continue
            if msg["op"] == "cancel":
                self._begin_cancel(ctx)
                continue
            if msg["op"] == "cancel_drained":
                self._cancel_pending.discard(msg["node"])
                continue
            if msg["op"] == "failed":
                if self.cancelled:
                    continue  # no reroutes for a run being torn down
                self._reroute(ctx, msg)
                continue
            if msg["task"] in self._replaying:
                # A reconstruction replay finished: the DAG already counts
                # this task as complete, so only clear the replay flag.
                self._replaying.discard(msg["task"])
                if self.recovery is not None:
                    self.recovery.lineage.record(
                        "replay_done", task=msg["task"])
                continue
            if msg["task"] in self._dup_ok and msg["task"] in self.dag.completed:
                # The corpse finished this task before dying; the survivor's
                # re-execution already marked it complete (or vice versa).
                self._dup_ok.discard(msg["task"])
                continue
            newly = self.dag.mark_complete(msg["task"])
            if not self.cancelled:
                self._send(ctx, newly)
            if self.recovery is not None:
                self.recovery.lineage.record(
                    "complete", task=msg["task"],
                    node=self.assignment.get(msg["task"], -1))
            if self.gc_arrays and not self.cancelled:
                self._collect(ctx, msg["task"])
        if not self.park or (self.membership is not None
                             and self.membership.dead_nodes()):
            return False  # a corpse's streams are closed: no next run
        return self._end(ctx)

    def _end(self, ctx: FilterContext) -> bool:
        """The barrier that ends a run.  Every local scheduler is told, its
        workers being idle; its storage answers once it holds no grant and
        has no I/O in flight; the answer comes back through the local
        scheduler, behind everything that node sent before.  With every
        node's answer in, the graph is quiescent and the run ends."""
        self._broadcast(ctx, {"op": "end"})
        waiting = set(range(self.n_nodes))
        while waiting:
            _port, buf = ctx.read_any(["in"])
            if buf is END_OF_STREAM:
                self._all_vanished(ctx)
            if buf.payload["op"] == "ended":
                waiting.discard(buf.payload["node"])
            # else a heartbeat, or a sync the "end" has answered
        ctx.end_run()
        return True
