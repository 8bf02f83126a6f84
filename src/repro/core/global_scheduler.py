"""The global scheduler: affinity-based task placement, and the filter
that walks the DAG with it.

"Tasks are sent to the compute nodes which host most of the data required
to process them."  Placement walks the DAG in topological order; a task's
outputs become homed on its assigned node, so affinity chains through the
graph.  Ties are broken toward the least-loaded node (by assigned input
bytes), then the lowest node index — both deterministic.

``GlobalScheduler`` and ``failover_node`` are pure;
``_GlobalSchedulerFilter`` is their step function in the engine: it sends
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
        #: did this scheduler actually end the run for a cancel?  The
        #: engine keys RunCancelled off this, not off the raw token, so a
        #: token set after the DAG completed does not fail a finished run.
        self.cancelled = False
        #: a run is open: between its "run" and the end of its barrier
        self._open = False
        #: the barrier that ends the run: nodes whose "ended" is still
        #: due (None: the run has not reached it)
        self._waiting: set[int] | None = None
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
        if self._waiting is not None:
            # The run is ending anyway: no reconstruction, just stop
            # survivors probing the corpse and stop waiting for its end
            # (its in-flight work died with it).
            self._broadcast(ctx, {"op": "evict", "node": dead})
            self._waiting.discard(dead)
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
        if not survivors:
            raise NodeLostError(
                f"node {dead} declared dead with {len(plan.lost_arrays)} "
                f"arrays ({plan.lost_blocks} blocks) homed on it; no "
                "survivors left to recover on",
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
        """Every lsched control stream closed before the run ended.  No
        heartbeat can come any more, so an armed detector's clock runs from
        deadline to deadline until ``_on_node_dead`` names the longest-silent
        node: a single-node kill still fails by name (``NodeLostError``)."""
        if self.membership is not None:
            while (due := self.membership.next_deadline()) is not None:
                self._check_membership(ctx, due)  # may raise NodeLostError
        raise SchedulingError("local schedulers vanished before the DAG completed")

    def _barrier(self, ctx: FilterContext, op: str) -> None:
        """Ask every live node to end the run: ``end`` (the DAG is done,
        the workers idle) or ``cancel`` (drop the ready work, finish what
        is in flight).  Either way each local scheduler then sends its
        storage ``end``; storage answers ``ended`` once it holds no grant
        and has no I/O in flight, and the answer comes back through the
        local scheduler, behind everything that node sent before."""
        self._waiting = set(self._live_nodes())
        self._broadcast(ctx, {"op": op})

    def deadline(self) -> float | None:
        """The failure detector's next deadline, while a run is open."""
        if self.membership is None or not self._open:
            return None
        return self.membership.next_deadline()

    def on_deadline(self, ctx: FilterContext) -> bool:
        self._check_membership(ctx, time.monotonic())
        return self._advance(ctx)

    def on(self, ctx: FilterContext, port: str | None, buf) -> bool:
        """Between runs, wait for the engine's ``run`` or ``shutdown``."""
        if buf is END_OF_STREAM:
            if self._open:
                self._all_vanished(ctx)
            return self._wind_down(ctx)
        msg = buf.payload
        op = msg["op"]
        if not self._open:
            if op == "shutdown":
                return self._wind_down(ctx)
            if op == "run":
                self._start(ctx)
                return self._advance(ctx)
            # Anything else is left over from the run that ended: a cancel
            # posted after it finished, a heartbeat, a sync.
            return False
        if op == "heartbeat":
            self._heartbeat(ctx, msg["node"])
        elif op == "sync":
            # FIFO: what this node's completions made ready went first.
            ctx.write(f"out_{msg['node']}", DataBuffer({"op": "synced"}))
        elif op == "cancel":
            self._cancel(ctx)
        elif op == "ended":
            self._waiting.discard(msg["node"])
            if self.membership is not None:  # it beats no more this run
                self.membership.quiet(msg["node"])
        elif op == "failed":
            if not self.cancelled:  # no reroutes for a run being torn down
                self._reroute(ctx, msg)
        else:
            self._on_done(ctx, msg["tasks"])
        return self._advance(ctx)

    def _start(self, ctx: FilterContext) -> None:
        self._open = True
        if self.membership is not None:
            # Every node beats from now on, whether it has work or not;
            # the detector's clock starts here.
            self._broadcast(ctx, {"op": "begin"})
            self._check_membership(ctx, time.monotonic())
        if self.cancel is not None and self.cancel.is_set():
            self._cancel(ctx)  # before dispatch: nothing runs
        else:
            self._send(ctx, sorted(self.dag.ready_tasks()))

    def _cancel(self, ctx: FilterContext) -> None:
        """The token fired: stop dispatching and end the run on the
        barrier (once; a run already on it ends anyway)."""
        if self._waiting is None:
            self.cancelled = True
            self.tracer.instant(-1, "gsched", "run", "run_cancel",
                                reason=self.cancel.reason)
            self._barrier(ctx, "cancel")

    def _on_done(self, ctx: FilterContext, names: list[str]) -> None:
        """A node finished a batch: what its tasks made ready goes out in
        one ``tasks`` message per node, ahead of what they let collect."""
        completed: list[str] = []
        newly: list[str] = []
        for task in names:
            if task in self._replaying:
                # A reconstruction replay finished: the DAG already counts
                # this task as complete, so only clear the replay flag.
                self._replaying.discard(task)
                if self.recovery is not None:
                    self.recovery.lineage.record("replay_done", task=task)
            elif task in self._dup_ok and task in self.dag.completed:
                # The corpse finished this task before dying; the
                # survivor's re-execution already marked it complete (or
                # vice versa).
                self._dup_ok.discard(task)
            else:
                newly += self.dag.mark_complete(task)
                completed.append(task)
        if not self.cancelled:
            self._send(ctx, newly)
        for task in completed:
            if self.recovery is not None:
                self.recovery.lineage.record(
                    "complete", task=task,
                    node=self.assignment.get(task, -1))
            if self.gc_arrays and not self.cancelled:
                self._collect(ctx, task)

    def _advance(self, ctx: FilterContext) -> bool:
        """Start the barrier once the DAG is done; end the run once every
        live node has answered it.  Every run ends there, on either plane
        and after a node death; the engine then winds down a graph it
        will not reuse."""
        if self._waiting is None and (not self.dag.done or self._replaying):
            return False
        if self._waiting is None:
            self._barrier(ctx, "end")
        if self._waiting:
            return False
        self._open = False
        ctx.end_run()
        return False

    def _wind_down(self, ctx: FilterContext) -> bool:
        for i in range(self.n_nodes):
            ctx.write(f"out_{i}", DataBuffer({"op": "shutdown"}))
        return True
