"""The threaded out-of-core execution engine.

``DOoCEngine`` runs a :class:`Program` — global arrays plus tasks declaring
whole arrays as inputs/outputs — on an in-process "cluster" of logical
nodes.  The engine builds the paper's architecture (Fig. 2) as a DataCutter
layout; each service is a filter that lives beside the pure core it is
the event loop of:

* one **storage filter** per node (:mod:`repro.core.storage_filter`)
  owning a :class:`~repro.core.storage.LocalStore` over a per-node scratch
  directory, with complete peer-to-peer links to all other storage filters
  (random-peer directory lookups + block fetches);
* one **I/O filter** per node (:mod:`repro.core.iofilter`), so
  filesystem interaction is fully asynchronous;
* a **local scheduler filter** per node (:mod:`repro.core.local_scheduler`)
  driving ``LocalSchedulerCore`` (batching, data-aware reordering,
  prefetching, the wait-or-force rule);
* replicated **worker filters** per node (:mod:`repro.core.worker`)
  executing task bodies on NumPy views granted by the storage layer;
* one **global scheduler filter** (:mod:`repro.core.global_scheduler`)
  walking the derived task DAG and dispatching ready tasks to the node
  chosen by the affinity heuristic.

What is left here is :class:`DOoCEngine` — the named steps of ``run()``,
the layout wiring the filters, the session, result access — and its
:class:`RunReport`.

The filter graph lives as long as the session (DESIGN.md, "Session
lifetime"): between runs its threads wait parked, and a run starts by
rebinding each filter (``begin(run)``) and posting one ``run`` message to
the global scheduler; it ends on a barrier, not on the threads' exit.

Nodes are threads sharing one address space; "remote" transfers are
real messages through the peer protocol (the payload copy is genuine), so
every protocol path of the paper executes, just without a physical wire.
"""

from __future__ import annotations

import functools
import itertools
import os
import shutil
import tempfile
import time
import weakref
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.array import ArrayDesc
from repro.core.cancel import CancelToken
from repro.core.codecs import resolve_codec
from repro.core.dag import TaskDAG
from repro.core.directory import DirectoryClient
from repro.core.errors import DoocError, NodeLostError, RunCancelled, StallError
from repro.core.global_scheduler import (GlobalScheduler,
                                         _GlobalSchedulerFilter,
                                         _RecoveryContext)
from repro.core.iofilter import (IOFilter, backing_codec, backing_identity,
                                 read_block, write_array)
from repro.core.local_scheduler import _LocalSchedulerFilter
from repro.core.procplane import ProcessWorkerPool
from repro.core.program import Program
from repro.core.session import EngineSession, FileBacking, RunState
from repro.core.shm import SegmentLeakError, SegmentPool
from repro.core.storage import LocalStore
from repro.core.storage_filter import _StorageFilter
from repro.core.worker import _WorkerFilter
from repro.datacutter.buffers import DataBuffer
from repro.datacutter.errors import FilterError
from repro.datacutter.layout import Layout
from repro.datacutter.runtime import ThreadedRuntime
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs import (
    Diagnosis,
    StallWatchdog,
    TraceEvent,
    Tracer,
    export_chrome_trace,
    save_events_jsonl,
)
from repro.recovery.lineage import LineageLog
from repro.recovery.membership import MembershipConfig, MembershipTracker
from repro.util.rng import RngTree

__all__ = ["Program", "DOoCEngine", "RunReport"]


@dataclass
class RunReport:
    """What a run produced, beyond the output arrays themselves."""

    wall_seconds: float
    assignment: dict[str, int]
    stream_stats: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: per-node metrics registry snapshots
    metrics: dict[int, dict] = field(default_factory=dict)
    #: structured runtime events (empty unless tracing was enabled)
    trace_events: list[TraceEvent] = field(default_factory=list)
    #: last watchdog diagnosis, when a mid-run stall was observed
    diagnosis: Diagnosis | None = None

    @property
    def total_loads(self) -> int:
        return sum(m.get("loads", 0) for m in self.metrics.values())

    @property
    def total_spills(self) -> int:
        return sum(m.get("spills", 0) for m in self.metrics.values())

    @property
    def total_remote_fetches(self) -> int:
        return sum(m.get("remote_fetches", 0) for m in self.metrics.values())

    # -- trace persistence ---------------------------------------------------

    def save_trace(self, path: str | Path) -> Path:
        """Write raw trace events as JSONL (``python -m repro trace <file>``)."""
        return save_events_jsonl(self.trace_events, path)

    def save_chrome_trace(self, path: str | Path) -> Path:
        """Write a ``chrome://tracing`` / Perfetto JSON file."""
        return export_chrome_trace(self.trace_events, path)


def _available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine, not the allowance — inside a
    cgroup-limited container or under ``taskset`` it oversizes the pool
    and the extra workers just contend.  The scheduler affinity mask is
    the real budget; fall back to ``cpu_count`` where the platform has no
    ``sched_getaffinity`` (macOS, Windows).
    """
    try:
        return len(os.sched_getaffinity(0)) or (os.cpu_count() or 2)
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 2


def default_worker_count() -> int:
    """Worker filters per node when the caller doesn't say: cpu-aware,
    but never fewer than 2 (compute/copy overlap needs at least two) and
    never more than 8 (beyond that, GIL'd glue code dominates)."""
    return max(2, min(8, _available_cpus()))


def _node_dir(root: Path, node: int) -> Path:
    return root / f"node{node}"


def _reseed_array(root: Path, array: str, dead: int, new_home: int) -> None:
    """Recover a lost *initial* array by re-reading its backing file.

    In the paper's deployment input files live on a shared parallel
    filesystem that outlives any compute node; here the corpse's scratch
    directory plays that role (threads don't take disks with them), so
    re-seeding is a byte copy into the new home's scratch.
    """
    from repro.core.iofilter import copy_array_files
    copy_array_files(_node_dir(root, dead), _node_dir(root, new_home), array)


#: seconds a graph between runs may take to wind down once told to
_STOP_S = 30.0


def _stop_graph(runtime: ThreadedRuntime) -> None:
    """End a graph that will not run again.  One whose last run ended on
    its barrier winds down in order: the global scheduler's shutdown
    broadcast, then end of stream everywhere.  That holds with every
    thread parked and after a node death, whose corpse still drains its
    streams though its workers have exited.  Any other graph has failed,
    or is stopped mid-run: its streams fail."""
    if runtime.between_runs:
        runtime.post("gsched", "in", DataBuffer({"op": "shutdown"}))
        runtime.join(_STOP_S)
    else:
        runtime.abort()


#: process-wide engine instance counter.  Stamped into every segment-pool
#: tag so two engines running concurrently in one process (the job-server
#: pool) can never mint the same /dev/shm name: pool names are
#: ``dooc-seg-<pid>-e<engine>r<run>-<seq>`` — unique per (process,
#: engine, run, allocation).  ``itertools.count`` is atomic under the GIL.
_ENGINE_IDS = itertools.count(1)


class DOoCEngine:
    """Out-of-core, multi-node (threaded) execution of DOoC programs."""

    def __init__(
        self,
        *,
        n_nodes: int = 1,
        workers: int | None = None,
        memory_budget_per_node: int = 256 * 2**20,
        opcache_bytes: int | None = None,
        scratch_dir: str | Path | None = None,
        rng_seed: int = 0,
        gc_arrays: bool = False,
        scheduler_reorder: bool = True,
        trace: bool | Tracer = False,
        watchdog_quiet_s: float | None = 10.0,
        faults: FaultPlan | None = None,
        io_retry: RetryPolicy | None = None,
        task_max_attempts: int = 3,
        task_max_reroutes: int | None = None,
        membership: MembershipConfig | bool | None = None,
        worker_plane: str = "thread",
        codec: str | None = None,
    ):
        if workers is None:
            # cpu_count-aware default: SpMV kernels release the GIL inside
            # scipy, so distinct ready tasks genuinely overlap; capped so a
            # many-core box doesn't drown a small run in idle threads.
            workers = default_worker_count()
        if n_nodes < 1 or workers < 1:
            raise DoocError("n_nodes and workers must be >= 1")
        if memory_budget_per_node <= 0:
            raise DoocError("memory_budget_per_node must be > 0")
        if task_max_attempts < 1:
            raise DoocError("task_max_attempts must be >= 1")
        if task_max_reroutes is not None and task_max_reroutes < 0:
            raise DoocError("task_max_reroutes must be >= 0")
        self.n_nodes = n_nodes
        self.workers_per_node = workers
        self.memory_budget_per_node = memory_budget_per_node
        #: on-disk block codec, snapshotted ONCE here: ``None`` samples
        #: DOOC_CODEC, and every descriptor the run spills is stamped with
        #: this snapshot — a mid-run flip of the environment variable
        #: cannot split readers from writers.
        self.codec = resolve_codec(codec)
        if worker_plane not in ("thread", "process"):
            raise DoocError(
                f"unknown worker_plane {worker_plane!r}: "
                "expected 'thread' or 'process'")
        self.worker_plane = worker_plane
        #: decoded-operand cache budget per node (0 disables; None = a
        #: quarter of the memory budget)
        if opcache_bytes is None:
            opcache_bytes = memory_budget_per_node // 4
        if opcache_bytes < 0:
            raise DoocError("opcache_bytes must be >= 0")
        self.opcache_bytes = int(opcache_bytes)
        self.gc_arrays = gc_arrays
        self.scheduler_reorder = scheduler_reorder
        #: deterministic fault plan (None or all-zero probabilities = off)
        self.faults = faults
        #: I/O retry/backoff policy; None uses the IOFilter default
        self.io_retry = io_retry
        #: per-node execution attempts before a task escalates to a reroute
        self.task_max_attempts = task_max_attempts
        #: cross-node reroutes before giving up (None = every other node)
        self.task_max_reroutes = task_max_reroutes
        #: failure detection: a MembershipConfig (or True for defaults)
        #: turns on heartbeats + the alive/suspect/dead tracker; None
        #: auto-enables it exactly when the fault plan injects node kills
        self.membership = membership
        #: run the protocol checkers (lock-order recorder, ticket-lifecycle
        #: auditor)?  The ``DOOC_CHECKERS`` flag, snapshotted here;
        #: production runs pay nothing.
        from repro.analysis import checkers_enabled
        self.protocol_checkers = checkers_enabled()
        #: ``trace=True`` records the run timeline (see repro.obs); a
        #: caller-provided Tracer is used as-is (e.g. a sim-clocked one).
        self.tracer = trace if isinstance(trace, Tracer) else Tracer(enabled=bool(trace))
        #: quiet seconds before the stall watchdog dumps a diagnosis;
        #: None disables the watchdog entirely.
        self.watchdog_quiet_s = watchdog_quiet_s
        self.rng = RngTree(rng_seed)
        self._engine_id = next(_ENGINE_IDS)
        self._scratch_finalizer = None
        if scratch_dir is None:
            # mkdtemp + a silent finalizer rather than TemporaryDirectory:
            # engines routinely live until garbage collection (fetch() reads
            # the scratch files after run()), and TemporaryDirectory's
            # implicit-cleanup ResourceWarning turns every such engine into
            # noise under ``-W error::ResourceWarning``.  The owning pid is
            # stamped into the name so the stale-resource sweeper
            # (repro.server.sweep) can tell an orphan from a live run's dir.
            scratch_dir = tempfile.mkdtemp(prefix=f"dooc-{os.getpid()}-")
            self._scratch_finalizer = weakref.finalize(
                self, shutil.rmtree, scratch_dir, True)
        self.scratch_root = Path(scratch_dir)
        #: what run N+1 may reuse of run N (see repro.core.session)
        self._session = EngineSession()
        self.stores: dict[int, LocalStore] = {}
        self._descs: dict[str, ArrayDesc] = {}
        self._homes: dict[str, int] = {}
        #: process-plane state (None on the thread plane): the shared
        #: memory segment pool backing the last run's sealed blocks, and
        #: the worker-process fleet.  Both are per-run; the pool of run N
        #: is closed once run N+1 has rebuilt the stores (fetch() between
        #: runs reads store views, which survive the segment unlink).
        self._segment_pool: SegmentPool | None = None
        self._proc_pool: ProcessWorkerPool | None = None
        #: numbers runs: peer-message epochs, segment names
        self._run_seq = 0
        #: the session's filter graph, parked between runs, and what winds
        #: it down (cleanup, a run that raised, or this engine's collection)
        self._graph: ThreadedRuntime | None = None
        self._graph_finalizer: weakref.finalize | None = None
        #: nodes whose scratch directory exists
        self._node_dirs: set[int] = set()

    def cleanup(self) -> None:
        """End the session and delete an engine-owned scratch directory
        now; the engine stays usable, its next run starting cold."""
        self._session.close()
        self._close_graph()
        if self._proc_pool is not None:
            self._proc_pool.shutdown()
            self._proc_pool = None
        if self._segment_pool is not None:
            self._segment_pool.close()
            self._segment_pool = None
        if self._scratch_finalizer is not None:
            self._scratch_finalizer()
            self._node_dirs.clear()

    def _close_graph(self) -> None:
        if self._graph_finalizer is not None:
            self._graph_finalizer()
        self._graph = self._graph_finalizer = None

    def node_scratch(self, node: int) -> Path:
        path = _node_dir(self.scratch_root, node)
        if node not in self._node_dirs:
            path.mkdir(parents=True, exist_ok=True)
            self._node_dirs.add(node)
        return path

    def _membership_config(self) -> MembershipConfig | None:
        m = self.membership
        if isinstance(m, MembershipConfig):
            return m
        if m is True:
            return MembershipConfig()
        if m is None and self.faults is not None and self.faults.node_kill:
            # Injecting node deaths without a failure detector would just
            # produce unexplained stalls; arm the default detector.
            return MembershipConfig()
        return None

    # -- run ---------------------------------------------------------------------

    def run(self, program: Program, *, timeout: float = 300.0,
            cancel: CancelToken | None = None) -> RunReport:
        """Submit ``program`` to this engine's stores and run it.

        The stores outlive the run (DESIGN.md, "Session lifetime"): the
        next run finds the arrays it declares again from unchanged
        scratch files still resident.  So does the filter graph, parked:
        the next run starts no thread.  Leaving by any exception closes
        the session and stops the graph, so the run after a failure
        starts cold.
        """
        carried = self._session.take()
        try:
            return self._run(program, carried, timeout, cancel)
        except BaseException as exc:
            if not (isinstance(exc, RunCancelled)
                    and self.worker_plane == "thread"
                    and self._graph is not None and self._graph.parked):
                self._close_graph()  # the session is closed: its graph too
            raise

    def _run(self, program: Program, carried: dict[str, FileBacking] | None,
             timeout: float, cancel: CancelToken | None) -> RunReport:
        self._run_seq += 1
        dag = program.build_dag()  # rejects a malformed program by name
        auditor = None
        if self.protocol_checkers:
            from repro.analysis.tickets import TicketAuditor
            auditor = TicketAuditor()
        assignment, nbytes = self._place(program, dag)
        backing = self._seed(program)
        old_pool = self._segment_pool
        proc_pool = self._open_worker_plane()
        directories, injectors = self._open_stores(
            program, assignment, carried, backing, auditor)
        if old_pool is not None:
            # Run N-1's segments: already unlinked in that run's finally;
            # re-close to sweep mappings whose views died with the old
            # stores just replaced above.
            old_pool.close()
        recovery = self._open_membership(program, assignment, nbytes)
        runtime = self._bind_graph(program.name, RunState(
            seq=self._run_seq, dag=dag, assignment=assignment,
            homes=self._homes, descs=self._descs, nbytes=nbytes,
            stores=self.stores, directories=directories, injectors=injectors,
            recovery=recovery, cancel=cancel,
            segment_pool=self._segment_pool, plane=proc_pool))
        watchdog = self._build_watchdog(runtime, recovery)
        self.tracer.instant(-1, "engine", "run", "phase",
                            phase="start", program=program.name)
        started = time.monotonic()
        leaked_leases = self._execute(runtime, watchdog, recovery, proc_pool,
                                      timeout, cancel)
        self.tracer.instant(-1, "engine", "run", "phase", phase="end")
        if auditor is not None:
            # Every grant on every node must have been unwound by a release
            # or an abandonment; leaks are named ticket-by-ticket.
            auditor.assert_clean()
            if leaked_leases:
                detail = ", ".join(
                    f"{n} x{c}" for n, c in sorted(leaked_leases.items()))
                raise SegmentLeakError(
                    f"segment leases leaked past the run: {detail}")
        if runtime.instances["gsched"][0].filter.cancelled:
            # The scheduler drained the run for the token (the flag, not
            # the raw token, is authoritative: a token set after the DAG
            # completed must not fail a finished run).  Raised after the
            # audits above, so a cancelled run is certified exactly as
            # clean as a completed one.
            reason = cancel.reason if cancel is not None else "cancelled"
            raise RunCancelled(f"run cancelled: {reason}", reason=reason)
        report = self._report(time.monotonic() - started, assignment, runtime,
                              recovery, watchdog)
        if self.worker_plane == "thread" and not (
                recovery is not None and recovery.tracker.dead_nodes()):
            # Reusable as they stand, and so is the graph, parked on the
            # run's barrier.  Not on the process plane, whose blocks lived
            # in the segments this run just unlinked; not after a death,
            # which left a corpse's store and moved homes.
            self._session.commit(backing)
        else:
            # The run ended on the same barrier; the graph winds down now
            # that the report has read the run's streams.
            self._close_graph()
        return report

    def _bind_graph(self, name: str, run: RunState) -> ThreadedRuntime:
        """The session's parked graph rebound to ``run``, or a new graph
        started for it."""
        if self._graph is not None:
            self._graph.begin_run(lambda filt: filt.begin(run))
            return self._graph
        recorder = None
        if self.protocol_checkers:
            from repro.analysis.lockorder import LockOrderRecorder
            recorder = LockOrderRecorder()
        runtime = ThreadedRuntime(self._build_layout(name, run),
                                  lock_recorder=recorder)
        runtime.start()
        self._graph = runtime
        # Nothing in the graph refers to the engine, so an engine dropped
        # without cleanup() is collected, and this winds its graph down.
        self._graph_finalizer = weakref.finalize(self, _stop_graph, runtime)
        return runtime

    def _place(self, program: Program,
               dag: TaskDAG) -> tuple[dict[str, int], dict[str, int]]:
        """Fix the run's descriptors, array homes and task assignment."""
        # Stamp the engine's codec snapshot onto every descriptor that
        # doesn't pin one of its own: spills, loads, and checkpoints all
        # see the same codec for the whole run.  An array declared from
        # scratch takes its files' codec instead (``_seed``).
        self._descs = {
            name: d if d.codec is not None else replace(d, codec=self.codec)
            for name, d in program.arrays.items()
        }
        nbytes = {name: d.nbytes for name, d in self._descs.items()}
        for name, home in program.initial_home.items():
            if not 0 <= home < self.n_nodes:
                raise DoocError(
                    f"initial array {name!r} homed on node {home}, but the "
                    f"engine has {self.n_nodes} nodes"
                )
        gsched = GlobalScheduler(dag, self.n_nodes,
                                 array_homes=program.initial_home,
                                 array_nbytes=nbytes)
        assignment = gsched.assign_all()
        self._homes = dict(gsched.array_homes)
        return assignment, nbytes

    def _seed(self, program: Program) -> dict[str, FileBacking]:
        """Write the seeded initial arrays to their homes' scratch (not
        fsynced: a seed copies data the caller holds, so nothing needs it
        after a crash), and identify the files behind the ones declared
        from scratch, whose descriptors take the codec those files were
        written with: a load opens the file its descriptor names."""
        backing: dict[str, FileBacking] = {}
        for name, data in program.initial_data.items():
            home = program.initial_home[name]
            scratch = self.node_scratch(home)
            if data is not None:
                write_array(scratch, self._descs[name], data, durable=False)
                continue
            identity = backing_identity(scratch, name)
            if identity is None:
                raise DoocError(
                    f"initial array {name!r} declared from scratch but "
                    f"no backing file exists on node {home}"
                )
            desc = self._descs[name] = replace(
                self._descs[name], codec=backing_codec(scratch, identity))
            backing[name] = FileBacking(desc, home, identity)
        return backing

    def _open_worker_plane(self) -> ProcessWorkerPool | None:
        """Process plane: per-run segment pool + worker-process fleet.

        Children are forked NOW, before this run's filter threads start.
        Other threads may be running: the graphs other engines keep parked,
        a job server's.  A child runs only the task bodies it is sent.
        """
        self._segment_pool = self._proc_pool = None
        if self.worker_plane == "process":
            # e<engine>r<run>: two concurrent engines in one process get
            # disjoint /dev/shm namespaces.
            self._segment_pool = SegmentPool(
                tag=f"e{self._engine_id}r{self._run_seq}")
            self._proc_pool = ProcessWorkerPool(
                self.n_nodes, self.workers_per_node, self.opcache_bytes)
            self._proc_pool.start()
        return self._proc_pool

    def _open_stores(self, program: Program, assignment: dict[str, int],
                     carried: dict[str, FileBacking] | None,
                     backing: dict[str, FileBacking], auditor,
                     ) -> tuple[dict[int, DirectoryClient],
                                dict[int, FaultInjector | None]]:
        """Per-node stores — the session's, or fresh ones — with every
        array of the program that is not already there registered."""
        self.stores = self._session.open_stores(
            carried, backing, n_nodes=self.n_nodes,
            memory_budget=self.memory_budget_per_node,
            opcache_bytes=self.opcache_bytes,
            segment_pool=self._segment_pool, tracer=self.tracer)
        directories = {}
        injectors: dict[int, FaultInjector | None] = {}
        inject = self.faults is not None and self.faults.enabled
        for node, store in self.stores.items():
            consumed_here = {
                a
                for t in program.tasks
                if assignment[t.name] == node
                for a in t.inputs
            }
            for name, desc in self._descs.items():
                if store.has_array(name):
                    continue  # carried over from the last run
                home = self._homes[name]
                if home == node:
                    if name in program.initial_data:
                        store.register_on_disk(desc)
                    else:
                        store.create_array(desc)
                elif name in consumed_here:
                    store.register_remote(desc)
            store.auditor = auditor
            directories[node] = DirectoryClient(
                node, self.n_nodes, self.rng.child("directory", node))
            injectors[node] = FaultInjector(
                self.faults, node, metrics=store.metrics,
                tracer=self.tracer) if inject else None
        return directories, injectors

    def _open_membership(self, program: Program, assignment: dict[str, int],
                         nbytes: dict[str, int]) -> _RecoveryContext | None:
        """The run's failure detector and what recovery needs (None when
        node loss is not tracked)."""
        membership_cfg = self._membership_config()
        if membership_cfg is None:
            return None
        # Durable lineage: every (task, node, inputs, outputs) fact the
        # reconstruction planner relies on, journaled before the run.
        lineage = LineageLog(self.scratch_root / "lineage.jsonl")
        for t in program.tasks:
            lineage.record("task", task=t.name, node=assignment[t.name],
                           inputs=list(t.inputs), outputs=list(t.outputs))
        lineage.sync()
        return _RecoveryContext(
            tracker=MembershipTracker(self.n_nodes, membership_cfg),
            descs=self._descs, nbytes=nbytes,
            reseed=functools.partial(_reseed_array, self.scratch_root),
            metrics=MetricsRegistry(), lineage=lineage)

    def _report(self, wall: float, assignment: dict[str, int],
                runtime: ThreadedRuntime, recovery: _RecoveryContext | None,
                watchdog: StallWatchdog | None) -> RunReport:
        metrics = {n: s.metrics.as_dict() for n, s in self.stores.items()}
        engine = recovery.metrics.as_dict() if recovery is not None else {}
        pool = self._segment_pool
        if pool is not None:
            # One pool serves every node's store, so what it cost is the
            # engine's to report: segments created, and the most shared
            # memory it ever held mapped beyond the blocks alive in it.
            engine["shm_segments_created"] = pool.created
            engine["shm_slack_peak_bytes"] = pool.slack_peak_bytes
        if engine:
            # Engine-level counters ride under the pseudo-node -1 (the
            # same convention the tracer uses for engine events).
            metrics[-1] = engine
        return RunReport(
            wall_seconds=wall,
            assignment=assignment,
            stream_stats=runtime.stream_stats(),
            metrics=metrics,
            trace_events=self.tracer.drain(),
            diagnosis=watchdog.last_diagnosis if watchdog is not None else None,
        )

    def _execute(self, runtime: ThreadedRuntime,
                 watchdog: StallWatchdog | None,
                 recovery: _RecoveryContext | None,
                 proc_pool: ProcessWorkerPool | None,
                 timeout: float,
                 cancel: CancelToken | None) -> dict[str, int]:
        """Start the run with one message and wait for its end, turning the
        graph's failures into named errors; returns the segment leases the
        run leaked.  While it runs, ``cancel`` posts one message to the
        global scheduler, and the wait wakes for the watchdog's checks."""
        unhook = (lambda: None) if cancel is None else cancel.on_cancel(
            lambda: runtime.post("gsched", "in", DataBuffer({"op": "cancel"})))
        try:
            runtime.post("gsched", "in", DataBuffer({"op": "run"}))
            deadline = time.monotonic() + timeout
            while True:
                wake = None
                if watchdog is not None:  # its deadline, on this clock
                    wake = (time.monotonic() + watchdog.next_deadline()
                            - self.tracer.now())
                if runtime.wait_run(deadline, wake=wake):
                    break
                watchdog.check(self.tracer.now())
        except FilterError as exc:
            # A declared node loss that could not be recovered (no
            # survivors) surfaces by name rather than as an opaque filter
            # crash.
            cause = self._node_loss_cause(runtime, exc)
            if cause is not None:
                raise cause from exc
            raise
        except TimeoutError as exc:
            # Replace the runtime's opaque timeout with the watchdog's view
            # of who is stuck (blocked tickets, queued allocations, ready
            # pools); StallError still `is a` TimeoutError for old callers.
            diagnosis = watchdog.diagnose() if watchdog is not None else None
            message = str(exc)
            if diagnosis is not None:
                message = f"{message}\n{diagnosis.render()}"
            if recovery is not None and recovery.tracker.dead_nodes():
                # Not a generic stall: a node is dead and the run wedged
                # anyway.  Name the corpse and what it took with it.
                dead = recovery.tracker.dead_nodes()[0]
                lost = sum(
                    len(list(d.blocks()))
                    for a, d in self._descs.items()
                    if self._homes.get(a) == dead)
                raise NodeLostError(
                    f"node {dead} was declared dead and the run did not "
                    f"recover in time: {message}", diagnosis,
                    node=dead, lost_blocks=lost) from exc
            raise StallError(message, diagnosis) from exc
        finally:
            unhook()
            if recovery is not None:
                recovery.lineage.close()
            if proc_pool is not None:
                proc_pool.shutdown()
            if self._segment_pool is not None:
                # Record any leaked leases for the audit, then unlink
                # everything: /dev/shm is clean after *every* run, success
                # or not.  fetch() keeps working — the stores' sealed
                # views outlive the unlink.
                leaked_leases = self._segment_pool.lease_counts()
                self._segment_pool.close()
            else:
                leaked_leases = {}
        return leaked_leases

    @staticmethod
    def _node_loss_cause(runtime: ThreadedRuntime,
                         exc: FilterError) -> NodeLostError | None:
        """Find a NodeLostError among the runtime's filter failures."""
        errors = list(getattr(runtime, "_errors", None) or [])
        for err in [exc, *errors]:
            cause = getattr(err, "cause", None)
            if isinstance(cause, NodeLostError):
                return cause
        return None

    def _build_watchdog(self, runtime: ThreadedRuntime,
                        recovery: _RecoveryContext | None,
                        ) -> StallWatchdog | None:
        if not self.watchdog_quiet_s:
            return None
        watchdog = StallWatchdog(self.tracer, quiet_s=self.watchdog_quiet_s)
        for node, store in self.stores.items():
            watchdog.watch_store(node, store)
        for node in range(self.n_nodes):
            for name in (f"lsched@{node}", f"worker@{node}"):
                for inst in runtime.instances[name]:
                    watchdog.watch_scheduler(node, inst.filter.debug_snapshot)
        if recovery is not None:
            watchdog.watch_membership(
                lambda: recovery.tracker.snapshot(time.monotonic()))
        return watchdog

    def _build_layout(self, name: str, run: RunState) -> Layout:
        """The paper's Fig. 2 as a layout, its filters bound to ``run``.
        The factories capture values, never the engine: the graph's
        threads may outlive every reference to it."""
        n, tracer, retry = self.n_nodes, self.tracer, self.io_retry
        workers = self.workers_per_node
        gsched = dict(gc_arrays=self.gc_arrays,
                      max_reroutes=self.task_max_reroutes, tracer=tracer)
        lsched = dict(reorder=self.scheduler_reorder, tracer=tracer,
                      max_attempts=self.task_max_attempts)

        def io_filter(node: int, scratch: Path) -> IOFilter:
            filt = IOFilter(scratch, node=node, tracer=tracer, retry=retry)
            filt.begin(run)
            return filt

        layout = Layout(name)
        layout.add_filter(
            "gsched", lambda: _GlobalSchedulerFilter(n, run, **gsched))
        for node in range(n):
            scratch = self.node_scratch(node)
            layout.add_filter(
                f"storage@{node}",
                lambda node=node: _StorageFilter(node, n, run, tracer))
            layout.add_filter(
                f"io@{node}",
                lambda node=node, scratch=scratch: io_filter(node, scratch))
            layout.add_filter(
                f"lsched@{node}",
                lambda node=node: _LocalSchedulerFilter(node, workers, run,
                                                        **lsched))
            layout.add_filter(
                f"worker@{node}",
                lambda node=node: _WorkerFilter(node, run, tracer),
                instances=workers)
            # Control plane
            layout.connect("gsched", f"out_{node}", f"lsched@{node}", "in",
                           capacity=1024)
            layout.connect(f"lsched@{node}", "to_gsched", "gsched", "in",
                           capacity=1024)
            layout.connect(f"lsched@{node}", "to_workers", f"worker@{node}", "in",
                           capacity=64)
            layout.connect(f"worker@{node}", "to_lsched", f"lsched@{node}",
                           "from_workers", capacity=64)
            # Storage plane
            layout.connect(f"worker@{node}", "to_storage", f"storage@{node}",
                           "req", capacity=256)
            layout.connect(f"lsched@{node}", "to_storage", f"storage@{node}",
                           "req", capacity=256)
            layout.connect(f"storage@{node}", "rep_workers", f"worker@{node}",
                           "from_storage", capacity=256)
            layout.connect(f"storage@{node}", "rep_lsched", f"lsched@{node}",
                           "from_storage", capacity=256)
            layout.connect(f"storage@{node}", "io_cmd", f"io@{node}", "in",
                           capacity=256)
            layout.connect(f"io@{node}", "out", f"storage@{node}", "io_done",
                           capacity=256)
        # Peer-to-peer storage links ("complete peer-to-peer connections").
        for i in range(n):
            for j in range(n):
                if i != j:
                    layout.connect(f"storage@{i}", f"peer_out_{j}",
                                   f"storage@{j}", "peer_in", capacity=256)
        return layout

    # -- result access ----------------------------------------------------------------

    def persist(self, name: str) -> int:
        """Write a completed array to its home node's scratch; returns
        that node.  Later programs may then declare the array
        ``initial_from_scratch`` there, and while the session lasts they
        find it still resident instead of reading the file back."""
        data = self.fetch(name)
        desc, home = self._descs[name], self._homes[name]
        scratch = self.node_scratch(home)
        write_array(scratch, desc, data)
        self.stores[home].mark_on_disk(name)
        self._session.adopt(
            name, FileBacking(desc, home, backing_identity(scratch, name)))
        return home

    def fetch(self, name: str) -> np.ndarray:
        """Gather a (completed) array after a run."""
        desc = self._descs.get(name)
        if desc is None:
            raise DoocError(f"unknown array {name!r}")
        home = self._homes[name]
        store = self.stores[home]
        scratch = self.node_scratch(home)
        parts = []
        for b in desc.blocks():
            data = store.peek_block(name, b)
            if data is None:
                if not store.block_on_disk(name, b):
                    raise DoocError(
                        f"block {b} of {name!r} was never produced"
                    )
                data = read_block(scratch, desc, b)
            parts.append(np.asarray(data))
        return np.concatenate(parts)
