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
* one or more **I/O filters** per node (:mod:`repro.core.iofilter`), so
  filesystem interaction is fully asynchronous;
* a **local scheduler filter** per node (:mod:`repro.core.local_scheduler`)
  driving ``LocalSchedulerCore`` (splitting, data-aware reordering,
  prefetching, the wait-or-force rule);
* replicated **worker filters** per node (:mod:`repro.core.worker`)
  executing task bodies on NumPy views granted by the storage layer;
* one **global scheduler filter** (:mod:`repro.core.global_scheduler`)
  walking the derived task DAG and dispatching ready tasks to the node
  chosen by the affinity heuristic.

What is left here is :class:`DOoCEngine` — the named steps of ``run()``,
the layout wiring the filters, the session, result access — and its
:class:`RunReport`.

Nodes are threads sharing one address space; "remote" transfers are
real messages through the peer protocol (the payload copy is genuine), so
every protocol path of the paper executes, just without a physical wire.
"""

from __future__ import annotations

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
from repro.core.iofilter import IOFilter, backing_identity, read_block, write_array
from repro.core.local_scheduler import _LocalSchedulerFilter
from repro.core.procplane import ProcessWorkerPool
from repro.core.program import Program
from repro.core.session import EngineSession, FileBacking
from repro.core.shm import SegmentLeakError, SegmentPool
from repro.core.storage import LocalStore
from repro.core.storage_filter import _StorageFilter
from repro.core.worker import _WorkerFilter
from repro.datacutter.errors import FilterError
from repro.datacutter.layout import DistributionPolicy, Layout
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
        io_filters_per_node: int = 1,
        memory_budget_per_node: int = 256 * 2**20,
        opcache_bytes: int | None = None,
        scratch_dir: str | Path | None = None,
        prefetch_depth: int = 2,
        rng_seed: int = 0,
        gc_arrays: bool = False,
        scheduler_reorder: bool = True,
        trace: bool | Tracer = False,
        watchdog_quiet_s: float | None = 10.0,
        faults: FaultPlan | None = None,
        io_retry: RetryPolicy | None = None,
        task_max_attempts: int = 3,
        task_max_reroutes: int | None = None,
        protocol_checkers: bool | None = None,
        membership: MembershipConfig | bool | None = None,
        node_recovery: bool = True,
        worker_plane: str = "thread",
        codec: str | None = None,
    ):
        if workers is None:
            # cpu_count-aware default: SpMV kernels release the GIL inside
            # scipy, so distinct ready tasks genuinely overlap; capped so a
            # many-core box doesn't drown a small run in idle threads.
            workers = default_worker_count()
        if n_nodes < 1 or workers < 1 or io_filters_per_node < 1:
            raise DoocError("n_nodes, workers and I/O filters must be >= 1")
        if task_max_attempts < 1:
            raise DoocError("task_max_attempts must be >= 1")
        self.n_nodes = n_nodes
        self.workers_per_node = workers
        self.io_filters_per_node = io_filters_per_node
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
        self.prefetch_depth = prefetch_depth
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
        #: on a declared death, reconstruct (True) or fail with a named
        #: NodeLostError (False)
        self.node_recovery = node_recovery
        #: run the protocol checkers (lock-order recorder, ticket-lifecycle
        #: auditor, pre-execution DAG validation)?  None defers to the
        #: ``DOOC_CHECKERS`` environment flag; production runs pay nothing.
        if protocol_checkers is None:
            from repro.analysis import checkers_enabled
            protocol_checkers = checkers_enabled()
        self.protocol_checkers = bool(protocol_checkers)
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
        self._run_seq = 0  # disambiguates segment names across runs

    def cleanup(self) -> None:
        """End the session and delete an engine-owned scratch directory
        now; the engine stays usable, its next run starting cold."""
        self._session.close()
        if self._proc_pool is not None:
            self._proc_pool.shutdown()
            self._proc_pool = None
        if self._segment_pool is not None:
            self._segment_pool.close()
            self._segment_pool = None
        if self._scratch_finalizer is not None:
            self._scratch_finalizer()

    def node_scratch(self, node: int) -> Path:
        path = self.scratch_root / f"node{node}"
        path.mkdir(parents=True, exist_ok=True)
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

    def _reseed_array(self, array: str, dead: int, new_home: int) -> None:
        """Recover a lost *initial* array by re-reading its backing file.

        In the paper's deployment input files live on a shared parallel
        filesystem that outlives any compute node; here the corpse's
        scratch directory plays that role (threads don't take disks with
        them), so re-seeding is a byte copy into the new home's scratch.
        """
        from repro.core.iofilter import copy_array_files
        copy_array_files(self.node_scratch(dead), self.node_scratch(new_home),
                         array)

    # -- run ---------------------------------------------------------------------

    def run(self, program: Program, *, timeout: float = 300.0,
            cancel: CancelToken | None = None) -> RunReport:
        """Submit ``program`` to this engine's stores and run it.

        The stores outlive the run (DESIGN.md, "Session lifetime"): the
        next run finds the arrays it declares again from unchanged
        scratch files still resident.  Leaving by any exception closes
        the session, so the run after a failure starts cold.
        """
        carried = self._session.take()
        auditor = self._validate(program)
        dag = program.build_dag()
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
        layout = self._build_layout(program, dag, assignment, directories,
                                    nbytes, injectors, recovery, cancel)
        recorder = None
        if self.protocol_checkers:
            from repro.analysis.lockorder import LockOrderRecorder
            recorder = LockOrderRecorder()
        runtime = ThreadedRuntime(layout, lock_recorder=recorder)
        watchdog = self._build_watchdog(runtime, recovery)
        self.tracer.instant(-1, "engine", "run", "phase",
                            phase="start", program=program.name)
        started = time.monotonic()
        leaked_leases = self._execute(runtime, watchdog, recovery, proc_pool,
                                      timeout)
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
            # Reusable as they stand.  Not on the process plane, whose
            # blocks lived in the segments this run just unlinked; not
            # after a death, which left a corpse's store and moved homes.
            self._session.commit(backing)
        return report

    def _validate(self, program: Program):
        """Under the protocol checkers, reject a malformed program by name
        before any thread starts; returns the run's ticket auditor."""
        if not self.protocol_checkers:
            return None
        from repro.analysis.dagcheck import validate_tasks
        from repro.analysis.tickets import TicketAuditor
        # TaskDAG would reject the same programs, but mid-construction and
        # with less precise messages (e.g. a cycle candidate set, not a path).
        validate_tasks(program.tasks, set(program.initial_data))
        return TicketAuditor()

    def _place(self, program: Program,
               dag: TaskDAG) -> tuple[dict[str, int], dict[str, int]]:
        """Fix the run's descriptors, array homes and task assignment."""
        # Stamp the engine's codec snapshot onto every descriptor that
        # doesn't pin one of its own: spills, loads, and checkpoints all
        # see the same codec for the whole run.  (Pre-seeded files keep
        # working regardless — readers probe the on-disk layout.)
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
        """Write the seeded initial arrays to their homes' scratch, and
        identify the files behind the ones declared from scratch."""
        backing: dict[str, FileBacking] = {}
        for name, data in program.initial_data.items():
            home = program.initial_home[name]
            scratch = self.node_scratch(home)
            if data is not None:
                write_array(scratch, self._descs[name], data)
                continue
            identity = backing_identity(scratch, name)
            if identity is None:
                raise DoocError(
                    f"initial array {name!r} declared from scratch but "
                    f"no backing file exists on node {home}"
                )
            backing[name] = FileBacking(self._descs[name], home, identity)
        return backing

    def _open_worker_plane(self) -> ProcessWorkerPool | None:
        """Process plane: per-run segment pool + worker-process fleet.

        Children are forked NOW, while this process is still
        single-threaded (the runtime's threads have not started).
        """
        self._segment_pool = self._proc_pool = None
        if self.worker_plane == "process":
            self._run_seq += 1
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
            descs=self._descs, nbytes=nbytes, reseed=self._reseed_array,
            metrics=MetricsRegistry(), lineage=lineage,
            node_recovery=self.node_recovery)

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
                 timeout: float) -> dict[str, int]:
        """Run the filter graph to completion, turning its failures into
        named errors; returns the segment leases the run leaked."""
        try:
            if watchdog is not None:
                watchdog.start()
            runtime.run(timeout=timeout)
        except FilterError as exc:
            # A declared node loss that could not be recovered (no
            # survivors, or node_recovery=False) surfaces by name rather
            # than as an opaque filter crash.
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
            if watchdog is not None:
                watchdog.stop()
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
            lsched = runtime.instances[f"lsched@{node}"][0].filter
            watchdog.watch_scheduler(node, lsched.debug_snapshot)
        if recovery is not None:
            watchdog.watch_membership(
                lambda: recovery.tracker.snapshot(time.monotonic()))
        return watchdog

    def _build_layout(self, program: Program, dag: TaskDAG,
                      assignment: dict[str, int],
                      directories: dict[int, DirectoryClient],
                      nbytes: dict[str, int],
                      injectors: dict[int, FaultInjector | None],
                      recovery: _RecoveryContext | None,
                      cancel: CancelToken | None) -> Layout:
        n = self.n_nodes
        heartbeat_s = (recovery.tracker.config.heartbeat_s
                       if recovery is not None else None)
        layout = Layout(program.name)
        layout.add_filter(
            "gsched", lambda: _GlobalSchedulerFilter(
                dag, assignment, n, gc_arrays=self.gc_arrays,
                homes=self._homes, max_reroutes=self.task_max_reroutes,
                tracer=self.tracer, recovery=recovery,
                cancel=cancel))
        for node in range(n):
            store = self.stores[node]
            directory = directories[node]
            scratch = self.node_scratch(node)
            injector = injectors[node]
            layout.add_filter(
                f"storage@{node}",
                lambda node=node, store=store, directory=directory,
                injector=injector: _StorageFilter(
                    node, n, store, directory, self._descs, self.tracer,
                    injector=injector),
            )
            layout.add_filter(
                f"io@{node}",
                lambda node=node, scratch=scratch, store=store,
                injector=injector: IOFilter(
                    scratch, node=node, tracer=self.tracer,
                    retry=self.io_retry, injector=injector,
                    metrics=store.metrics,
                    segment_pool=self._segment_pool),
                instances=self.io_filters_per_node,
                replicable=True,
            )
            layout.add_filter(
                f"lsched@{node}",
                lambda node=node, store=store,
                injector=injector: _LocalSchedulerFilter(
                    node, self.workers_per_node, nbytes,
                    prefetch_depth=self.prefetch_depth,
                    reorder=self.scheduler_reorder,
                    tracer=self.tracer,
                    metrics=store.metrics,
                    max_attempts=self.task_max_attempts,
                    heartbeat_s=heartbeat_s,
                    injector=injector),
            )
            layout.add_filter(
                f"worker@{node}",
                lambda node=node, store=store,
                injector=injector: _WorkerFilter(
                    node, self._descs, self.tracer, store.metrics,
                    injector=injector, opcache=store.opcache,
                    plane=self._proc_pool,
                    segment_pool=self._segment_pool),
                instances=self.workers_per_node,
                replicable=True,
            )
            # Control plane
            layout.connect("gsched", f"out_{node}", f"lsched@{node}", "in",
                           capacity=1024)
            layout.connect(f"lsched@{node}", "to_gsched", "gsched", "in",
                           capacity=1024)
            layout.connect(f"lsched@{node}", "to_workers", f"worker@{node}", "in",
                           policy=DistributionPolicy.DIRECTED, capacity=64)
            layout.connect(f"worker@{node}", "to_lsched", f"lsched@{node}",
                           "from_workers", capacity=64)
            # Storage plane
            layout.connect(f"worker@{node}", "to_storage", f"storage@{node}",
                           "req", capacity=256)
            layout.connect(f"lsched@{node}", "to_storage", f"storage@{node}",
                           "req", capacity=256)
            layout.connect(f"storage@{node}", "rep_workers", f"worker@{node}",
                           "from_storage", policy=DistributionPolicy.DIRECTED,
                           capacity=256)
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
