"""The central trace-event vocabulary.

Every event name emitted through :class:`repro.obs.Tracer` must come from
this table — it is the single source of truth for the schema documented in
:mod:`repro.obs.tracer` and rendered by the Chrome exporter.  Keeping the
vocabulary in one place means dashboards, trace assertions and the stall
watchdog never chase a misspelled or undocumented event name.

The ``DOOC004`` lint rule (:mod:`repro.analysis.rules`) enforces this
mechanically: a string literal passed as the event name to
``Tracer.instant`` / ``complete`` / ``counter`` / ``span`` must be a key of
:data:`EVENTS`.  Dynamically computed names (e.g. the fault injector's
per-kind events) cannot be checked lexically and are exempt; register the
possible values here anyway so readers can find them.

To add a new event: add it to :data:`EVENTS` with its category and a
one-line meaning, then use the literal at the emit site.  The lint fails
until both halves agree.
"""

from __future__ import annotations

__all__ = ["EVENTS", "EVENT_NAMES", "is_known_event"]

#: name -> (category, phase, meaning).  Phases follow the Chrome trace
#: convention: "X" complete span, "i" instant, "C" counter.
EVENTS: dict[str, tuple[str, str, str]] = {
    # -- task lifecycle -----------------------------------------------------
    "task": ("task", "X", "one task body executing on a worker"),
    "dispatch": ("task", "i", "scheduler handed a task to a worker"),
    "grant_wait": ("task", "X", "worker waited for storage grants"),
    "task_failed": ("task", "i", "a task attempt failed on a worker"),
    "task_retry": ("task", "i", "scheduler re-queued a failed task"),
    "task_escalate": ("task", "i", "local retries exhausted; sent to gsched"),
    "task_reroute": ("task", "i", "gsched moved a task to another node"),
    # -- storage ------------------------------------------------------------
    "load": ("storage", "X", "block load: io_cmd write -> io_done"),
    "spill": ("storage", "X", "block spill: io_cmd write -> io_done"),
    "drop": ("storage", "i", "block dropped from memory"),
    "fetch_remote": ("storage", "X", "remote block fetch round trip"),
    "alloc_queue": ("storage", "C", "allocation queue depth"),
    "io_failed": ("storage", "i", "storage received an io_error reply"),
    "deny": ("storage", "i", "a blocked ticket was failed fast"),
    "fetch_retry": ("storage", "i", "unanswered peer fetch retransmitted"),
    "lookup_retry": ("storage", "i", "unanswered owner lookup retransmitted"),
    "lookup_restart": ("storage", "i", "owner walk exhausted and restarted"),
    "rehome": ("storage", "i", "an array's home moved (task reroute)"),
    "request_rejected": ("storage", "i", "read/write request refused"),
    # -- local scheduler ----------------------------------------------------
    "prefetch": ("sched", "i", "prefetch request issued"),
    "prefetch_dropped": ("sched", "i", "storage dropped a prefetch"),
    "forced_dispatch": ("sched", "i", "nothing resident and nothing in "
                                      "flight: task sent to demand-load"),
    # -- I/O filters --------------------------------------------------------
    "read": ("io", "X", "raw disk read inside an I/O filter"),
    "write": ("io", "X", "raw disk write inside an I/O filter"),
    "unlink": ("io", "X", "scratch file removal inside an I/O filter"),
    "io_retry": ("io", "i", "I/O attempt failed; backing off to retry"),
    "io_error": ("io", "i", "I/O retries exhausted; error reply sent"),
    # -- fault injection (names are dynamic: one per FaultPlan kind) --------
    "io_transient": ("fault", "i", "injected transient I/O error"),
    "io_permanent": ("fault", "i", "injected permanent I/O error"),
    "peer_drop": ("fault", "i", "injected dropped peer message"),
    "peer_delay": ("fault", "i", "injected delayed peer message"),
    "task_crash": ("fault", "i", "injected worker task crash"),
    "node_kill": ("fault", "i", "injected permanent node death"),
    # -- membership & recovery ----------------------------------------------
    "heartbeat": ("recovery", "i", "local-scheduler liveness beacon to gsched"),
    "node_suspect": ("recovery", "i", "missed heartbeats; node quarantined"),
    "node_alive": ("recovery", "i", "a suspect node heartbeated again"),
    "node_dead": ("recovery", "i", "suspect escalated to dead; recovery runs"),
    "node_evict": ("recovery", "i", "storage applied a dead-node eviction"),
    "reconstruct": ("recovery", "i", "a lost array re-homed to a survivor"),
    "lineage_replay": ("recovery", "i", "completed producer task re-dispatched"),
    "task_reassign": ("recovery", "i", "incomplete task moved off a dead node"),
    "checkpoint_write": ("recovery", "i", "solver-state checkpoint written"),
    "checkpoint_restore": ("recovery", "i", "solver state restored from disk"),
    "checkpoint_reject": ("recovery", "i", "corrupt checkpoint skipped"),
    # -- incremental iteration (delta/workset) ------------------------------
    "block_converged": ("converge", "i", "a partition's iterate went "
                                         "stationary; it left the workset"),
    "block_reentered": ("converge", "i", "a frozen partition's iterate moved "
                                         "again; it rejoined the workset"),
    "workset_size": ("converge", "C", "partitions still active in the sweep"),
    "sweep_tasks": ("converge", "C", "engine tasks scheduled for one sweep"),
    "frontier_size": ("converge", "C", "vector blocks touched by the active "
                                       "frontier"),
    "fixpoint": ("converge", "i", "every partition stationary; iteration "
                                  "terminated early"),
    "async_round": ("converge", "i", "async-Jacobi round relaxed partitions "
                                     "against bounded-stale views"),
    # -- run-level ----------------------------------------------------------
    "phase": ("run", "i", "run-level milestone (start/end, sim phases)"),
    "run_cancel": ("run", "i", "cancel token seen; drain broadcast to nodes"),
    "cancel_drain": ("run", "i", "a node finished its in-flight work after "
                                 "a cancel and acknowledged the drain"),
    # -- job server (repro.server) -------------------------------------------
    "job_submit": ("job", "i", "server accepted a job submission"),
    "job_reject": ("job", "i", "admission control rejected a job"),
    "job_start": ("job", "i", "a queued job began executing"),
    "job_done": ("job", "i", "a job finished and published its result"),
    "job_failed": ("job", "i", "a job exhausted retries and failed"),
    "job_retry": ("job", "i", "a job died to a transient fault; backing off"),
    "job_cancelled": ("job", "i", "a job was cancelled by client or drain"),
    "job_deadline": ("job", "i", "a job overran its deadline; run cancelled"),
    "job_preempt": ("job", "i", "a running job was suspended to checkpoint"),
    "job_resume": ("job", "i", "a preempted job resumed from checkpoint"),
    "queue_depth": ("job", "C", "jobs waiting in the admission queue"),
}

#: the bare name set (what the lint rule checks membership against)
EVENT_NAMES: frozenset[str] = frozenset(EVENTS)


def is_known_event(name: str) -> bool:
    """Is ``name`` part of the stable trace vocabulary?"""
    return name in EVENT_NAMES
