"""The job manager: queue, workers, deadlines, preemption, drain.

One lock, one condition variable, zero polling sleeps: worker threads
and the deadline supervisor block on :class:`threading.Condition` waits
whose timeouts are derived from the nearest actionable instant (a
deadline or a retry-backoff expiry), and every state change notifies.
The DOOC013 lint rule enforces the no-``time.sleep`` discipline for
this package mechanically — a sleeping supervisor is a supervisor that
ignores SIGTERM for the rest of its nap.

Scheduling state machine (see docs/SERVER.md for the full diagram)::

    submit -> rejected                    (admission: budget/queue/quota)
           -> queued -> running -> done
                            |-> failed            (retries exhausted)
                            |-> cancelled         (client asked)
                            |-> deadline-exceeded (supervisor cancelled)
                            |-> preempted -> queued (resume=True)
                            |-> preempted [final]   (SIGTERM drain)
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.cancel import CancelToken
from repro.core.errors import DoocError, RunCancelled
from repro.faults import FaultPlan, RetryPolicy, job_fault_plan
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.server.admission import TenantQuota, admit, fair_share_order
from repro.server.jobs import JobRecord, JobSpec, JobState
from repro.server.runner import execute_attempt, newest_checkpoint

__all__ = ["ServerConfig", "JobManager"]


def _default_retry() -> RetryPolicy:
    return RetryPolicy(attempts=3, backoff_s=0.05, multiplier=2.0,
                       max_backoff_s=1.0, jitter=0.0)


@dataclass
class ServerConfig:
    """Everything a :class:`JobManager` needs to run."""

    #: engine nodes per job run
    n_nodes: int = 1
    #: cluster-wide admission budget (sum of running working sets)
    memory_budget: int = 64 * 2**20
    #: bounded queue: submissions beyond this are load-shed (rejected)
    max_queue: int = 32
    #: concurrently running jobs (runner threads)
    max_concurrent: int = 2
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    quotas: dict[str, TenantQuota] = field(default_factory=dict)
    retry: RetryPolicy = field(default_factory=_default_retry)
    #: base fault plan; each (job, attempt) derives its own seed from it
    faults: FaultPlan | None = None
    #: extra DOoCEngine kwargs for every job run (memory budget per
    #: node, watchdog, worker sizing...)
    engine: dict = field(default_factory=dict)
    #: may a higher-weight job suspend a lower-weight running one?
    preemption: bool = True
    #: job checkpoint/working directory (None = pid-stamped temp dir)
    work_dir: str | Path | None = None


class JobManager:
    """Multi-tenant job scheduling over a pool of engine runs."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[str, JobRecord] = {}
        self._queue: list[JobRecord] = []
        self._running: dict[str, JobRecord] = {}
        self._mem_used = 0
        self._draining = False
        self._stopped = False
        self._seq = itertools.count(1)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(enabled=True, capacity=1 << 14)
        self._ephemeral_work_dir = self.config.work_dir is None
        if self.config.work_dir is None:
            # pid-stamped like engine scratch, so `repro sweep` can
            # reclaim it if this server is SIGKILLed.
            self.work_dir = Path(tempfile.mkdtemp(
                prefix=f"dooc-{os.getpid()}-jobs-"))
        else:
            self.work_dir = Path(self.config.work_dir)
            self.work_dir.mkdir(parents=True, exist_ok=True)
        self._workers = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name=f"dooc-job-worker-{i}")
            for i in range(self.config.max_concurrent)
        ]
        self._supervisor = threading.Thread(
            target=self._supervise, daemon=True, name="dooc-job-supervisor")

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "JobManager":
        for t in self._workers:
            t.start()
        self._supervisor.start()
        return self

    def drain(self, timeout: float = 60.0) -> dict:
        """Graceful shutdown: cancel running jobs to their checkpoints,
        refuse new work, and write a drain manifest.

        Every running job is cancelled with reason ``drain``; its newest
        chunk-boundary checkpoint is already on disk (the runner
        checkpoints as it goes), so the manifest records a *resumable*
        job, not a lost one.  Queued jobs are listed untouched.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            self._draining = True
            for rec in self._running.values():
                if rec.cancel is not None:
                    rec.cancel.cancel("drain")
            self._cond.notify_all()
            while self._running and time.monotonic() < deadline:
                self._cond.wait(timeout=max(deadline - time.monotonic(),
                                            0.01))
            manifest = {
                "drained_at": time.time(),
                "jobs": {rid: rec.to_json(verbose=True)
                         for rid, rec in self._jobs.items()},
                "queued": [r.id for r in self._queue],
                "preempted": [rid for rid, rec in self._jobs.items()
                              if rec.state == JobState.PREEMPTED],
                "undrained": sorted(self._running),
            }
            self._stopped = True
            self._cond.notify_all()
        for t in self._workers:
            t.join(timeout=5.0)
        self._supervisor.join(timeout=5.0)
        path = self.work_dir / "drain.json"
        path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        if self._ephemeral_work_dir and not manifest["preempted"] \
                and not manifest["queued"] and not manifest["undrained"]:
            # Auto-created work dir with nothing resumable in it: the
            # drain leaves no scratch behind.  (With checkpointed jobs
            # it stays — the manifest + checkpoints ARE the handoff.)
            shutil.rmtree(self.work_dir, ignore_errors=True)
        return manifest

    # -- client surface ----------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit (or reject) a job; returns its record either way."""
        with self._cond:
            quota = self._quota_of(spec.tenant)
            tenant_queued = sum(1 for r in self._queue
                                if r.spec.tenant == spec.tenant)
            decision = admit(
                spec, budget=self.config.memory_budget,
                queue_len=len(self._queue), max_queue=self.config.max_queue,
                tenant_queued=tenant_queued, quota=quota,
                draining=self._draining or self._stopped)
            rec = JobRecord(id=f"j{next(self._seq):04d}", spec=spec)
            self._jobs[rec.id] = rec
            if not decision.accepted:
                rec.state = JobState.REJECTED
                rec.outcome = {"reason": decision.reason}
                rec.finished_at = time.time()
                rec.done_event.set()
                rec.log("job_reject", reason=decision.reason)
                self.metrics.inc("jobs_rejected", label=spec.tenant)
                self.tracer.instant(-1, "server", "job", "job_reject",
                                    job=rec.id, reason=decision.reason)
                return rec
            if spec.deadline_s is not None:
                rec.deadline_at = time.monotonic() + spec.deadline_s
            rec.log("job_submit", tenant=spec.tenant, kind=spec.kind)
            self.metrics.inc("jobs_submitted", label=spec.tenant)
            self.tracer.instant(-1, "server", "job", "job_submit",
                                job=rec.id, tenant=spec.tenant,
                                kind=spec.kind)
            self._queue.append(rec)
            self._note_queue_depth()
            self._maybe_preempt_locked()
            self._cond.notify_all()
            return rec

    def cancel(self, job_id: str, reason: str = "client cancel") -> bool:
        """Cancel a queued or running job; False if unknown/terminal."""
        with self._cond:
            rec = self._jobs.get(job_id)
            if rec is None or rec.terminal:
                return False
            if rec.state == JobState.RUNNING and rec.cancel is not None:
                rec.cancel.cancel(reason)  # the worker finalizes it
            else:
                if rec in self._queue:
                    self._queue.remove(rec)
                    self._note_queue_depth()
                self._finalize_locked(rec, JobState.CANCELLED,
                                      {"reason": reason})
            self._cond.notify_all()
            return True

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> list[JobRecord]:
        with self._lock:
            return list(self._jobs.values())

    def stats(self) -> dict:
        with self._lock:
            return {
                "queue_depth": len(self._queue),
                "running": len(self._running),
                "memory_used": self._mem_used,
                "memory_budget": self.config.memory_budget,
                "draining": self._draining,
                "metrics": self.metrics.as_dict(),
            }

    # -- internals (all *_locked helpers run under self._lock) -------------------

    def _note_queue_depth(self) -> None:
        depth = len(self._queue)
        self.metrics.observe_max("queue_depth", float(depth))
        self.tracer.counter(-1, "server", "job", "queue_depth",
                            value=float(depth))

    def _quota_of(self, tenant: str) -> TenantQuota:
        return self.config.quotas.get(tenant, self.config.default_quota)

    def _fair_order_locked(self, now: float) -> list[JobRecord]:
        return fair_share_order(self._queue, list(self._running.values()),
                                self.config.quotas,
                                self.config.default_quota, now)

    def _tenant_at_cap_locked(self, tenant: str) -> bool:
        """The tenant runs as many jobs as its quota lets it."""
        running = sum(1 for r in self._running.values()
                      if r.spec.tenant == tenant)
        return running >= self._quota_of(tenant).max_running

    def _startable_locked(self, rec: JobRecord, now: float) -> bool:
        if rec.not_before > now or self._tenant_at_cap_locked(rec.spec.tenant):
            return False
        return self._mem_used + rec.spec.working_set <= \
            self.config.memory_budget

    def _pick_locked(self, now: float) -> JobRecord | None:
        if self._draining or self._stopped:
            return None
        for rec in self._fair_order_locked(now):
            if self._startable_locked(rec, now):
                self._queue.remove(rec)
                self._note_queue_depth()
                return rec
        return None

    def _maybe_preempt_locked(self) -> None:
        """Suspend lower-weight running jobs for a starved heavier one.

        Triggered on submit and on finish: if the fair-share head of the
        queue is blocked *only* by memory, and strictly lighter running
        victims exist whose release would let it fit, cancel them with
        reason ``preempted`` — they checkpoint, requeue with
        ``resume=True``, and later continue bit-identically.
        """
        if not self.config.preemption or self._draining:
            return
        now = time.monotonic()
        head = None
        for rec in self._fair_order_locked(now):
            if rec.not_before > now or self._tenant_at_cap_locked(
                    rec.spec.tenant):
                continue
            head = rec
            break
        if head is None:
            return
        need = self._mem_used + head.spec.working_set \
            - self.config.memory_budget
        if need <= 0:
            return  # fits already; a worker will pick it up
        weight = self._quota_of(head.spec.tenant).weight
        victims = sorted(
            (r for r in self._running.values()
             if self._quota_of(r.spec.tenant).weight < weight
             and r.cancel is not None and not r.cancel.cancelled),
            key=lambda r: (self._quota_of(r.spec.tenant).weight,
                           -r.submitted_at))
        freeable, chosen = 0, []
        for victim in victims:
            chosen.append(victim)
            freeable += victim.spec.working_set
            if freeable >= need:
                break
        if freeable < need:
            return  # preempting everyone lighter still wouldn't fit
        for victim in chosen:
            victim.preempted_by = head.id
            self.metrics.inc("jobs_preempted", label=victim.spec.tenant)
            self.tracer.instant(-1, "server", "job", "job_preempt",
                                job=victim.id, by=head.id)
            victim.cancel.cancel("preempted")

    def _finalize_locked(self, rec: JobRecord, state: str,
                         outcome: dict) -> None:
        rec.state = state
        rec.outcome = outcome
        rec.finished_at = time.time()
        rec.done_event.set()
        event = {
            JobState.DONE: "job_done",
            JobState.FAILED: "job_failed",
            JobState.CANCELLED: "job_cancelled",
            JobState.DEADLINE_EXCEEDED: "job_deadline",
        }[state]
        rec.log(event, **{k: v for k, v in outcome.items()
                          if isinstance(v, (str, int, float, bool))})
        self.metrics.inc(f"jobs_{state.replace('-', '_')}",
                         label=rec.spec.tenant)
        self.tracer.instant(-1, "server", "job", event, job=rec.id)

    # -- worker threads ----------------------------------------------------------

    def _wait_timeout_locked(self, now: float) -> float | None:
        """Seconds until the nearest retry-backoff expiry (workers need
        no deadline wakeups — the supervisor owns those)."""
        pending = [r.not_before for r in self._queue if r.not_before > now]
        if not pending:
            return None
        return max(min(pending) - now, 0.01)

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                rec = None
                while rec is None:
                    if self._stopped:
                        return
                    now = time.monotonic()
                    rec = self._pick_locked(now)
                    if rec is None:
                        self._cond.wait(self._wait_timeout_locked(now))
                rec.state = JobState.RUNNING
                rec.cancel = CancelToken()
                resume = rec.resume
                attempt = rec.attempts + 1
                self._running[rec.id] = rec
                self._mem_used += rec.spec.working_set
                event = "job_resume" if resume else "job_start"
                rec.log(event, attempt=attempt)
                self.tracer.instant(-1, "server", "job", event,
                                    job=rec.id, attempt=attempt)
                if resume:
                    self.metrics.inc("jobs_resumed", label=rec.spec.tenant)
                token = rec.cancel
            plan = None
            if self.config.faults is not None and self.config.faults.enabled:
                plan = job_fault_plan(self.config.faults, rec.id, attempt)
            error: BaseException | None = None
            result: dict | None = None
            try:
                result = execute_attempt(
                    rec.spec, job_dir=self.work_dir / rec.id, cancel=token,
                    resume=resume, n_nodes=self.config.n_nodes,
                    engine=self.config.engine, faults=plan)
            except BaseException as exc:  # noqa: BLE001 - finalized below
                error = exc
            with self._cond:
                self._running.pop(rec.id, None)
                self._mem_used -= rec.spec.working_set
                self._settle_locked(rec, attempt, result, error)
                self._maybe_preempt_locked()
                self._cond.notify_all()

    def _settle_locked(self, rec: JobRecord, attempt: int,
                       result: dict | None,
                       error: BaseException | None) -> None:
        """Map one attempt's outcome onto the job state machine."""
        if error is None:
            rec.attempts = attempt
            self._finalize_locked(rec, JobState.DONE, dict(result))
            return
        if isinstance(error, RunCancelled):
            reason = error.reason
            if reason == "deadline":
                self._finalize_locked(rec, JobState.DEADLINE_EXCEEDED,
                                      {"reason": "deadline exceeded",
                                       "deadline_s": rec.spec.deadline_s})
            elif reason in ("preempted", "drain"):
                rec.state = JobState.PREEMPTED
                rec.resume = True
                rec.preemptions += 1
                rec.cancel = None
                if reason == "preempted":
                    # What the next attempt resumes from: the attempt has
                    # ended, so no checkpoint can land after this.
                    rec.log("job_preempt", by=rec.preempted_by,
                            checkpoint=newest_checkpoint(
                                self.work_dir / rec.id))
                if reason == "preempted" and not self._draining:
                    # Requeue immediately; fair share decides when it
                    # gets back in (state flips to QUEUED so pickers
                    # and quota counts treat it uniformly).
                    rec.state = JobState.QUEUED
                    self._queue.append(rec)
                    self._note_queue_depth()
                # On drain the record *stays* PREEMPTED: its checkpoint
                # and the drain manifest are the continuation.
            else:
                self._finalize_locked(rec, JobState.CANCELLED,
                                      {"reason": reason})
            return
        rec.attempts = attempt
        if (isinstance(error, DoocError) and not self._draining
                and attempt < self.config.retry.attempts):
            delay = self.config.retry.delay(attempt)
            rec.state = JobState.QUEUED
            rec.not_before = time.monotonic() + delay
            rec.resume = True  # keep any checkpointed progress
            rec.cancel = None
            rec.log("job_retry", attempt=attempt, error=str(error),
                    backoff_s=delay)
            self.metrics.inc("job_retries", label=rec.spec.tenant)
            self.tracer.instant(-1, "server", "job", "job_retry",
                                job=rec.id, attempt=attempt)
            self._queue.append(rec)
            self._note_queue_depth()
            return
        self._finalize_locked(rec, JobState.FAILED, {
            "reason": str(error), "error_type": type(error).__name__,
            "attempts": attempt,
        })

    # -- deadline supervisor -----------------------------------------------------

    def _supervise(self) -> None:
        """Enforce deadlines with condition waits, never sleeps.

        Queued jobs past their deadline finalize directly (they never
        consumed a slot); running jobs get their token cancelled with
        reason ``deadline`` and their worker finalizes the structured
        ``deadline-exceeded`` outcome.
        """
        with self._cond:
            while not self._stopped:
                now = time.monotonic()
                nearest: float | None = None
                for rec in list(self._queue):
                    if rec.deadline_at is None:
                        continue
                    if now >= rec.deadline_at:
                        self._queue.remove(rec)
                        self._note_queue_depth()
                        self._finalize_locked(
                            rec, JobState.DEADLINE_EXCEEDED,
                            {"reason": "deadline exceeded before start",
                             "deadline_s": rec.spec.deadline_s})
                    else:
                        nearest = (rec.deadline_at if nearest is None
                                   else min(nearest, rec.deadline_at))
                for rec in self._running.values():
                    if rec.deadline_at is None:
                        continue
                    if now >= rec.deadline_at:
                        if rec.cancel is not None:
                            rec.cancel.cancel("deadline")
                    else:
                        nearest = (rec.deadline_at if nearest is None
                                   else min(nearest, rec.deadline_at))
                timeout = None if nearest is None \
                    else max(nearest - now, 0.01)
                self._cond.wait(timeout)
