"""The multi-tenant job service: admission, quotas, deadlines,
preemption, retry, drain, and the stale-resource sweeper.

Unit tests drive the pure decision logic (admission, fair share) with
plain data; integration tests run a real JobManager over real engine
runs; the soak test at the bottom pushes 16+ concurrent clients through
every lifecycle path at once and asserts that *every* job converges on a
structured terminal state — never a hang, never a generic StallError.
"""

import math
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import StallError
from repro.faults import FaultPlan, RetryPolicy, job_fault_plan
from repro.recovery.checkpoint import CheckpointManager
from repro.server import (
    JobManager,
    JobSpec,
    JobState,
    ServerConfig,
    TenantQuota,
    estimate_working_set,
)
from repro.server.admission import AdmissionDecision, admit, fair_share_order
from repro.server.jobs import JOB_KINDS, JobRecord
from repro.server.sweep import pid_alive, sweep


def _shm_litter():
    return [f for f in os.listdir("/dev/shm") if f.startswith("dooc-")]


def _spec(**kw):
    kw.setdefault("tenant", "t")
    kw.setdefault("kind", "cg")
    kw.setdefault("n", 64)
    kw.setdefault("parts", 2)
    kw.setdefault("iterations", 8)
    return JobSpec(**kw)


SMALL_ENGINE = {"memory_budget_per_node": 32 * 2**20}


def _manager(**kw):
    kw.setdefault("memory_budget", 8 * 2**20)
    kw.setdefault("max_concurrent", 2)
    kw.setdefault("engine", SMALL_ENGINE)
    return JobManager(ServerConfig(**kw)).start()


class TestJobSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            _spec(kind="laplace")
        with pytest.raises(ValueError, match="tenant"):
            _spec(tenant="")
        with pytest.raises(ValueError, match="deadline_s"):
            _spec(deadline_s=0.0)
        with pytest.raises(ValueError, match="parts"):
            _spec(parts=40)

    @pytest.mark.parametrize("field, value", [
        ("nnz_per_row", math.nan), ("nnz_per_row", math.inf),
        ("nnz_per_row", -math.inf), ("nnz_per_row", 0.0),
        ("nnz_per_row", 33.0),  # n=16 columns hold at most 2n = 32
        ("deadline_s", math.nan), ("deadline_s", math.inf),
        ("deadline_s", -1.0), ("n", math.nan), ("iterations", math.nan),
        ("working_set_bytes", math.nan), ("checkpoint_every", math.nan)])
    def test_rejects_what_cannot_run_by_field_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            _spec(**{"n": 16, field: value})

    def test_densest_row_weight_is_accepted_and_runs(self):
        mgr = _manager()
        try:
            recs = [mgr.submit(_spec(kind=k, n=16, nnz_per_row=32.0,
                                     iterations=4)) for k in JOB_KINDS]
            for rec in recs:
                assert rec.done_event.wait(120), rec.state
                assert rec.state == JobState.DONE, (rec.state, rec.outcome)
        finally:
            mgr.drain(timeout=10)

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="working_set_byes"):
            JobSpec.from_json({"tenant": "t", "kind": "cg",
                               "working_set_byes": 1})

    def test_roundtrip(self):
        spec = _spec(deadline_s=2.5)
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_working_set_estimator(self):
        small = estimate_working_set(_spec(n=64))
        big = estimate_working_set(_spec(n=4096))
        assert 0 < small < big
        lanczos = estimate_working_set(_spec(kind="lanczos", n=4096,
                                             iterations=64))
        assert lanczos > big  # the Krylov basis is accounted for
        declared = _spec(working_set_bytes=123)
        assert declared.working_set == 123


class TestAdmission:
    QUOTA = TenantQuota(max_running=2, max_queued=3, weight=1.0)

    def _admit(self, spec, **kw):
        kw.setdefault("budget", 2**20)
        kw.setdefault("queue_len", 0)
        kw.setdefault("max_queue", 10)
        kw.setdefault("tenant_queued", 0)
        kw.setdefault("quota", self.QUOTA)
        return admit(spec, **kw)

    def test_oversized_job_named_impossible(self):
        d = self._admit(_spec(working_set_bytes=2**21))
        assert not d.accepted
        assert "can never be scheduled" in d.reason

    def test_queue_saturation_sheds_load(self):
        d = self._admit(_spec(working_set_bytes=1), queue_len=10)
        assert not d.accepted and "load shedding" in d.reason

    def test_tenant_quota(self):
        d = self._admit(_spec(working_set_bytes=1), tenant_queued=3)
        assert not d.accepted and "quota exhausted" in d.reason

    def test_draining_refuses(self):
        d = self._admit(_spec(working_set_bytes=1), draining=True)
        assert not d.accepted and "draining" in d.reason

    def test_accepts_when_room(self):
        assert self._admit(_spec(working_set_bytes=1)).accepted

    def test_decision_constructors(self):
        assert AdmissionDecision.ok().accepted
        assert AdmissionDecision.rejected("x").reason == "x"


class TestFairShare:
    def _rec(self, rid, tenant, submitted, not_before=0.0):
        r = JobRecord(id=rid, spec=_spec(tenant=tenant))
        r.submitted_at = submitted
        r.not_before = not_before
        return r

    def test_weight_beats_arrival_order(self):
        quotas = {"vip": TenantQuota(weight=4.0),
                  "bulk": TenantQuota(weight=1.0)}
        queued = [self._rec("a", "bulk", 1.0), self._rec("b", "vip", 2.0)]
        order = fair_share_order(queued, [], quotas, TenantQuota(), now=10.0)
        assert [r.id for r in order] == ["b", "a"]

    def test_running_share_decays_priority(self):
        quotas = {"vip": TenantQuota(weight=2.0),
                  "bulk": TenantQuota(weight=1.9)}
        running = self._rec("r", "vip", 0.0)
        running.state = JobState.RUNNING
        queued = [self._rec("a", "vip", 1.0), self._rec("b", "bulk", 2.0)]
        order = fair_share_order(queued, [running], quotas, TenantQuota(),
                                 now=10.0)
        # vip's 2.0/(1+1)=1.0 now loses to bulk's idle 1.9/1
        assert [r.id for r in order] == ["b", "a"]

    def test_backoff_sorts_last(self):
        queued = [self._rec("a", "t", 1.0, not_before=99.0),
                  self._rec("b", "t", 2.0)]
        order = fair_share_order(queued, [], {}, TenantQuota(), now=10.0)
        assert [r.id for r in order] == ["b", "a"]


class TestJobFaultPlan:
    def test_derivation_is_deterministic_and_distinct(self):
        base = FaultPlan(seed=7, io_transient=0.5)
        a1 = job_fault_plan(base, "j1", 1)
        assert a1 == job_fault_plan(base, "j1", 1)
        assert a1.seed != job_fault_plan(base, "j1", 2).seed
        assert a1.seed != job_fault_plan(base, "j2", 1).seed
        assert a1.io_transient == 0.5  # probabilities carried over
        with pytest.raises(ValueError):
            job_fault_plan(base, "j1", 0)


class TestJobManager:
    def test_happy_path_all_kinds(self):
        mgr = _manager()
        try:
            recs = [mgr.submit(_spec(kind=k, iterations=6))
                    for k in ("spmv", "jacobi", "cg", "lanczos")]
            for rec in recs:
                assert rec.done_event.wait(120), rec.state
                assert rec.state == JobState.DONE, (rec.state, rec.outcome)
                assert rec.outcome["digest"]
                events = [e["event"] for e in rec.events]
                assert events[0] == "job_submit"
                assert events[-1] == "job_done"
        finally:
            mgr.drain(timeout=10)
        assert _shm_litter() == []

    def test_rejection_is_structured(self):
        mgr = _manager()
        try:
            rec = mgr.submit(_spec(working_set_bytes=10**12))
            assert rec.state == JobState.REJECTED
            assert rec.terminal and rec.done_event.is_set()
            assert "can never be scheduled" in rec.outcome["reason"]
            assert mgr.metrics.get("jobs_rejected") == 1
        finally:
            mgr.drain(timeout=5)

    def test_deadline_exceeded_is_structured(self):
        mgr = _manager()
        try:
            rec = mgr.submit(_spec(kind="spmv", n=96, iterations=5000,
                                   checkpoint_every=10, deadline_s=0.8))
            assert rec.done_event.wait(60)
            assert rec.state == JobState.DEADLINE_EXCEEDED, rec.outcome
            assert rec.outcome["reason"] == "deadline exceeded"
            # It was cut short on a finite iterate, not on inf/NaN.
            ckpt = CheckpointManager(
                mgr.work_dir / rec.id / "ckpt").load_latest()
            assert ckpt is not None
            assert all(np.isfinite(a).all() for a in ckpt.arrays.values())
        finally:
            mgr.drain(timeout=10)

    def test_queued_job_past_deadline_never_starts(self):
        # One slot, a long runner in it, and a queued job whose deadline
        # expires while it waits: the supervisor must finalize it.
        mgr = _manager(max_concurrent=1)
        try:
            hog = mgr.submit(_spec(kind="spmv", n=96, iterations=600,
                                   checkpoint_every=2))
            rec = mgr.submit(_spec(deadline_s=0.3))
            assert rec.done_event.wait(30)
            assert rec.state == JobState.DEADLINE_EXCEEDED
            assert "before start" in rec.outcome["reason"]
            mgr.cancel(hog.id)
        finally:
            mgr.drain(timeout=10)

    def test_client_cancel_queued_and_running(self):
        mgr = _manager(max_concurrent=1)
        try:
            running = mgr.submit(_spec(kind="spmv", n=96, iterations=600,
                                       checkpoint_every=2))
            queued = mgr.submit(_spec())
            assert mgr.cancel(queued.id)
            assert queued.state == JobState.CANCELLED
            t0 = time.monotonic()
            while running.state != JobState.RUNNING \
                    and time.monotonic() - t0 < 20:
                time.sleep(0.02)
            assert mgr.cancel(running.id)
            assert running.done_event.wait(30)
            assert running.state == JobState.CANCELLED
            assert not mgr.cancel(running.id)  # already terminal
            assert not mgr.cancel("ghost")
        finally:
            mgr.drain(timeout=10)

    def test_retry_with_backoff_then_done(self):
        # io_transient=1.0 guarantees the first attempts die; the derived
        # per-attempt seed re-draws, so with a fresh plan per attempt the
        # job eventually... never succeeds at p=1.0 — instead use a plan
        # that the *job-level* retry must absorb: kill node 0 mid-run.
        mgr = _manager(
            faults=FaultPlan(seed=11, node_kill=((0, 3),)),
            retry=RetryPolicy(attempts=3, backoff_s=0.05, multiplier=2.0,
                              max_backoff_s=0.2, jitter=0.0))
        try:
            rec = mgr.submit(_spec(kind="spmv", n=96, iterations=40,
                                   checkpoint_every=5))
            assert rec.done_event.wait(120)
            # Single-node runs cannot survive node 0 dying, so every
            # attempt fails the same way: structured FAILED, attempts
            # exhausted, with the retry trail in the event log.
            assert rec.state == JobState.FAILED, (rec.state, rec.outcome)
            assert rec.attempts == 3
            retries = [e for e in rec.events if e["event"] == "job_retry"]
            assert len(retries) == 2
            assert retries[0]["backoff_s"] == pytest.approx(0.05)
            assert retries[1]["backoff_s"] == pytest.approx(0.10)
        finally:
            mgr.drain(timeout=10)
        assert _shm_litter() == []

    def test_preemption_resumes_bit_identically(self):
        big = 3 * 2**20
        mgr = _manager(
            memory_budget=8 * 2**20,
            quotas={"vip": TenantQuota(max_running=2, weight=4.0),
                    "bulk": TenantQuota(max_running=2, weight=1.0)})
        try:
            victims = [
                mgr.submit(_spec(tenant="bulk", kind="spmv", n=96,
                                 iterations=300, checkpoint_every=2,
                                 working_set_bytes=big))
                for _ in range(2)
            ]
            t0 = time.monotonic()
            while mgr.stats()["running"] < 2 and time.monotonic() - t0 < 30:
                time.sleep(0.02)
            time.sleep(1.0)  # let the victims pass a checkpoint boundary
            vip = mgr.submit(_spec(tenant="vip", working_set_bytes=big))
            assert vip.done_event.wait(90)
            assert vip.state == JobState.DONE, (vip.state, vip.outcome)
            preempted = [r for r in victims if r.preemptions > 0]
            assert preempted, "no victim was preempted"
            for rec in victims:
                assert rec.done_event.wait(180)
                assert rec.state == JobState.DONE, (rec.state, rec.outcome)
            ref = mgr.submit(_spec(tenant="vip", kind="spmv", n=96,
                                   iterations=300, checkpoint_every=2))
            assert ref.done_event.wait(180) and ref.state == JobState.DONE
            assert math.isfinite(ref.outcome["norm"])
            for rec in preempted:
                assert rec.outcome["digest"] == ref.outcome["digest"]
                assert rec.outcome["restored_from"] is not None
                events = [e["event"] for e in rec.events]
                assert "job_preempt" in events and "job_resume" in events
        finally:
            mgr.drain(timeout=15)
        assert _shm_litter() == []

    def test_equal_weight_jobs_never_preempt(self):
        big = 3 * 2**20
        mgr = _manager(memory_budget=8 * 2**20, max_concurrent=2)
        try:
            a = mgr.submit(_spec(kind="spmv", n=96, iterations=150,
                                 checkpoint_every=2, working_set_bytes=big))
            b = mgr.submit(_spec(kind="spmv", n=96, iterations=150,
                                 checkpoint_every=2, working_set_bytes=big))
            c = mgr.submit(_spec(working_set_bytes=big))  # must wait
            for rec in (a, b, c):
                assert rec.done_event.wait(120)
                assert rec.state == JobState.DONE
            assert a.preemptions == b.preemptions == 0
            assert math.isfinite(a.outcome["norm"])
            assert math.isfinite(b.outcome["norm"])
        finally:
            mgr.drain(timeout=10)

    def test_drain_checkpoints_running_jobs(self):
        mgr = _manager(max_concurrent=1)
        rec = mgr.submit(_spec(kind="spmv", n=96, iterations=600,
                               checkpoint_every=2))
        t0 = time.monotonic()
        while rec.state != JobState.RUNNING and time.monotonic() - t0 < 20:
            time.sleep(0.02)
        queued = mgr.submit(_spec())
        manifest = mgr.drain(timeout=30)
        assert rec.state == JobState.PREEMPTED
        assert rec.id in manifest["preempted"]
        assert queued.id in manifest["queued"]
        assert manifest["undrained"] == []
        assert (mgr.work_dir / "drain.json").exists()
        assert (mgr.work_dir / rec.id / "ckpt").is_dir()
        late = mgr.submit(_spec())
        assert late.state == JobState.REJECTED
        assert "draining" in late.outcome["reason"]
        assert _shm_litter() == []


class TestSweeper:
    def test_pid_alive(self):
        assert pid_alive(os.getpid())
        assert not pid_alive(-1)

    def test_sweep_reclaims_only_dead_owners(self, tmp_path):
        shm = tmp_path / "shm"
        tmp = tmp_path / "tmp"
        shm.mkdir()
        tmp.mkdir()
        # dead-owner litter (pid 2**22-ish is unused on CI runners; use a
        # spawned-and-exited child to be certain)
        import subprocess
        import sys
        child = subprocess.run([sys.executable, "-c", "print('x')"],
                               capture_output=True)
        assert child.returncode == 0
        dead = 4194000
        while pid_alive(dead):
            dead -= 1
        (shm / f"dooc-seg-{dead}-e1r1-0").write_bytes(b"x")
        (shm / f"dooc-seg-{os.getpid()}-e1r1-0").write_bytes(b"x")
        (shm / "unrelated").write_bytes(b"x")
        (tmp / f"dooc-{dead}-abc").mkdir()
        (tmp / f"dooc-{os.getpid()}-abc").mkdir()
        (tmp / "keepme").mkdir()

        report = sweep(shm_dir=shm, tmp_dir=tmp, dry_run=True)
        assert len(report["segments"]) == 1
        assert len(report["scratch_dirs"]) == 1
        assert (shm / f"dooc-seg-{dead}-e1r1-0").exists()  # dry run

        report = sweep(shm_dir=shm, tmp_dir=tmp)
        assert not (shm / f"dooc-seg-{dead}-e1r1-0").exists()
        assert not (tmp / f"dooc-{dead}-abc").exists()
        # live-owner and unrelated entries untouched
        assert (shm / f"dooc-seg-{os.getpid()}-e1r1-0").exists()
        assert (tmp / f"dooc-{os.getpid()}-abc").is_dir()
        assert (shm / "unrelated").exists()
        assert (tmp / "keepme").is_dir()


class TestSoak:
    def test_sixteen_concurrent_clients_all_structured(self, tmp_path):
        """16 clients x mixed fates: done, rejected (admission + quota),
        deadline-exceeded, cancelled, preempted-then-done, fault-retried.
        Every record must reach a structured terminal state and the
        server must drain to a clean /dev/shm."""
        mgr = JobManager(ServerConfig(
            memory_budget=10 * 2**20,
            max_queue=10,
            max_concurrent=3,
            engine=SMALL_ENGINE,
            quotas={"vip": TenantQuota(max_running=2, max_queued=4,
                                       weight=4.0),
                    "bulk": TenantQuota(max_running=3, max_queued=4,
                                        weight=1.0),
                    "greedy": TenantQuota(max_running=1, max_queued=1,
                                          weight=1.0)},
            faults=FaultPlan(seed=23, io_transient=0.005),
            retry=RetryPolicy(attempts=3, backoff_s=0.05, multiplier=2.0,
                              max_backoff_s=0.2, jitter=0.0),
            work_dir=tmp_path / "jobs",
        )).start()
        big = 3 * 2**20
        records = []
        lock = threading.Lock()

        def client(i):
            if i == 0:      # impossible working set
                rec = mgr.submit(_spec(tenant="bulk",
                                       working_set_bytes=10**12))
            elif i == 1:    # deadline that must expire
                rec = mgr.submit(_spec(tenant="bulk", kind="spmv", n=96,
                                       iterations=5000, checkpoint_every=10,
                                       deadline_s=0.8))
            elif i == 2:    # submitted then cancelled by its client
                rec = mgr.submit(_spec(tenant="bulk", kind="spmv", n=96,
                                       iterations=400, checkpoint_every=2))
                time.sleep(0.5)
                mgr.cancel(rec.id)
            elif i in (3, 4):  # heavy bulk jobs — preemption victims
                rec = mgr.submit(_spec(tenant="bulk", kind="spmv", n=96,
                                       iterations=300, checkpoint_every=2,
                                       working_set_bytes=big))
            elif i == 5:    # the heavier tenant that provokes preemption
                time.sleep(2.0)
                rec = mgr.submit(_spec(tenant="vip",
                                       working_set_bytes=big))
            elif i in (6, 7):  # greedy tenant: second one over quota
                rec = mgr.submit(_spec(tenant="greedy", seed=i))
            else:           # a spread of ordinary jobs across kinds
                kind = ("spmv", "jacobi", "cg", "lanczos")[i % 4]
                rec = mgr.submit(_spec(tenant=("vip", "bulk")[i % 2],
                                       kind=kind, seed=i, iterations=6))
            with lock:
                records.append((i, rec))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(records) == 16

        try:
            for i, rec in records:
                if rec.terminal:
                    continue
                assert rec.done_event.wait(240), \
                    f"client {i} job {rec.id} stuck in {rec.state}"
            states = {rec.state for _, rec in records}
            assert states <= JobState.TERMINAL
            by_client = dict(records)
            assert by_client[0].state == JobState.REJECTED
            assert by_client[1].state == JobState.DEADLINE_EXCEEDED
            assert by_client[2].state == JobState.CANCELLED
            assert by_client[5].state == JobState.DONE
            # no outcome is a watchdog stall
            for _, rec in records:
                assert "StallError" != rec.outcome.get("error_type"), \
                    (rec.id, rec.outcome)
        finally:
            manifest = mgr.drain(timeout=30)
        assert manifest["undrained"] == []
        assert _shm_litter() == []
