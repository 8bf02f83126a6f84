"""Job specifications, lifecycle states, and server-side job records."""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

from repro.core.cancel import CancelToken

__all__ = ["JOB_KINDS", "JobSpec", "JobState", "JobRecord",
           "estimate_working_set"]

#: solver kinds the server knows how to run (see repro.server.runner)
JOB_KINDS = ("spmv", "jacobi", "cg", "lanczos")


class JobState:
    """The job lifecycle vocabulary (strings, for JSON transparency).

    ``QUEUED -> RUNNING -> DONE`` is the happy path.  ``PREEMPTED`` is a
    *waiting* state — the job was suspended at a checkpoint and requeues
    automatically — except after a drain, where it is the record's final
    state in this process (the checkpoint on disk is the continuation).
    Everything in :data:`TERMINAL` is final and structured: a client
    polling a job always converges on one of these, never on a hang.
    """

    QUEUED = "queued"
    RUNNING = "running"
    PREEMPTED = "preempted"
    DONE = "done"
    REJECTED = "rejected"
    FAILED = "failed"
    CANCELLED = "cancelled"
    DEADLINE_EXCEEDED = "deadline-exceeded"

    TERMINAL = frozenset({DONE, REJECTED, FAILED, CANCELLED,
                          DEADLINE_EXCEEDED})
    ALL = (QUEUED, RUNNING, PREEMPTED, DONE, REJECTED, FAILED, CANCELLED,
           DEADLINE_EXCEEDED)


@dataclass(frozen=True)
class JobSpec:
    """What a client asks for: a deterministic solver problem.

    Problems are described by (kind, n, parts, seed), not by shipped
    matrices: the server regenerates the operator bit-identically on
    every attempt (and after a preemption), which is what makes retry
    and checkpoint-resume reproducible without persisting input data.
    """

    tenant: str
    kind: str
    n: int = 256
    parts: int = 2
    iterations: int = 20
    seed: int = 0
    nnz_per_row: float = 8.0
    #: wall-clock seconds from submission before the supervisor cancels
    #: the job (None = no deadline)
    deadline_s: float | None = None
    #: declared peak working set; None = estimated from the problem shape
    working_set_bytes: int | None = None
    #: checkpoint cadence (iterations between chunk boundaries) — the
    #: granularity at which preemption can suspend and resume the job
    checkpoint_every: int = 5

    def __post_init__(self) -> None:
        if not self.tenant or not str(self.tenant).strip():
            raise ValueError("tenant must be a non-empty string")
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}: expected one of {JOB_KINDS}")
        # each test is written to fail on NaN, which JSON bodies may carry
        if not self.n >= 8:
            raise ValueError("n must be >= 8")
        if not 1 <= self.parts <= self.n // 4:
            raise ValueError("parts must be in [1, n/4]")
        if not self.iterations >= 1:
            raise ValueError("iterations must be >= 1")
        # the symmetric generator puts nnz_per_row / 2 in each of n columns
        if not (math.isfinite(self.nnz_per_row)
                and 0 < self.nnz_per_row <= 2 * self.n):
            raise ValueError(
                f"nnz_per_row must be finite and in (0, 2n] = (0, {2 * self.n}]"
                f", got {self.nnz_per_row!r}")
        if self.deadline_s is not None and not (
                math.isfinite(self.deadline_s) and self.deadline_s > 0):
            raise ValueError(
                f"deadline_s must be positive and finite, got {self.deadline_s!r}")
        if self.working_set_bytes is not None and not self.working_set_bytes >= 0:
            raise ValueError("working_set_bytes must be non-negative")
        if not self.checkpoint_every >= 1:
            raise ValueError("checkpoint_every must be >= 1")

    @property
    def working_set(self) -> int:
        """Declared working set, falling back to the estimator."""
        if self.working_set_bytes is not None:
            return self.working_set_bytes
        return estimate_working_set(self)

    @classmethod
    def from_json(cls, payload: dict) -> "JobSpec":
        """Build from a client JSON body, rejecting unknown fields by
        name (a typo'd field must not silently become a default)."""
        if not isinstance(payload, dict):
            raise ValueError("job spec must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown job spec field(s): {', '.join(unknown)}")
        return cls(**payload)

    def to_json(self) -> dict:
        return {
            "tenant": self.tenant, "kind": self.kind, "n": self.n,
            "parts": self.parts, "iterations": self.iterations,
            "seed": self.seed, "nnz_per_row": self.nnz_per_row,
            "deadline_s": self.deadline_s,
            "working_set_bytes": self.working_set_bytes,
            "checkpoint_every": self.checkpoint_every,
        }


def estimate_working_set(spec: JobSpec) -> int:
    """Peak in-memory bytes a job's engine runs will want, estimated
    from the problem shape.

    The dominant term is the serialized sub-matrix grid (CSR data +
    indices, ~12 bytes/nnz, plus indptr); solvers add a handful of
    length-``n`` float64 vectors (iterate, residual, direction, Krylov
    working set) and the engine pins one decoded copy of each operand it
    touches.  Deliberately a mild over-estimate: admission control is a
    promise not to stall, so the estimator errs toward refusing."""
    nnz = float(spec.n) * float(spec.nnz_per_row)
    matrix = nnz * 12.0 + (spec.n + spec.parts * spec.parts) * 4.0
    vectors = 6.0 * spec.n * 8.0
    if spec.kind == "lanczos":
        # Full reorthogonalization keeps the whole Krylov basis live.
        vectors += float(min(spec.iterations, spec.n)) * spec.n * 8.0
    return int((matrix + vectors) * 1.25)


@dataclass
class JobRecord:
    """Server-side mutable state for one submitted job.

    All mutation happens under the JobManager's lock; the ``events``
    list is the job's own trace (served at ``/jobs/<id>/trace``).
    """

    id: str
    spec: JobSpec
    state: str = JobState.QUEUED
    #: monotonic deadline (derived from spec.deadline_s at submit)
    deadline_at: float | None = None
    #: monotonic time before which the job may not start (retry backoff)
    not_before: float = 0.0
    #: completed attempt count (a preemption does not count as an attempt)
    attempts: int = 0
    preemptions: int = 0
    #: resume from the newest checkpoint on the next start?
    resume: bool = False
    #: the in-flight attempt's cancel token (None while not running)
    cancel: CancelToken | None = None
    #: the job whose admission preempted this one last
    preempted_by: str | None = None
    #: structured terminal payload: result on DONE, reason otherwise
    outcome: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    #: signalled when the record reaches a TERMINAL state
    done_event: threading.Event = field(default_factory=threading.Event)

    def log(self, event: str, **fields) -> None:
        self.events.append({"ts": time.time(), "event": event, **fields})

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    def to_json(self, *, verbose: bool = False) -> dict:
        out = {
            "id": self.id,
            "tenant": self.spec.tenant,
            "kind": self.spec.kind,
            "state": self.state,
            "attempts": self.attempts,
            "preemptions": self.preemptions,
            "outcome": dict(self.outcome),
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }
        if verbose:
            out["spec"] = self.spec.to_json()
        return out
