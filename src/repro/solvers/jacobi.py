"""Out-of-core Jacobi iteration: x <- x + D^{-1} (b - A x).

Converges for strictly diagonally dominant (or otherwise contractive)
systems; each sweep costs one out-of-core SpMV plus in-core vector
updates.

Three execution modes (docs/ITERATION.md):

* ``mode="sync"`` — the classic bulk-synchronous sweep.  Every sweep
  multiplies every sub-matrix; the result is bit-identical to the in-core
  blocked reference.
* ``mode="incremental"`` — delta/workset sweeps: a per-block
  :class:`~repro.core.convergence.ConvergenceTracker` freezes columns
  whose iterate went bitwise stationary, and later sweeps seed their
  cached products instead of re-reading and re-multiplying the frozen
  sub-matrices.  Because re-multiplying an unchanged block is
  deterministic, the iterate sequence — and the final answer — stays
  bit-identical to ``"sync"`` while tasks and disk bytes fall.
  Requires a workset-capable operator (:class:`repro.spmv.ooc_operator.
  OutOfCoreMatrix`).
* ``mode="async"`` — chaotic relaxation (Chazan-Miranker): the global
  barrier is relaxed and each block multiply may read a *stale* iterate
  version, at most ``staleness`` rounds old, drawn from a seeded
  generator.  Still converges for diagonally dominant systems under
  bounded staleness; before declaring convergence the driver runs one
  fresh confirmation sweep, so the reported residual is a true residual
  and the documented bound ``||b - A x|| <= tol * ||b||`` holds.
  ``staleness=0`` degenerates to the synchronous iterate sequence.

Every mode terminates early when the iterate reaches an exact (bitwise)
fixpoint: a deterministic sweep that reproduced ``x`` exactly can never
produce anything else, so further sweeps are pure waste.  Sync and
incremental sweeps additionally detect exact *period-2 limit cycles*
(``x(t) == x(t-2)`` bitwise) — near convergence the update often
oscillates in the last ulp forever rather than landing on a period-1
fixpoint — and exit then too, with ``fixpoint=True``; both modes use the
identical check, so their iterate sequences never diverge.

Pass ``checkpoint_dir`` to persist the iterate at iteration boundaries
(every ``checkpoint_every`` sweeps, via :mod:`repro.recovery.checkpoint`);
``resume=True`` restarts from the newest intact checkpoint.  Sync and
incremental resumes reproduce the remaining iterates bit-identically —
the solver state is exactly ``(x, history)`` and both round-trip as raw
float64 payloads (an incremental resume re-discovers its frozen columns
after one warm-up sweep).  An async resume restarts the staleness history
and the stale-choice stream from the checkpointed iterate; it keeps the
convergence bound, not any particular iterate sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from pathlib import Path
from typing import Protocol

import numpy as np

from repro.core.convergence import ConvergenceReport, ConvergenceTracker

MODES = ("sync", "incremental", "async")


class _Operator(Protocol):  # pragma: no cover - typing aid
    n: int

    def matvec(self, x: np.ndarray) -> np.ndarray: ...
    def diagonal(self) -> np.ndarray: ...


@dataclass
class JacobiResult:
    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    residual_history: list[float]
    mode: str = "sync"
    #: the iterate went bitwise stationary and the drive exited early
    fixpoint: bool = False
    #: per-sweep workset history (incremental and async modes)
    convergence: ConvergenceReport | None = None


@dataclass
class _Checkpointing:
    """Shared checkpoint plumbing for all three modes."""

    mgr: object | None = None
    every: int = 10
    history: list[float] = field(default_factory=list)

    @classmethod
    def open(cls, checkpoint_dir, every, resume):
        self = cls(every=every)
        x = history = start = None
        if checkpoint_dir is not None:
            from repro.recovery.checkpoint import CheckpointManager
            self.mgr = CheckpointManager(checkpoint_dir)
            if resume:
                ckpt = self.mgr.load_latest()
                if ckpt is not None:
                    x = ckpt.arrays["x"].copy()
                    history = [float(h) for h in ckpt.arrays["history"]]
                    start = ckpt.step
        return self, x, history, start

    def save(self, it, x, history):
        if self.mgr is not None and it % self.every == 0:
            self.mgr.save(it, {"x": x, "history": np.asarray(history)},
                          {"iteration": it})


def jacobi_solve(
    operator: _Operator,
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iterations: int = 200,
    callback: Callable[[int, float], None] | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 10,
    resume: bool = False,
    mode: str = "sync",
    staleness: int = 2,
    seed: int = 0,
    fixpoint_exit: bool = True,
) -> JacobiResult:
    """Solve A x = b by Jacobi sweeps with out-of-core SpMVs."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}: have {MODES}")
    n = operator.n
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"b has shape {b.shape}, want ({n},)")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    if staleness < 0:
        raise ValueError("staleness must be >= 0")
    diag = operator.diagonal()
    if np.any(diag == 0):
        raise ValueError("Jacobi needs a zero-free diagonal")
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, want ({n},)")
    b_norm = float(np.linalg.norm(b)) or 1.0
    ckpt, ck_x, ck_hist, ck_start = _Checkpointing.open(
        checkpoint_dir, checkpoint_every, resume)
    history: list[float] = ck_hist or []
    start = ck_start or 0
    if ck_x is not None:
        x = ck_x
    if mode == "incremental":
        return _solve_incremental(operator, b, x, diag, b_norm, tol,
                                  max_iterations, callback, ckpt, history,
                                  start, fixpoint_exit)
    if mode == "async":
        return _solve_async(operator, b, x, diag, b_norm, tol,
                            max_iterations, callback, ckpt, history, start,
                            staleness, seed, fixpoint_exit)
    res_norm = history[-1] if history else np.inf
    it = start
    x_two_ago = None
    for it in range(start + 1, max_iterations + 1):
        residual = b - operator.matvec(x)
        res_norm = float(np.linalg.norm(residual))
        history.append(res_norm)
        if callback is not None:
            callback(it, res_norm)
        if res_norm <= tol * b_norm:
            return JacobiResult(x=x, iterations=it, residual_norm=res_norm,
                                converged=True, residual_history=history)
        x_new = x + residual / diag
        if fixpoint_exit and _stagnant(x_new, x, x_two_ago):
            # A deterministic sweep that reproduced x (or entered an exact
            # 2-cycle) will repeat forever: the residual cannot improve.
            return JacobiResult(x=x, iterations=it, residual_norm=res_norm,
                                converged=False, residual_history=history,
                                fixpoint=True)
        x_two_ago = x
        x = x_new
        ckpt.save(it, x, history)
    return JacobiResult(x=x, iterations=it, residual_norm=res_norm,
                        converged=False, residual_history=history)


def _stagnant(x_new, x, x_two_ago) -> bool:
    """Exact period-1 fixpoint or period-2 limit cycle of the sweep."""
    return bool(np.array_equal(x_new, x)
                or (x_two_ago is not None and np.array_equal(x_new, x_two_ago)))


def _require_workset_operator(operator, mode: str):
    partition = getattr(operator, "partition", None)
    if partition is None or not hasattr(operator, "column_products"):
        raise ValueError(
            f"mode={mode!r} needs a workset-capable operator "
            "(repro.spmv.ooc_operator.OutOfCoreMatrix); got "
            f"{type(operator).__name__}")
    return partition


def _solve_incremental(operator, b, x, diag, b_norm, tol, max_iterations,
                       callback, ckpt, history, start, fixpoint_exit):
    """Delta/workset sweeps: bit-identical to sync, minus the dead work."""
    from repro.spmv.ooc_operator import SweepWorkset

    partition = _require_workset_operator(operator, "incremental")
    tracer = getattr(getattr(operator, "engine", None), "tracer", None)
    workset = SweepWorkset(operator)
    tracker = ConvergenceTracker(partition.k, tol=0.0, tracer=tracer)
    pending_aux = 0
    res_norm = history[-1] if history else np.inf
    it = start
    x_two_ago = None

    def result(converged, fixpoint=False):
        return JacobiResult(x=x, iterations=it, residual_norm=res_norm,
                            converged=converged, residual_history=history,
                            mode="incremental", fixpoint=fixpoint,
                            convergence=tracker.report)

    try:
        for it in range(start + 1, max_iterations + 1):
            residual = b - operator.matvec(x, workset=workset)
            sweep_tasks = operator.last_sweep["tasks"]
            res_norm = float(np.linalg.norm(residual))
            history.append(res_norm)
            if callback is not None:
                callback(it, res_norm)
            if res_norm <= tol * b_norm:
                return result(converged=True)
            x_new = x + residual / diag
            record = tracker.observe(
                partition.split_vector(x), partition.split_vector(x_new),
                tasks_scheduled=sweep_tasks, aux_tasks=pending_aux)
            pending_aux = 0
            for v in record.reentered:
                workset.thaw(v)
            if fixpoint_exit and _stagnant(x_new, x, x_two_ago):
                # Same exit condition as mode="sync", so the two iterate
                # sequences (and iteration counts) stay bitwise identical.
                return result(converged=False, fixpoint=True)
            x_two_ago = x
            x = x_new
            new_parts = partition.split_vector(x_new)
            for v in record.newly_frozen:
                # Cache every frozen phase (period-2 cycles have two).
                for phase in tracker.phases(v) or (new_parts[v],):
                    pending_aux += workset.freeze(v, phase)
            ckpt.save(it, x, history)
        return result(converged=False)
    finally:
        workset.close()  # unlink the stored products


def _solve_async(operator, b, x, diag, b_norm, tol, max_iterations,
                 callback, ckpt, history, start, staleness, seed,
                 fixpoint_exit):
    """Bounded-staleness chaotic relaxation with a confirmation sweep."""
    partition = _require_workset_operator(operator, "async")
    tracer = getattr(getattr(operator, "engine", None), "tracer", None)
    k = partition.k
    tracker = ConvergenceTracker(k, tol=0.0, tracer=tracer)
    rng = np.random.default_rng(seed)
    coords = [(u, v) for u in range(k) for v in range(k)]
    #: iterate versions, newest first; versions[age] is ``age`` rounds old
    versions = [partition.split_vector(x)]
    res_norm = history[-1] if history else np.inf
    it = start

    def result(converged, fixpoint=False):
        return JacobiResult(x=x, iterations=it, residual_norm=res_norm,
                            converged=converged, residual_history=history,
                            mode="async", fixpoint=fixpoint,
                            convergence=tracker.report)

    for it in range(start + 1, max_iterations + 1):
        max_age = min(staleness, len(versions) - 1)
        choice = {uv: int(rng.integers(0, max_age + 1)) for uv in coords}
        y_parts = operator.stale_sweep(versions, choice)
        sweep_tasks = operator.last_sweep["tasks"]
        residual = b - partition.join_vector(y_parts)
        res_norm = float(np.linalg.norm(residual))
        history.append(res_norm)
        if callback is not None:
            callback(it, res_norm)
        if res_norm <= tol * b_norm:
            # The relaxed residual mixed iterate versions; confirm against
            # a fresh synchronous sweep so the reported residual is a true
            # residual of the returned x (the documented bound).
            true_res = float(np.linalg.norm(b - operator.matvec(x)))
            res_norm = true_res
            history[-1] = true_res
            if true_res <= tol * b_norm:
                return result(converged=True)
        x_new = x + residual / diag
        tracker.observe(versions[0], partition.split_vector(x_new),
                        tasks_scheduled=sweep_tasks)
        if fixpoint_exit and np.array_equal(x_new, x):
            return result(converged=res_norm <= tol * b_norm, fixpoint=True)
        x = x_new
        versions.insert(0, partition.split_vector(x))
        del versions[staleness + 1:]
        ckpt.save(it, x, history)
    return result(converged=False)
