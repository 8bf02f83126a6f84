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

from dataclasses import dataclass
from collections.abc import Callable
from pathlib import Path
from typing import Protocol

import numpy as np

from repro.core.convergence import ConvergenceReport, ConvergenceTracker
from repro.recovery.checkpoint import CheckpointCadence

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
    if staleness < 0:
        raise ValueError("staleness must be >= 0")
    diag = operator.diagonal()
    if np.any(diag == 0):
        raise ValueError("Jacobi needs a zero-free diagonal")
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, want ({n},)")
    b_norm = float(np.linalg.norm(b)) or 1.0
    ckpt = CheckpointCadence(checkpoint_dir, checkpoint_every, resume=resume)
    history: list[float] = []
    start = 0
    if ckpt.restored is not None:
        x = ckpt.restored.arrays["x"]
        history = [float(h) for h in ckpt.restored.arrays["history"]]
        start = ckpt.restored.step
    if mode == "async":
        return _solve_async(operator, b, x, diag, b_norm, tol,
                            max_iterations, callback, ckpt, history, start,
                            staleness, seed, fixpoint_exit)
    # Sync and incremental sweeps are one loop: the incremental one hands
    # the operator a workset (frozen columns are served from stored
    # products) and tells it what each sweep did.  Both take the same
    # exits, so their iterate sequences and counts stay bitwise identical.
    workset = None
    if mode == "incremental":
        from repro.spmv.ooc_operator import SweepWorkset

        _require_workset_operator(operator, mode)
        workset = SweepWorkset(operator)
    res_norm = history[-1] if history else np.inf
    it = start
    x_two_ago = None

    def result(converged, fixpoint=False):
        return JacobiResult(
            x=x, iterations=it, residual_norm=res_norm, converged=converged,
            residual_history=history, mode=mode, fixpoint=fixpoint,
            convergence=workset.tracker.report if workset is not None else None)

    try:
        for it in range(start + 1, max_iterations + 1):
            # In-core operators only know the bare matvec(x).
            ax = (operator.matvec(x) if workset is None
                  else operator.matvec(x, workset=workset))
            residual = b - ax
            res_norm = float(np.linalg.norm(residual))
            history.append(res_norm)
            if callback is not None:
                callback(it, res_norm)
            if res_norm <= tol * b_norm:
                return result(converged=True)
            x_new = x + residual / diag
            # A deterministic sweep that reproduced x (or entered an exact
            # 2-cycle) will repeat forever: the residual cannot improve.
            stagnant = fixpoint_exit and _stagnant(x_new, x, x_two_ago)
            if workset is not None:
                workset.observe(x, x_new, final=stagnant)
            if stagnant:
                return result(converged=False, fixpoint=True)
            x_two_ago = x
            x = x_new
            _save(ckpt, it, x, history)
        return result(converged=False)
    finally:
        if workset is not None:
            workset.close()  # unlink the stored products


def _save(ckpt: CheckpointCadence, it: int, x, history) -> None:
    ckpt.save(it, {"x": x, "history": np.asarray(history)}, {"iteration": it})


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
        _save(ckpt, it, x, history)
    return result(converged=False)
