"""Out-of-core conjugate gradients for symmetric positive-definite systems.

One out-of-core SpMV per iteration; the dot products and vector updates —
like Lanczos' orthonormalization, "a smaller extent" of the cost — run in
core.

Pass ``checkpoint_dir`` to persist the full recurrence state ``(x, r, p,
rr, history)`` every ``checkpoint_every`` iterations via
:mod:`repro.recovery.checkpoint`; ``resume=True`` restarts from the newest
intact checkpoint.  All state — including the scalar ``rr`` — is stored as
raw float64 payloads, so a resumed solve continues the iterate sequence
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from pathlib import Path
from typing import Protocol

import numpy as np

from repro.recovery.checkpoint import CheckpointCadence


class _Operator(Protocol):  # pragma: no cover - typing aid
    n: int

    def matvec(self, x: np.ndarray) -> np.ndarray: ...


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    residual_history: list[float]


def conjugate_gradient_solve(
    operator: _Operator,
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iterations: int | None = None,
    callback: Callable[[int, float], None] | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 10,
    resume: bool = False,
) -> CGResult:
    """Solve A x = b (A symmetric positive definite) by CG."""
    n = operator.n
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"b has shape {b.shape}, want ({n},)")
    if max_iterations is None:
        max_iterations = 2 * n
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, want ({n},)")
    b_norm = float(np.linalg.norm(b)) or 1.0
    start = 0
    ckpt = CheckpointCadence(checkpoint_dir, checkpoint_every, resume=resume)
    if ckpt.restored is not None:
        state = ckpt.restored.arrays
        x, r, p = state["x"], state["r"], state["p"]
        rr = float(state["rr"][0])
        history = [float(h) for h in state["history"]]
        start = ckpt.restored.step
    else:
        r = b - operator.matvec(x)
        p = r.copy()
        rr = float(r @ r)
        history = [float(np.sqrt(rr))]
    it = start
    for it in range(start + 1, max_iterations + 1):
        ap = operator.matvec(p)
        pap = float(p @ ap)
        if pap <= 0:
            raise ValueError(
                "operator is not positive definite (p^T A p <= 0)"
            )
        alpha = rr / pap
        x += alpha * p
        r -= alpha * ap
        rr_new = float(r @ r)
        res_norm = float(np.sqrt(rr_new))
        history.append(res_norm)
        if callback is not None:
            callback(it, res_norm)
        if res_norm <= tol * b_norm:
            return CGResult(x=x, iterations=it, residual_norm=res_norm,
                            converged=True, residual_history=history)
        p = r + (rr_new / rr) * p
        rr = rr_new
        ckpt.save(it, {"x": x, "r": r, "p": p, "rr": np.array([rr]),
                       "history": np.asarray(history)}, {"iteration": it})
    return CGResult(x=x, iterations=it, residual_norm=history[-1],
                    converged=False, residual_history=history)
