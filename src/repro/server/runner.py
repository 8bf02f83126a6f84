"""Execute one attempt of a job on the DOoC engine.

The runner is deliberately stateless: everything an attempt needs is in
the :class:`~repro.server.jobs.JobSpec` (the problem is *regenerated*
deterministically from its seed), the job's checkpoint directory (for
resume after a preemption or server restart), and the per-attempt
:class:`~repro.core.cancel.CancelToken` (for deadlines, client cancels,
preemption, and drain).  A cancelled attempt raises
:class:`~repro.core.errors.RunCancelled` with the newest chunk-boundary
checkpoint already on disk; re-running with ``resume=True`` continues
bit-identically — verified by digesting the final iterate.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from repro.core.cancel import CancelToken
from repro.server.jobs import JobSpec
from repro.spmv.csr import CSRBlock
from repro.spmv.generator import symmetric_test_matrix
from repro.spmv.partition import GridPartition

__all__ = ["execute_attempt", "digest_vector"]


def digest_vector(x: np.ndarray) -> str:
    """A short bit-exact fingerprint of a float64 vector (the server's
    bit-identity witness for preemption/resume)."""
    arr = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:32]


def _build_problem(spec: JobSpec):
    """The deterministic (matrix blocks, rhs/x0) pair for a spec.

    ``diag_shift`` scales with the row weight so Jacobi stays strictly
    diagonally dominant and CG's operator positive definite for any
    ``nnz_per_row`` a client picks.  The ``spmv`` kind iterates
    ``x <- A x`` with no normalisation, so its matrix is scaled to
    ``||A||_inf = 1``: the iterate stays finite for any iteration count.
    """
    rng = np.random.default_rng(spec.seed)
    m = symmetric_test_matrix(spec.n, spec.nnz_per_row, rng,
                              diag_shift=4.0 * spec.nnz_per_row)
    if spec.kind == "spmv":
        a = m.to_scipy()
        m = CSRBlock.from_scipy(a / abs(a).sum(axis=1).max())
    partition = GridPartition(spec.n, spec.parts)
    blocks = partition.split_matrix(m)
    vec = np.random.default_rng(spec.seed + 1).standard_normal(spec.n)
    return partition, blocks, vec


def _engine_kwargs(engine: dict | None, faults) -> dict:
    kwargs = dict(engine or {})
    kwargs.pop("n_nodes", None)
    if faults is not None:
        kwargs["faults"] = faults
    return kwargs


def execute_attempt(spec: JobSpec, *, job_dir: str | Path,
                    cancel: CancelToken, resume: bool = False,
                    n_nodes: int = 1, engine: dict | None = None,
                    faults=None) -> dict:
    """Run one attempt to completion; returns the structured result.

    Raises ``RunCancelled`` if the token fires (checkpoint on disk), or
    a ``DoocError`` subclass if the run dies to an (injected) fault —
    the manager decides between retry and a terminal ``failed``.
    """
    ckpt_dir = Path(job_dir) / "ckpt"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    partition, blocks, vec = _build_problem(spec)
    if spec.kind == "spmv":
        from repro.spmv.program import run_iterated_spmv
        x0_parts = partition.split_vector(vec)
        run = run_iterated_spmv(
            blocks, x0_parts, spec.iterations, n_nodes=n_nodes,
            checkpoint_dir=ckpt_dir, checkpoint_every=spec.checkpoint_every,
            resume=resume, cancel=cancel,
            engine_kwargs=_engine_kwargs(engine, faults))
        x = run.join()
        return {"digest": digest_vector(x), "iterations": run.iterations,
                "restored_from": run.restored_from,
                "norm": float(np.linalg.norm(x))}

    from repro.spmv.ooc_operator import OutOfCoreMatrix
    op = OutOfCoreMatrix(blocks, n_nodes=n_nodes,
                         rng_seed=spec.seed,
                         engine_kwargs=_engine_kwargs(engine, faults))
    op.cancel = cancel  # interrupts a solve *inside* an SpMV
    try:
        if spec.kind == "jacobi":
            from repro.solvers.jacobi import jacobi_solve
            res = jacobi_solve(op, vec, max_iterations=spec.iterations,
                               tol=1e-12, checkpoint_dir=ckpt_dir,
                               checkpoint_every=spec.checkpoint_every,
                               resume=resume)
            return {"digest": digest_vector(res.x),
                    "iterations": res.iterations,
                    "converged": bool(res.converged),
                    "residual": float(res.residual_history[-1])}
        if spec.kind == "cg":
            from repro.solvers.cg import conjugate_gradient_solve
            res = conjugate_gradient_solve(
                op, vec, max_iterations=spec.iterations, tol=1e-12,
                checkpoint_dir=ckpt_dir,
                checkpoint_every=spec.checkpoint_every, resume=resume)
            return {"digest": digest_vector(res.x),
                    "iterations": res.iterations,
                    "converged": bool(res.converged),
                    "residual": float(res.residual_history[-1])}
        # lanczos
        from repro.lanczos.lanczos import lanczos
        v0 = np.random.default_rng(spec.seed + 2).standard_normal(spec.n)
        res = lanczos(op.matvec, spec.n, k=spec.iterations,
                      n_eigenvalues=min(5, spec.iterations), v0=v0,
                      checkpoint_dir=ckpt_dir,
                      checkpoint_every=spec.checkpoint_every, resume=resume)
        eigs = np.asarray(res.eigenvalues, dtype=np.float64)
        return {"digest": digest_vector(eigs), "iterations": res.iterations,
                "eigenvalues": [float(v) for v in eigs[:5]]}
    finally:
        op.engine.cleanup()
