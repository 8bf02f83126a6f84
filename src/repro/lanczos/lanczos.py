"""In-core Lanczos with full reorthogonalization (pluggable basis store).

A k-step Lanczos procedure applied to a symmetric matrix H and a random
starting vector x spans the Krylov subspace {x, Hx, ..., H^k x}; projecting
H onto it gives a tridiagonal matrix whose extreme eigenvalues (Ritz
values) converge rapidly to H's extreme eigenvalues.  MFDn uses full
reorthogonalization to keep the basis numerically orthogonal; so do we.

The Krylov basis itself lives in a :mod:`repro.lanczos.basis` store:
in-memory by default, or on disk (:class:`~repro.lanczos.basis.DiskBasis`)
so the O(k x D) vectors never occupy more than O(D) of RAM — Section II's
observation that the *eigenvectors together with* the matrix exhaust
Hopper's memory is what this addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from pathlib import Path

import numpy as np
import scipy.linalg

from repro.lanczos.basis import BasisStore, InMemoryBasis
from repro.recovery.checkpoint import CheckpointCadence


@dataclass
class LanczosResult:
    """Outcome of a Lanczos run."""

    eigenvalues: np.ndarray        # converged (or best) Ritz values, ascending
    eigenvectors: np.ndarray | None  # Ritz vectors (n x k), or None
    alphas: np.ndarray             # tridiagonal diagonal
    betas: np.ndarray              # tridiagonal off-diagonal
    iterations: int
    residuals: np.ndarray          # |beta_k * s_{k,i}| error bounds per Ritz pair

    @property
    def tridiagonal(self) -> np.ndarray:
        """The (dense) projected tridiagonal matrix."""
        k = len(self.alphas)
        t = np.diag(self.alphas)
        if k > 1:
            t += np.diag(self.betas[: k - 1], 1) + np.diag(self.betas[: k - 1], -1)
        return t


def lanczos(
    matvec: Callable[[np.ndarray], np.ndarray],
    n: int,
    *,
    k: int = 50,
    n_eigenvalues: int = 5,
    rng: np.random.Generator | None = None,
    v0: np.ndarray | None = None,
    tol: float = 1e-10,
    want_vectors: bool = False,
    basis: BasisStore | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 10,
    resume: bool = False,
) -> LanczosResult:
    """Run up to ``k`` Lanczos steps with full reorthogonalization.

    ``matvec`` applies the symmetric operator; convergence is declared
    when the ``n_eigenvalues`` lowest Ritz pairs all have residual bound
    ``|beta_k s_ki| <= tol * |theta_i|`` (early exit).  ``basis`` selects
    where the Krylov vectors are kept (default: in memory); pass a
    :class:`~repro.lanczos.basis.DiskBasis` to bound RAM at O(D).

    ``checkpoint_dir`` persists the recurrence state every
    ``checkpoint_every`` steps; ``resume=True`` restarts from the newest
    intact checkpoint and continues bit-identically.  Resuming requires a
    basis store whose vectors survived the crash — a
    :class:`~repro.lanczos.basis.DiskBasis` on the same scratch
    directory, re-adopted via its ``reattach`` hook (the vector files are
    write-once, so the reattach is exactly the engine's lineage argument
    applied to the basis).
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    if n_eigenvalues < 1 or n_eigenvalues > k:
        raise ValueError("n_eigenvalues must be in [1, k]")
    steps = min(k, n)
    cadence = CheckpointCadence(checkpoint_dir, checkpoint_every,
                                resume=resume)
    ckpt = cadence.restored
    if ckpt is not None:
        if basis is None or not hasattr(basis, "reattach"):
            from repro.core.errors import RecoveryError
            raise RecoveryError(
                "resuming Lanczos needs a reattachable basis store "
                "(a DiskBasis on the surviving scratch directory)"
            )
        basis.reattach(int(ckpt.extra["basis_count"]))
        store: BasisStore = basis
        alphas = [float(a) for a in ckpt.arrays["alphas"]]
        betas = [float(b) for b in ckpt.arrays["betas"]]
        v_curr = ckpt.arrays["v_curr"]
        v_prev: np.ndarray | None = ckpt.arrays["v_prev"]
        start = ckpt.step
    else:
        if v0 is not None:
            v = np.asarray(v0, dtype=np.float64).copy()
            if v.shape != (n,):
                raise ValueError(f"v0 has shape {v.shape}, want ({n},)")
        else:
            gen = rng if rng is not None else np.random.default_rng(0)
            v = gen.standard_normal(n)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("starting vector is zero")
        v /= norm
        store = basis if basis is not None else InMemoryBasis(n, steps + 1)
        store.append(v)
        v_curr = v
        v_prev = None
        alphas = []
        betas = []
        start = 0

    for j in range(start, steps):
        w = matvec(v_curr)
        alpha = float(v_curr @ w)
        alphas.append(alpha)
        w = w - alpha * v_curr
        if v_prev is not None:
            w = w - betas[-1] * v_prev
        # Full reorthogonalization against every stored basis vector
        # (two sweeps: Kahan-Parlett "twice is enough").
        w = store.orthogonalize(w, passes=2)
        beta = float(np.linalg.norm(w))
        theta, s = _ritz(alphas, betas)
        res = np.abs(beta * s[-1, :])
        m = min(n_eigenvalues, len(theta))
        if j + 1 >= n_eigenvalues and np.all(
            res[:m] <= tol * np.maximum(np.abs(theta[:m]), 1.0)
        ):
            break
        if beta <= 1e-14:  # invariant subspace found
            break
        betas.append(beta)
        v_prev = v_curr
        v_curr = w / beta
        store.append(v_curr)
        cadence.save(j + 1, {
            "alphas": np.asarray(alphas),
            "betas": np.asarray(betas),
            "v_curr": v_curr,
            "v_prev": v_prev,
        }, {"step": j + 1, "basis_count": len(store)})

    theta, s = _ritz(alphas, betas[: len(alphas) - 1])
    iterations = len(alphas)
    res = (
        np.abs(betas[iterations - 1] * s[-1, :])
        if len(betas) >= iterations
        else np.zeros(len(theta))
    )
    m = min(n_eigenvalues, len(theta))
    vectors = None
    if want_vectors:
        cols = []
        for i in range(m):
            cols.append(store.combine(
                np.concatenate([s[:, i], np.zeros(len(store) - iterations)])))
        vectors = np.stack(cols, axis=1)
    return LanczosResult(
        eigenvalues=theta[:m],
        eigenvectors=vectors,
        alphas=np.array(alphas),
        betas=np.array(betas[: iterations - 1]),
        iterations=iterations,
        residuals=res[:m],
    )


def _ritz(alphas: list[float], betas: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of the running tridiagonal (ascending)."""
    k = len(alphas)
    if k == 1:
        return np.array(alphas), np.ones((1, 1))
    return scipy.linalg.eigh_tridiagonal(
        np.asarray(alphas), np.asarray(betas[: k - 1])
    )
