"""Out-of-core Lanczos on the DOoC engine.

The matrix lives as K x K binary-CSR sub-matrix files in the engine's
per-node scratch directories (seeded once); every Lanczos step's SpMV is
executed out-of-core through :class:`repro.spmv.ooc_operator.OutOfCoreMatrix`,
while the tridiagonal bookkeeping and the (dense but small)
reorthogonalization run in core — the division of labour the paper
proposes for MFDn on SSD clusters.
"""

from __future__ import annotations

from pathlib import Path
from collections.abc import Callable
from typing import Dict

import numpy as np

from repro.lanczos.lanczos import LanczosResult, lanczos
from repro.spmv.csr import CSRBlock
from repro.spmv.ooc_operator import OutOfCoreMatrix


class OutOfCoreLanczos:
    """Lanczos whose SpMV runs out-of-core through DOoC."""

    def __init__(
        self,
        blocks: dict[tuple[int, int], CSRBlock],
        *,
        n_nodes: int = 1,
        workers: int = 2,
        memory_budget_per_node: int = 256 * 2**20,
        scratch_dir: str | Path | None = None,
        policy: str = "interleaved",
        owner: Callable[[int, int], int] | None = None,
        rng_seed: int = 0,
    ):
        self.operator = OutOfCoreMatrix(
            blocks,
            n_nodes=n_nodes,
            workers=workers,
            memory_budget_per_node=memory_budget_per_node,
            scratch_dir=scratch_dir,
            policy=policy,
            owner=owner,
            rng_seed=rng_seed,
        )
        self.partition = self.operator.partition
        self.policy = self.operator.policy
        self.k = self.operator.k
        self.n = self.operator.n

    @property
    def engine(self):
        return self.operator.engine

    @property
    def matvec_count(self) -> int:
        return self.operator.matvec_count

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x, executed out-of-core as a DOoC program."""
        return self.operator.matvec(x)

    def solve(
        self,
        *,
        k: int = 50,
        n_eigenvalues: int = 5,
        rng: np.random.Generator | None = None,
        tol: float = 1e-9,
        want_vectors: bool = False,
        basis_on_disk: bool = False,
    ) -> LanczosResult:
        """Run Lanczos with this operator.

        ``basis_on_disk=True`` also keeps the Krylov basis out of core
        (one scratch file per Lanczos vector): both the matrix *and* the
        vectors then live on storage, the full Section-II scenario.
        """
        basis = None
        if basis_on_disk:
            from repro.lanczos.basis import DiskBasis

            basis = DiskBasis(
                self.n,
                scratch_dir=self.engine.scratch_root / "lanczos-basis",
            )
        return lanczos(
            self.matvec, self.n,
            k=k, n_eigenvalues=n_eigenvalues, rng=rng, tol=tol,
            want_vectors=want_vectors, basis=basis,
        )
