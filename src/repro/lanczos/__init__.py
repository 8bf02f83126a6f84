"""Lanczos eigensolvers: the iterative method that motivates the paper.

MFDn seeks the lowest eigenvalues of the CI Hamiltonian with the Lanczos
algorithm, whose cost is "dominated by the associated sparse matrix vector
multiplications and (to a smaller extent) orthonormalization of Lanczos
vectors" (Section II).

* :mod:`repro.lanczos.lanczos` — Lanczos with full reorthogonalization
  and Ritz-value extraction over any ``matvec``;
* :mod:`repro.lanczos.basis` — where the Krylov vectors live: in memory,
  or one scratch file per vector (:class:`DiskBasis`).

Out of core it is two calls — ``lanczos(op.matvec, op.n, ...)`` with
``op`` a :class:`repro.spmv.ooc_operator.OutOfCoreMatrix`, so each step's
SpMV runs as a DOoC program over blocked matrix files while the (small)
tridiagonal bookkeeping stays in core: the paper's envisioned
MFDn-on-DOoC structure ("our out-of-core code does not implement the full
Lanczos algorithm required for MFDn ... but SpMV computations account for
the major part").  ``basis=DiskBasis(n, scratch_dir=...)`` puts the
vectors on storage too, the full Section-II scenario.
"""

from repro.lanczos.basis import DiskBasis, InMemoryBasis
from repro.lanczos.lanczos import LanczosResult, lanczos

__all__ = ["lanczos", "LanczosResult", "InMemoryBasis", "DiskBasis"]
