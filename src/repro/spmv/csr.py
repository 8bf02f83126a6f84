"""A validated Compressed-Row-Storage matrix block."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro.core.iofilter import block_buffer

#: SciPy keeps 32-bit index arrays as they are handed to it below this
_INT32_LIMIT = 2 ** 31


class CSRError(ValueError):
    """Malformed CSR structure."""


def matvec_into(a: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[:] = a @ x`` with no temporary: the one in-place kernel.

    ``out`` is zeroed and accumulated into by the compiled ``csr_matvec``
    call that SciPy's own ``a @ x`` makes on a zeroed result of its own,
    so every float sum — and so every bit of the product — is the same.
    The routine writes through a raw pointer, hence the strictness about
    ``out``: anything SciPy would have to convert first would receive the
    product in a copy.
    """
    nrows, ncols = a.shape
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ncols,):
        raise CSRError(f"x has shape {x.shape}, want ({ncols},)")
    if out.shape != (nrows,):
        raise CSRError(f"out has shape {out.shape}, want ({nrows},)")
    if not (a.dtype == out.dtype == np.float64 and out.flags.c_contiguous
            and out.flags.writeable):
        raise CSRError("in-place matvec needs float64 values and a writable "
                       "C-contiguous float64 out")
    out.fill(0.0)
    _sparsetools.csr_matvec(nrows, ncols, a.indptr, a.indices, a.data, x, out)
    return out


@dataclass(frozen=True)
class CSRBlock:
    """One sub-matrix in CSR form.

    Arrays follow the classic layout: ``indptr`` has ``nrows + 1`` entries,
    row ``i`` owns ``indices[indptr[i]:indptr[i+1]]`` (column ids, strictly
    increasing within a row) and the matching ``values``.
    """

    nrows: int
    ncols: int
    indptr: np.ndarray   # int64, nrows + 1
    indices: np.ndarray  # int64, nnz
    values: np.ndarray   # float64, nnz

    def __post_init__(self) -> None:
        if self.nrows < 0 or self.ncols < 0:
            raise CSRError("negative matrix dimensions")
        indptr = np.asarray(self.indptr)
        indices = np.asarray(self.indices)
        values = np.asarray(self.values)
        if indptr.shape != (self.nrows + 1,):
            raise CSRError(f"indptr has shape {indptr.shape}, want ({self.nrows + 1},)")
        if indptr[0] != 0:
            raise CSRError("indptr must start at 0")
        if np.any(indptr[1:] < indptr[:-1]):
            raise CSRError("indptr must be non-decreasing")
        nnz = int(indptr[-1])
        if indices.shape != (nnz,) or values.shape != (nnz,):
            raise CSRError(
                f"indices/values shapes {indices.shape}/{values.shape} disagree "
                f"with indptr nnz {nnz}"
            )
        if nnz and (indices.min() < 0 or indices.max() >= self.ncols):
            raise CSRError("column index out of range")

    # -- properties -----------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.values.nbytes

    @property
    def matvec_flops(self) -> int:
        """2 flops per stored nonzero (multiply + add)."""
        return 2 * self.nnz

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.indptr)

    # -- conversions -----------------------------------------------------------

    def to_scipy(self) -> sp.csr_matrix:
        """A SciPy matrix the caller owns, over this block's ``values``.

        SciPy wants 32-bit indices wherever they fit and, handed the
        file format's 64-bit ones, scans them for their range and then
        copies them down on the heap.  The range is known here (validated
        at construction), so they are cast once, into allocator memory,
        and SciPy keeps what it is given.
        """
        indptr, indices = self.indptr, self.indices
        if max(self.nrows, self.ncols, self.nnz) < _INT32_LIMIT:
            indptr = block_buffer(self.nrows + 1, np.int32)
            indptr[:] = self.indptr
            indices = block_buffer(self.nnz, np.int32)
            indices[:] = self.indices
        return sp.csr_matrix((self.values, indices, indptr),
                             shape=self.shape, copy=False)

    @cached_property
    def _operand(self) -> sp.csr_matrix:
        """The SciPy form ``matvec`` multiplies by, built on first use:
        the block is frozen, so it never goes stale."""
        return self.to_scipy()

    @classmethod
    def from_scipy(cls, m) -> CSRBlock:
        csr = sp.csr_matrix(m)
        csr.sort_indices()
        return cls(
            nrows=csr.shape[0],
            ncols=csr.shape[1],
            indptr=csr.indptr.astype(np.int64),
            indices=csr.indices.astype(np.int64),
            values=csr.data.astype(np.float64),
        )

    def to_dense(self) -> np.ndarray:
        return self.to_scipy().toarray()

    # -- kernels -----------------------------------------------------------------

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """y = A @ x using SciPy's compiled kernel, into ``out`` if given
        (see :func:`matvec_into`)."""
        if out is None:
            out = np.empty(self.nrows)
        return matvec_into(self._operand, x, out)

    def matvec_python(self, x: np.ndarray) -> np.ndarray:
        """Reference row-loop kernel (for differential testing)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise CSRError(f"x has shape {x.shape}, want ({self.ncols},)")
        y = np.zeros(self.nrows)
        for i in range(self.nrows):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            y[i] = np.dot(self.values[lo:hi], x[self.indices[lo:hi]])
        return y

    @classmethod
    def empty(cls, nrows: int, ncols: int) -> CSRBlock:
        return cls(
            nrows=nrows,
            ncols=ncols,
            indptr=np.zeros(nrows + 1, dtype=np.int64),
            indices=np.zeros(0, dtype=np.int64),
            values=np.zeros(0, dtype=np.float64),
        )
