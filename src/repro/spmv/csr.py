"""A validated Compressed-Row-Storage matrix block."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro.core.iofilter import block_buffer

#: SciPy keeps 32-bit index arrays as they are handed to it below this
_INT32_LIMIT = 2 ** 31


class CSRError(ValueError):
    """Malformed CSR structure."""


def _max_column(indices: np.ndarray) -> float:
    """The largest column index, or infinity if one is negative: in one
    pass for signed integers, read as the unsigned type of their width,
    where a negative index reads as huge."""
    if indices.dtype.kind == "i":
        return int(indices.view(indices.dtype.str.replace("i", "u")).max())
    return indices.max() if indices.min() >= 0 else np.inf


def matvec_into(a: CSRBlock | sp.csr_matrix, x: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """``out[:] = a @ x`` with no temporary: the one in-place kernel.

    ``a`` is a :class:`CSRBlock` (multiplied by its own arrays, whatever
    their index width: the engine's operand is a sub-matrix's views of
    its store block) or a SciPy CSR matrix.  ``out`` is zeroed and
    accumulated into by the compiled ``csr_matvec`` call that SciPy's
    own ``a @ x`` makes on a zeroed result of its own; the int64 and
    int32 instantiations run the same row loop, so every float sum — and
    so every bit of the product — is the same.  The routine writes
    through a raw pointer, hence the strictness about ``out``: anything
    SciPy would have to convert first would receive the product in a
    copy; and about the index arrays, which it would convert to one
    width by copying one of them.
    """
    nrows, ncols = a.shape
    data = a.values if isinstance(a, CSRBlock) else a.data
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ncols,):
        raise CSRError(f"x has shape {x.shape}, want ({ncols},)")
    if out.shape != (nrows,):
        raise CSRError(f"out has shape {out.shape}, want ({nrows},)")
    if not (data.dtype == out.dtype == np.float64 and out.flags.c_contiguous
            and out.flags.writeable):
        raise CSRError("in-place matvec needs float64 values and a writable "
                       "C-contiguous float64 out")
    if a.indptr.dtype != a.indices.dtype or a.indptr.dtype.kind != "i":
        raise CSRError("in-place matvec needs indptr and indices of one "
                       f"integer dtype, got {a.indptr.dtype}/{a.indices.dtype}")
    out.fill(0.0)
    _sparsetools.csr_matvec(nrows, ncols, a.indptr, a.indices, data, x, out)
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
    indptr: np.ndarray   # integer, nrows + 1
    indices: np.ndarray  # integer, nnz
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
        if nnz and _max_column(indices) >= self.ncols:
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

    # -- conversions -----------------------------------------------------------

    def to_scipy(self) -> sp.csr_matrix:
        """A SciPy matrix the caller owns, over this block's ``values``.

        SciPy wants 32-bit indices wherever they fit.  32-bit ones (a
        sub-matrix file's) are handed to it as they are; 64-bit ones it
        would scan for their range and then copy down on the heap, so,
        the range being known here (validated at construction), they are
        cast once, into allocator memory, and SciPy keeps what it is
        given.
        """
        indptr, indices = self.indptr, self.indices
        if indices.dtype == np.int64 and \
                max(self.nrows, self.ncols, self.nnz) < _INT32_LIMIT:
            indptr = block_buffer(self.nrows + 1, np.int32)
            indptr[:] = self.indptr
            indices = block_buffer(self.nnz, np.int32)
            indices[:] = self.indices
        return sp.csr_matrix((self.values, indices, indptr),
                             shape=self.shape, copy=False)

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
        """y = A @ x using SciPy's compiled kernel over this block's own
        arrays, into ``out`` if given (see :func:`matvec_into`)."""
        if out is None:
            out = np.empty(self.nrows)
        return matvec_into(self, x, out)

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
