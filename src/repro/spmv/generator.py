"""Random sparse matrix generators.

The paper's testbed matrices are generated "randomly, such that the
separation between two consecutive nonzero entries on a row is uniformly
distributed in the interval [1:2d], where d is a parameter ... chosen to
yield a certain number of total non-zero elements in a sub-matrix".  The
mean gap is (1 + 2d)/2, so a row of ``ncols`` columns carries about
``ncols / (d + 0.5)`` nonzeros; :func:`choose_gap_parameter` inverts that.

:func:`symmetric_test_matrix` builds modest symmetric positive-definite
matrices for the eigensolver examples (Lanczos needs symmetry; the paper's
Hamiltonians are symmetric).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.spmv.csr import CSRBlock


def choose_gap_parameter(ncols: int, nnz_per_row: float) -> float:
    """The d yielding ~``nnz_per_row`` nonzeros per row of width ``ncols``.

    Derived from E[gap] = d + 1/2 for gaps uniform on [1, 2d].
    """
    if nnz_per_row <= 0:
        raise ValueError("nnz_per_row must be positive")
    if nnz_per_row > ncols:
        raise ValueError(f"cannot fit {nnz_per_row} nonzeros in {ncols} columns")
    return max(ncols / nnz_per_row - 0.5, 0.5)


#: Stream values held at once: rows are generated in chunks of about
#: this many draws, so the temporaries stay a few MB whatever the size
_CHUNK_VALUES = 1 << 18


def _row_ends(v: np.ndarray, ncols: int, mean_gap: float):
    """Where a row starting at each position of the stream stops reading.

    ``v`` holds draws on [0, max_gap) capped at ``ncols`` (a start or a
    gap that large ends a row wherever it falls, so the cap changes no
    column).  A row that starts at q takes ``v[q]`` as its first column
    and ``v[j] + 1`` as its gaps, drawn in batches of
    ``max(int(remaining / mean_gap) + 8, 16)`` until a batch crosses
    ``ncols``; what it reads depends on ``v[q:]`` only.  Returns
    ``(ends, sums)``: the row reads ``v[q:ends[q]]`` (``len(v) + 1``
    where ``v`` runs out first), and its columns are
    ``v[q] - sums[q + 1] + sums[k]`` for the k in ``[q + 1, ...)`` below
    ``ncols``.
    """
    n = v.size
    sums = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(v + 1, out=sums[1:])
    # the first batch of every row, computed in place: ``last`` is the
    # only other stream-sized array beside ``sums`` and ``ends``
    ends = ((ncols - v) / mean_gap).astype(np.int64)
    ends += 8
    np.maximum(ends, 16, out=ends)
    ends += np.arange(1, n + 1)
    last = sums[np.minimum(ends, n)]
    last -= sums[1:]
    last += v
    empty = np.flatnonzero(v >= ncols)
    ends[empty] = empty + 1  # an empty row reads its start only
    ends[ends > n] = n + 1
    q = np.flatnonzero((last < ncols) & (ends <= n))
    pos, last = ends[q], last[q]
    while q.size:  # another batch, for the few rows the last one left short
        end = pos + np.maximum(
            ((ncols - last) / mean_gap).astype(np.int64) + 8, 16)
        short = end > n
        ends[q[short]] = n + 1
        q, pos, end, last = q[~short], pos[~short], end[~short], last[~short]
        last = last + sums[end] - sums[pos]
        out = last >= ncols
        ends[q[out]] = end[out]
        q, pos, last = q[~out], end[~out], last[~out]
    return ends, sums


def _walk_rows(v: np.ndarray, rows: int, ncols: int, mean_gap: float):
    """Up to ``rows`` consecutive rows read off the front of ``v`` (capped
    at ``ncols``): the number of values they read, their column counts
    and their columns."""
    ends, sums = _row_ends(v, ncols, mean_gap)
    walk = []
    p = 0
    while len(walk) < rows and p < v.size:
        end = ends.item(p)
        if end > v.size:
            break
        walk.append(p)
        p = end
    starts = np.array(walk, dtype=np.int64)
    base = v[starts] - sums[starts + 1]
    counts = np.searchsorted(sums, ncols - base) - starts - 1
    k = np.arange(int(counts.sum()), dtype=np.int64)
    k += np.repeat(starts + 1 - (np.cumsum(counts) - counts), counts)
    return p, counts, sums[k] + np.repeat(base, counts)


def _gap_uniform_rows(nrows: int, ncols: int, max_gap: int,
                      rng: np.random.Generator):
    """``(indptr, indices)`` of ``nrows`` gap-uniform rows.

    A row's start is uniform on [0, max_gap) and its gaps on
    [1, max_gap], both drawn by ``rng.integers`` over the range
    ``max_gap - 1``; numpy draws such a sequence value by value from one
    stream whatever the calls it is split into.  So the rows are read
    off one stream of ``integers(0, max_gap)`` draws, in chunks, and
    ``rng`` is left as if each row had drawn its own batches: it is put
    back to where the stream began and advanced by the values the rows
    read.
    """
    mean_gap = (max_gap + 1) / 2.0
    per_row = 1 + max(int(ncols / mean_gap) + 8, 16)  # a one-batch row
    chunk = max(1, _CHUNK_VALUES // per_row)
    counts = np.zeros(nrows + 1, dtype=np.int64)
    pieces = [np.zeros(0, dtype=np.int64)]
    v = np.zeros(0, dtype=np.int64)
    marks = []  # (state before a draw, values drawn before it)
    drawn = used = row = 0
    extra = 64  # draws past the one-batch estimate; grows if a row needs it
    while row < nrows:
        rows = min(chunk, nrows - row)
        need = rows * per_row + extra
        if v.size < need:
            marks.append((rng.bit_generator.state, drawn))
            drawn += need - v.size
            v = np.concatenate([v, np.minimum(
                rng.integers(0, max_gap, size=need - v.size), ncols)])
        took, row_counts, cols = _walk_rows(v, rows, ncols, mean_gap)
        if not row_counts.size:  # one row reads past the buffer
            extra += v.size
            continue
        counts[row + 1:row + 1 + row_counts.size] = row_counts
        pieces.append(cols)
        v = v[took:]
        used += took
        row += row_counts.size
    for state, before in reversed(marks):
        if before <= used:
            rng.bit_generator.state = state
            rng.integers(0, max_gap, size=used - before)
            break
    return np.cumsum(counts), np.concatenate(pieces)


def gap_uniform_csr(
    nrows: int,
    ncols: int,
    d: float,
    rng: np.random.Generator,
    *,
    values: str = "uniform",
) -> CSRBlock:
    """Generate the paper's gap-uniform random sub-matrix.

    Column gaps per row are iid uniform integers on [1, round(2d)]; the
    first nonzero column of a row is uniform on [0, gap) so rows are not
    all anchored at column 0.  ``values`` selects the nonzero distribution:
    ``"uniform"`` on [-1, 1) or ``"ones"``.

    The rows are those of drawing each one in turn — its start, then
    batches of ``max(int(remaining / mean_gap) + 8, 16)`` gaps until one
    crosses ``ncols`` — and ``rng`` ends in the same state, but they are
    generated in one vectorised pass over ``rng``'s stream.
    """
    if nrows < 0 or ncols <= 0:
        raise ValueError("bad matrix dimensions")
    if d < 0.5:
        raise ValueError("d must be >= 0.5 (mean gap >= 1)")
    max_gap = max(int(round(2 * d)), 1)
    indptr, indices = _gap_uniform_rows(nrows, ncols, max_gap, rng)
    nnz = int(indptr[-1])
    if values == "uniform":
        vals = rng.uniform(-1.0, 1.0, size=nnz)
    elif values == "ones":
        vals = np.ones(nnz)
    else:
        raise ValueError(f"unknown values distribution {values!r}")
    return CSRBlock(nrows=nrows, ncols=ncols, indptr=indptr,
                    indices=indices, values=vals)


def expected_nnz(nrows: int, ncols: int, d: float) -> float:
    """Expected nonzero count of :func:`gap_uniform_csr`."""
    max_gap = max(int(round(2 * d)), 1)
    return nrows * ncols / ((max_gap + 1) / 2.0)


def symmetric_test_matrix(
    n: int,
    nnz_per_row: float,
    rng: np.random.Generator,
    *,
    diag_shift: float = 0.0,
) -> CSRBlock:
    """A random symmetric matrix with a controllable spectrum floor.

    Built as (R + R^T)/2 from a gap-uniform R, plus ``diag_shift`` x I; with
    a positive shift exceeding the Gershgorin radius it is positive
    definite — handy for Lanczos convergence tests.
    """
    d = choose_gap_parameter(n, max(nnz_per_row / 2.0, 1.0))
    r = gap_uniform_csr(n, n, d, rng).to_scipy()
    m = (r + r.T) * 0.5
    if diag_shift:
        m = m + sp.identity(n) * diag_shift
    return CSRBlock.from_scipy(m)
