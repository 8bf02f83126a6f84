"""Binary CRS file format for sub-matrix storage.

Layout (little-endian); ``w`` is the index width the header names, 4
whenever ``max(nrows, ncols, nnz) < 2**31`` and 8 otherwise:

=========  =========  =============================================
offset     dtype      field
=========  =========  =============================================
0          8s         magic ``b"DOOCCSR2"``
8          i64        nrows
16         i64        ncols
24         i64        nnz
32         i64        index width ``w`` (4 or 8)
40         i{w}[n+1]  indptr
...        i{w}[nnz]  indices
...        u8[0..7]   zero padding, so that ``values`` starts 8-aligned
...        f64[nnz]   values
=========  =========  =============================================

Both index arrays have the one width: the in-place kernel
(:func:`repro.spmv.csr.matvec_into`) multiplies by them where they lie,
and SciPy's kernel takes one index type.  A buffer of the earlier format,
magic ``b"DOOCCSR1"`` (int64 indices, no width field), is refused by name
with a :class:`~repro.spmv.csr.CSRError` that says to re-seed it, as
chunks and checkpoints of earlier formats are.

The same byte layout doubles as the in-memory serialization used to park a
sub-matrix in a DOoC global array (one uint8 block), so the storage layer
stays agnostic of matrix structure — it only ever moves untyped bytes, as
DataCutter intends.  Compression is the storage layer's business: a
sub-matrix parked in a global array is encoded per block by the array's
codec (:mod:`repro.core.codecs`); a stand-alone CRS file is always bare.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from repro.spmv.csr import _INT32_LIMIT, CSRBlock, CSRError
from repro.util.atomicio import atomic_write

MAGIC = b"DOOCCSR2"
_HEADER = struct.Struct("<8sqqqq")


def index_width(nrows: int, ncols: int, nnz: int) -> int:
    """Bytes per index a file of this shape stores: 4 when every index
    and row pointer fits an int32, else 8."""
    return 4 if max(nrows, ncols, nnz) < _INT32_LIMIT else 8


def _offsets(start: int, nrows: int, nnz: int, width: int):
    """(indices, values, end) byte offsets of a payload after ``start``."""
    indices = start + width * (nrows + 1)
    values = indices + width * nnz
    values += -values % 8
    return indices, values, values + 8 * nnz


def csr_nbytes(nrows: int, ncols: int, nnz: int) -> int:
    """Size in bytes of the serialized form."""
    return _offsets(_HEADER.size, nrows, nnz,
                    index_width(nrows, ncols, nnz))[2]


def serialize_csr(block: CSRBlock) -> np.ndarray:
    """Serialize to the binary CRS layout: one uint8 buffer, each field
    cast into its place (no per-field ``bytes`` to join)."""
    nrows, ncols, nnz = block.nrows, block.ncols, block.nnz
    width = index_width(nrows, ncols, nnz)
    indices, values, end = _offsets(_HEADER.size, nrows, nnz, width)
    out = np.zeros(end, dtype=np.uint8)  # the padding stays zero
    _HEADER.pack_into(out, 0, MAGIC, nrows, ncols, nnz, width)
    index = f"<i{width}"
    out[_HEADER.size:indices].view(index)[:] = block.indptr
    out[indices:indices + width * nnz].view(index)[:] = block.indices
    out[values:].view("<f8")[:] = block.values
    return out


def _parse_header(head, what: str) -> tuple[int, int, int, int, int]:
    """``(nrows, ncols, nnz, width, header bytes)`` of a ``DOOCCSR2``
    header."""
    magic = bytes(head[:8])
    if magic == b"DOOCCSR1":
        raise CSRError(f"{what} has the format before the index width "
                       f"({magic!r}, want {MAGIC!r}); re-seed the sub-matrix")
    if magic == MAGIC and len(head) >= _HEADER.size:
        _, nrows, ncols, nnz, width = _HEADER.unpack_from(head, 0)
        if width not in (4, 8):
            raise CSRError(f"{what} names index width {width}; want 4 or 8")
        return nrows, ncols, nnz, width, _HEADER.size
    if magic == MAGIC or len(head) < 8:
        raise CSRError(f"{what} too short for a CRS header")
    raise CSRError(f"bad magic {magic!r}; {what} is not a binary CRS buffer")


def deserialize_csr(raw) -> CSRBlock:
    """Parse the binary CRS layout (accepts bytes or a uint8 ndarray).

    The three arrays are views of ``raw``, in the width the file stores
    (no copy); ``values`` is 8-aligned wherever ``raw`` is.
    """
    buf = memoryview(np.asarray(raw, dtype=np.uint8)).cast("B") \
        if isinstance(raw, np.ndarray) else memoryview(raw)
    nrows, ncols, nnz, width, start = _parse_header(buf, "buffer")
    indices, values, expected = _offsets(start, nrows, nnz, width)
    if len(buf) < expected:
        raise CSRError(
            f"buffer has {len(buf)} bytes; header promises {expected}"
        )
    index = f"<i{width}"
    return CSRBlock(
        nrows=nrows, ncols=ncols,
        indptr=np.frombuffer(buf, dtype=index, count=nrows + 1, offset=start),
        indices=np.frombuffer(buf, dtype=index, count=nnz, offset=indices),
        values=np.frombuffer(buf, dtype="<f8", count=nnz, offset=values))


def write_csr_file(path: str | Path, block: CSRBlock) -> int:
    """Write a sub-matrix file; returns bytes written.

    Goes through :func:`atomic_write` so a crash mid-write can never
    leave a torn file that passes the magic check but truncates the
    payload — readers see the old complete file or the new complete file.
    """
    data = serialize_csr(block)
    atomic_write(Path(path), data)
    return len(data)


def read_csr_file(path: str | Path) -> CSRBlock:
    """Read a sub-matrix file."""
    return deserialize_csr(Path(path).read_bytes())


def peek_csr_header(path: str | Path) -> tuple[int, int, int]:
    """(nrows, ncols, nnz) without reading the payload arrays."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
    return _parse_header(head, str(path))[:3]
