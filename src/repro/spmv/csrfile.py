"""Binary CRS file format for sub-matrix storage.

Layout (little-endian):

=========  ======  =====================================
offset     dtype   field
=========  ======  =====================================
0          8s      magic ``b"DOOCCSR1"``
8          i64     nrows
16         i64     ncols
24         i64     nnz
32         i64[n+1]  indptr
...        i64[nnz]  indices
...        f64[nnz]  values
=========  ======  =====================================

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

from repro.spmv.csr import CSRBlock, CSRError
from repro.util.atomicio import atomic_write

MAGIC = b"DOOCCSR1"
_HEADER = struct.Struct("<8sqqq")


def csr_nbytes(nrows: int, nnz: int) -> int:
    """Size in bytes of the serialized form."""
    return _HEADER.size + 8 * (nrows + 1) + 8 * nnz + 8 * nnz


def serialize_csr(block: CSRBlock) -> bytes:
    """Serialize to the binary CRS layout."""
    header = _HEADER.pack(MAGIC, block.nrows, block.ncols, block.nnz)
    return b"".join(
        [
            header,
            np.ascontiguousarray(block.indptr, dtype="<i8").tobytes(),
            np.ascontiguousarray(block.indices, dtype="<i8").tobytes(),
            np.ascontiguousarray(block.values, dtype="<f8").tobytes(),
        ]
    )


def deserialize_csr(raw) -> CSRBlock:
    """Parse the binary CRS layout (accepts bytes or a uint8 ndarray).

    Array views are taken zero-copy when the buffer alignment allows.
    """
    buf = memoryview(np.asarray(raw, dtype=np.uint8)).cast("B") \
        if isinstance(raw, np.ndarray) else memoryview(raw)
    if len(buf) < _HEADER.size:
        raise CSRError("buffer too short for a CRS header")
    magic, nrows, ncols, nnz = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise CSRError(f"bad magic {magic!r}; not a binary CRS buffer")
    expected = csr_nbytes(nrows, nnz)
    if len(buf) < expected:
        raise CSRError(
            f"buffer has {len(buf)} bytes; header promises {expected}"
        )
    off = _HEADER.size
    indptr = np.frombuffer(buf, dtype="<i8", count=nrows + 1, offset=off)
    off += 8 * (nrows + 1)
    indices = np.frombuffer(buf, dtype="<i8", count=nnz, offset=off)
    off += 8 * nnz
    values = np.frombuffer(buf, dtype="<f8", count=nnz, offset=off)
    return CSRBlock(nrows=nrows, ncols=ncols,
                    indptr=indptr, indices=indices, values=values)


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
    if len(head) < _HEADER.size:
        raise CSRError(f"{path} too short for a CRS header")
    magic, nrows, ncols, nnz = _HEADER.unpack(head)
    if magic != MAGIC:
        raise CSRError(f"{path} is not a binary CRS file")
    return nrows, ncols, nnz
