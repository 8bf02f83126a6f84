"""Lanczos basis stores: where the O(k x D) Krylov vectors live.

Section II sizes the problem: for ¹⁴C at Nmax=10, "the amount of memory
required to store the H matrix together with the eigenvectors is estimated
to take up the entire 200 TBs of memory available on Hopper" — the basis
itself, not just the matrix, breaks the in-core approach.  The solver
therefore takes a pluggable basis store:

* :class:`InMemoryBasis` — the classical dense basis with vectorized
  two-pass reorthogonalization;
* :class:`DiskBasis` — one scratch file per Lanczos vector; the working
  memory is O(D) regardless of the iteration count.  Orthogonalization
  streams stored vectors through memory one at a time (two passes of
  classical Gram-Schmidt, the Kahan-Parlett "twice is enough" rule), and
  Ritz vectors are accumulated by a second streaming pass.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from pathlib import Path
from typing import Protocol

import numpy as np

from repro.core.array import ArrayDesc
from repro.core.iofilter import (
    backing_identity,
    delete_array_file,
    read_array,
    write_array,
)


class BasisStore(Protocol):  # pragma: no cover - typing aid
    """What the Lanczos driver needs from a basis container."""

    def append(self, v: np.ndarray) -> None: ...
    def orthogonalize(self, w: np.ndarray, *, passes: int = 2) -> np.ndarray: ...
    def combine(self, coefficients: np.ndarray) -> np.ndarray: ...
    def __len__(self) -> int: ...
    def last(self, back: int = 1) -> np.ndarray: ...


class InMemoryBasis:
    """Dense basis rows in RAM (the fast default)."""

    def __init__(self, n: int, capacity: int):
        if capacity < 1 or n < 1:
            raise ValueError("capacity and n must be >= 1")
        self._rows = np.zeros((capacity, n), dtype=np.float64)
        self._count = 0

    def append(self, v: np.ndarray) -> None:
        if self._count >= self._rows.shape[0]:
            raise ValueError("basis capacity exceeded")
        self._rows[self._count] = v
        self._count += 1

    def __len__(self) -> int:
        return self._count

    def last(self, back: int = 1) -> np.ndarray:
        if not 1 <= back <= self._count:
            raise IndexError(f"no vector {back} from the end")
        return self._rows[self._count - back]

    def orthogonalize(self, w: np.ndarray, *, passes: int = 2) -> np.ndarray:
        active = self._rows[: self._count]
        for _ in range(passes):
            w = w - active.T @ (active @ w)
        return w

    def combine(self, coefficients: np.ndarray) -> np.ndarray:
        if coefficients.shape[0] != self._count:
            raise ValueError("coefficient length != basis size")
        return self._rows[: self._count].T @ coefficients


class DiskBasis:
    """One binary scratch file per Lanczos vector; O(D) working memory.

    The in-RAM footprint is a single vector at a time, whatever the
    iteration count — the property that makes a 99-iteration run on a
    billion-dimensional basis feasible on nodes with ~1 GB per core.
    """

    def __init__(self, n: int, *, scratch_dir: str | Path | None = None,
                 block_elems: int = 2**16, cache_last: int = 2):
        if n < 1:
            raise ValueError("n must be >= 1")
        if cache_last < 1:
            raise ValueError("cache_last must be >= 1 (Lanczos needs v_j)")
        self.n = n
        if scratch_dir is None:
            # mkdtemp + silent finalizer: bases live until garbage
            # collection, and TemporaryDirectory's implicit-cleanup warning
            # fails suites running under ``-W error::ResourceWarning``.
            scratch_dir = tempfile.mkdtemp(prefix="lanczos-basis-")
            weakref.finalize(self, shutil.rmtree, scratch_dir, True)
        self.scratch = Path(scratch_dir)
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.block_elems = block_elems
        self._count = 0
        # Small hot cache: the recurrence touches v_j and v_{j-1} every
        # step; keeping them resident avoids 2 reads per iteration.
        self._cache: dict[int, np.ndarray] = {}
        self._cache_last = cache_last
        self.reads = 0
        self.writes = 0

    def _desc(self, index: int) -> ArrayDesc:
        return ArrayDesc(f"q{index}", length=self.n,
                         block_elems=self.block_elems)

    def _load(self, index: int) -> np.ndarray:
        if index in self._cache:
            return self._cache[index]
        self.reads += 1
        return read_array(self.scratch, self._desc(index))

    def append(self, v: np.ndarray) -> None:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n,):
            raise ValueError(f"vector has shape {v.shape}, want ({self.n},)")
        write_array(self.scratch, self._desc(self._count), v)
        self.writes += 1
        self._cache[self._count] = v.copy()
        self._count += 1
        for stale in [i for i in self._cache
                      if i <= self._count - 1 - self._cache_last]:
            del self._cache[stale]

    def __len__(self) -> int:
        return self._count

    def reattach(self, count: int) -> None:
        """Adopt ``count`` vectors already on disk (checkpoint restart).

        A resumed Lanczos run reopens the scratch directory of the
        interrupted one; the vector files are write-once, so trusting them
        is exactly the engine's lineage argument applied to the basis.
        The hot cache is dropped — the next access re-reads from disk.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        for i in range(count):
            if backing_identity(self.scratch, f"q{i}") is None:
                raise FileNotFoundError(
                    f"basis vector {i} missing from {self.scratch}")
        self._count = count
        self._cache.clear()

    def last(self, back: int = 1) -> np.ndarray:
        if not 1 <= back <= self._count:
            raise IndexError(f"no vector {back} from the end")
        return self._load(self._count - back)

    def orthogonalize(self, w: np.ndarray, *, passes: int = 2) -> np.ndarray:
        """Stream every stored vector past ``w`` (classical Gram-Schmidt,
        ``passes`` sweeps)."""
        w = np.asarray(w, dtype=np.float64)
        for _ in range(passes):
            for i in range(self._count):
                q = self._load(i)
                w = w - (q @ w) * q
        return w

    def combine(self, coefficients: np.ndarray) -> np.ndarray:
        """sum_i c_i q_i by streaming accumulation."""
        coefficients = np.asarray(coefficients, dtype=np.float64)
        if coefficients.shape[0] != self._count:
            raise ValueError("coefficient length != basis size")
        out = np.zeros(self.n)
        for i in range(self._count):
            out += coefficients[i] * self._load(i)
        return out

    def cleanup(self) -> None:
        """Remove the backing files (idempotent)."""
        for i in range(self._count):
            delete_array_file(self.scratch, f"q{i}")
