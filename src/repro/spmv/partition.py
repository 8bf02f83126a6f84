"""K x K grid partitioning of matrices and conforming vector partitions.

"The A matrix ... is partitioned into sub-matrices of a K*K square grid,
such that each sub-matrix is small enough to fit into the local memory
available to a compute node along with the necessary input and output
vectors.  Each sub-matrix is labeled by its coordinates on the grid."
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from collections.abc import Callable, Iterator
from typing import Dict

import numpy as np

from repro.spmv.csr import CSRBlock
from repro.spmv.generator import gap_uniform_csr


def split_bounds(n: int, parts: int) -> np.ndarray:
    """parts+1 boundaries splitting range(n) as evenly as possible."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if n < parts:
        raise ValueError(f"cannot split {n} rows into {parts} parts")
    return np.linspace(0, n, parts + 1).astype(np.int64)


@dataclass(frozen=True)
class GridPartition:
    """A K x K partition of an n x n matrix (bounds shared by rows/cols,
    so the vector partition conforms to both the input and output sides)."""

    n: int
    k: int

    def __post_init__(self) -> None:
        _ = self.bounds  # validates n and k, and computes the bounds once

    @cached_property
    def bounds(self) -> np.ndarray:
        """The k+1 part boundaries (read-only: every caller shares them)."""
        b = split_bounds(self.n, self.k)
        b.flags.writeable = False
        return b

    def part_range(self, u: int) -> tuple[int, int]:
        if not 0 <= u < self.k:
            raise ValueError(f"part {u} outside 0..{self.k - 1}")
        b = self.bounds
        return int(b[u]), int(b[u + 1])

    def part_length(self, u: int) -> int:
        lo, hi = self.part_range(u)
        return hi - lo

    def coords(self) -> Iterator[tuple[int, int]]:
        for u in range(self.k):
            for v in range(self.k):
                yield u, v

    # -- matrix splitting --------------------------------------------------------

    def split_matrix(self, matrix: CSRBlock) -> dict[tuple[int, int], CSRBlock]:
        """Cut a global matrix into its K x K sub-matrices."""
        if matrix.shape != (self.n, self.n):
            raise ValueError(
                f"matrix shape {matrix.shape} != partition size {(self.n, self.n)}"
            )
        m = matrix.to_scipy()
        out: dict[tuple[int, int], CSRBlock] = {}
        b = self.bounds
        for u, v in self.coords():
            sub = m[b[u]:b[u + 1], b[v]:b[v + 1]]
            out[(u, v)] = CSRBlock.from_scipy(sub)
        return out

    def split_vector(self, x: np.ndarray) -> dict[int, np.ndarray]:
        if x.shape != (self.n,):
            raise ValueError(f"vector shape {x.shape} != ({self.n},)")
        b = self.bounds
        return {u: np.asarray(x[b[u]:b[u + 1]], dtype=np.float64)
                for u in range(self.k)}

    def join_vector(self, parts: dict[int, np.ndarray]) -> np.ndarray:
        return np.concatenate([parts[u] for u in range(self.k)])

    # -- direct generation ----------------------------------------------------------

    def generate_submatrices(
        self,
        d: float,
        rng_for: Callable[[int, int], np.random.Generator],
    ) -> dict[tuple[int, int], CSRBlock]:
        """Generate the grid directly sub-matrix by sub-matrix.

        This is how the testbed builds matrices too large to ever form
        globally: "larger matrices are built by replicating the matrix
        block generated for a compute node" — here each (u, v) gets its own
        seeded stream via ``rng_for`` so blocks differ but are reproducible.
        """
        out: dict[tuple[int, int], CSRBlock] = {}
        for u, v in self.coords():
            out[(u, v)] = gap_uniform_csr(
                self.part_length(u), self.part_length(v), d, rng_for(u, v)
            )
        return out


def column_owner(k: int, n_nodes: int) -> Callable[[int, int], int]:
    """The Fig. 5 placement: node j owns grid column block j.

    Columns are distributed round-robin in contiguous runs when k is a
    multiple of n_nodes (the paper's 5x5-per-node arrangement uses
    k = 5 * sqrt(nodes)).
    """
    if k % n_nodes != 0 and n_nodes != k:
        raise ValueError(f"k={k} not divisible into {n_nodes} column groups")
    per = k // n_nodes

    def owner(u: int, v: int) -> int:
        return min(v // per, n_nodes - 1)

    return owner


def block_owner(k: int, grid_nodes: int) -> Callable[[int, int], int]:
    """The testbed placement: nodes form a sqrt(N) x sqrt(N) grid, each
    owning a (k/sqrt(N)) x (k/sqrt(N)) block of sub-matrices."""
    side = int(round(np.sqrt(grid_nodes)))
    if side * side != grid_nodes:
        raise ValueError(f"{grid_nodes} is not a perfect square")
    if k % side != 0:
        raise ValueError(f"k={k} not divisible by node-grid side {side}")
    per = k // side

    def owner(u: int, v: int) -> int:
        return (u // per) * side + (v // per)

    return owner
