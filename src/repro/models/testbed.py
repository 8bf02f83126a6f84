"""SSD-testbed workload constants, the optimal-I/O bound, and Fig. 1 data.

Section V fixes the per-node workload: "each compute node is responsible
for a block of the matrix with 50 million rows and columns which contains
about 12.8 billion non-zero elements in total.  Each block ... is further
decomposed into 25 sub-matrices ... about 4 GBs" in binary CSR.  Runs do
4 SpMV iterations on a perfect-square number of nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.units import GB, KiB, MiB, GiB, TB


@dataclass(frozen=True)
class TestbedWorkload:
    """The per-node workload of Tables III/IV."""

    __test__ = False  # not a pytest class despite the name

    rows_per_node: int = 50 * 10**6
    nnz_per_node: float = 12.8e9
    submatrices_per_node: int = 25   # a 5 x 5 arrangement
    iterations: int = 4
    #: stored bytes per nonzero: 4-byte value + 4-byte column index, the
    #: layout that makes 12.8e9 nnz come to the paper's ~0.10 TB per node
    #: and ~4 GB per sub-matrix file
    bytes_per_nnz: int = 8

    def __post_init__(self) -> None:
        side = int(round(math.sqrt(self.submatrices_per_node)))
        if side * side != self.submatrices_per_node:
            raise ValueError("submatrices_per_node must be a perfect square")

    @property
    def local_grid_side(self) -> int:
        return int(round(math.sqrt(self.submatrices_per_node)))

    @property
    def bytes_per_node(self) -> float:
        """Matrix bytes stored per node (~0.10 TB: Table III row 1).

        Row pointers are negligible at ~256 nnz per row.
        """
        return self.nnz_per_node * self.bytes_per_nnz

    @property
    def submatrix_bytes(self) -> float:
        """~4 GB per sub-matrix file."""
        return self.bytes_per_node / self.submatrices_per_node

    @property
    def subvector_rows(self) -> int:
        """Rows of one sub-vector (a node row-block split 5 ways)."""
        return self.rows_per_node // self.local_grid_side

    @property
    def subvector_bytes(self) -> float:
        return self.subvector_rows * 8.0

    def matrix_dimension(self, nodes: int) -> int:
        """Global matrix dimension: nodes tile a 2-D block decomposition,
        so D grows with sqrt(nodes) (Table III: 50M at 1 node, 300M at 36)
        while nnz grows with the node count (area)."""
        side = int(round(math.sqrt(nodes)))
        if side * side != nodes:
            raise ValueError(f"{nodes} is not a perfect square")
        return self.rows_per_node * side

    def total_nnz(self, nodes: int) -> float:
        return self.nnz_per_node * nodes

    def total_bytes(self, nodes: int) -> float:
        return self.bytes_per_node * nodes

    def flops(self, nodes: int) -> float:
        """Total flops of the full run (2 per nonzero per iteration)."""
        return 2.0 * self.total_nnz(nodes) * self.iterations

    def grid_k(self, nodes: int) -> int:
        """Global grid side: 5 * sqrt(nodes)."""
        side = int(round(math.sqrt(nodes)))
        if side * side != nodes:
            raise ValueError(f"{nodes} is not a perfect square")
        return side * self.local_grid_side


def optimal_io_seconds(total_bytes: float, iterations: int,
                       peak_bytes_per_s: float = 20 * GB) -> float:
    """Fig. 6's denominator: "minimum time required to acquire the data
    assuming peak 20GB/s is sustained" — every iteration re-reads the
    matrix once."""
    if total_bytes < 0 or iterations < 1 or peak_bytes_per_s <= 0:
        raise ValueError("bad optimal-I/O parameters")
    return total_bytes * iterations / peak_bytes_per_s


@dataclass(frozen=True)
class MemoryLayer:
    """One layer of Fig. 1's memory hierarchy."""

    name: str
    capacity_bytes: float
    latency_cycles: float
    bandwidth_bytes_per_s: float


#: Fig. 1: capacities and access latencies across the hierarchy, with the
#: "latency gap" between DRAM (~100 cycles) and disk (~10,000+ cycles).
MEMORY_HIERARCHY: tuple[MemoryLayer, ...] = (
    MemoryLayer("registers", 1 * KiB, 1, 1e12),
    MemoryLayer("cache", 8 * MiB, 10, 400e9),
    MemoryLayer("dram", 24 * GiB, 100, 30e9),
    MemoryLayer("ssd", 800 * GB, 3_000, 2e9),
    MemoryLayer("hdd", 2 * TB, 10_000, 0.15e9),
)
