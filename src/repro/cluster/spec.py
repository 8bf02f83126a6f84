"""Hardware specifications and machine presets.

All constants in the presets come straight from the paper's Section II/V or
are derived from a single published measurement; each derivation is noted
inline so the calibration story stays auditable (see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.units import GB, GiB, gbit_to_bytes


@dataclass(frozen=True)
class NodeSpec:
    """A compute node."""

    name: str
    cores: int
    clock_hz: float
    dram_bytes: int
    #: effective SpMV rate per core in flop/s (memory-bound, not peak FP).
    spmv_flops_per_core: float
    nic_bytes_per_s: float
    #: aggregate read bandwidth of node-local SSD cards (0 = none); the
    #: paper's Section VI-A proposal puts the cards "on the compute nodes
    #: themselves"
    local_ssd_bytes_per_s: float = 0.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("node needs at least one core")
        if min(self.clock_hz, self.dram_bytes, self.spmv_flops_per_core,
               self.nic_bytes_per_s) <= 0:
            raise ValueError(f"non-positive node parameter in {self.name!r}")
        if self.local_ssd_bytes_per_s < 0:
            raise ValueError("local SSD bandwidth must be non-negative")


@dataclass(frozen=True)
class SSDSpec:
    """A flash storage card (e.g. Virident tachIOn 400 GB)."""

    name: str
    capacity_bytes: int
    read_bytes_per_s: float
    write_bytes_per_s: float
    latency_s: float = 50e-6

    def __post_init__(self) -> None:
        if min(self.capacity_bytes, self.read_bytes_per_s, self.write_bytes_per_s) <= 0:
            raise ValueError(f"non-positive SSD parameter in {self.name!r}")


@dataclass(frozen=True)
class IONodeSpec:
    """An I/O server node hosting SSD cards behind the parallel filesystem."""

    cards: int
    card: SSDSpec
    nic_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.cards < 1:
            raise ValueError("I/O node needs at least one card")

    @property
    def read_bytes_per_s(self) -> float:
        """Peak streaming read bandwidth of one I/O node."""
        return min(self.cards * self.card.read_bytes_per_s, self.nic_bytes_per_s)


@dataclass(frozen=True)
class FilesystemSpec:
    """Parallel-filesystem behaviour knobs (the GPFS model).

    ``efficiency`` scales the hardware peak down to the deliverable
    aggregate (the paper observes 18.5-18.7 of 20 GB/s => ~0.93).
    ``client_bytes_per_s`` caps a single client's streaming rate; derived
    from the paper's 1-node run (0.10 TB x 4 iters / 290 s ~ 1.4 GB/s
    with 0-13% non-I/O time).  ``jitter_cv`` is the coefficient of
    variation of per-read service time, modelling the "noticeable
    variation in read bandwidth" the paper attributes to the shared GPFS.
    """

    name: str = "gpfs"
    efficiency: float = 0.93
    client_bytes_per_s: float = 1.45 * GB
    jitter_cv: float = 0.10
    open_latency_s: float = 2e-3
    #: fractional loss of deliverable aggregate bandwidth per concurrent
    #: client: GPFS's dynamic striping/prefetch tuning degrades under many
    #: concurrent streaming readers (Section VI's complaint); calibrated on
    #: Table III's 25/36-node rows
    contention_loss_per_client: float = 0.004

    def __post_init__(self) -> None:
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        if self.client_bytes_per_s <= 0:
            raise ValueError("client bandwidth must be positive")
        if self.jitter_cv < 0:
            raise ValueError("jitter_cv must be non-negative")
        if not 0 <= self.contention_loss_per_client < 0.02:
            raise ValueError("contention loss per client out of range")

    def aggregate_efficiency(self, clients: int) -> float:
        """Effective efficiency with ``clients`` concurrent readers."""
        return self.efficiency * max(0.2, 1.0 - self.contention_loss_per_client * clients)


@dataclass(frozen=True)
class InterconnectSpec:
    """Point-to-point fabric (per-port bandwidth, per-message latency)."""

    name: str
    port_bytes_per_s: float
    latency_s: float

    def __post_init__(self) -> None:
        if self.port_bytes_per_s <= 0 or self.latency_s < 0:
            raise ValueError(f"bad interconnect parameters in {self.name!r}")


@dataclass(frozen=True)
class ClusterSpec:
    """A full machine: compute nodes, I/O nodes, fabric, filesystem."""

    name: str
    compute_nodes: int
    node: NodeSpec
    interconnect: InterconnectSpec
    io_nodes: int = 0
    io_node: IONodeSpec | None = None
    filesystem: FilesystemSpec = field(default_factory=FilesystemSpec)

    def __post_init__(self) -> None:
        if self.compute_nodes < 1:
            raise ValueError("cluster needs at least one compute node")
        if self.io_nodes and self.io_node is None:
            raise ValueError("io_nodes > 0 requires an io_node spec")

    @property
    def peak_storage_bytes_per_s(self) -> float:
        """Hardware aggregate read bandwidth of the storage system."""
        if self.io_node is None:
            return 0.0
        return self.io_nodes * self.io_node.read_bytes_per_s

    @property
    def deliverable_storage_bytes_per_s(self) -> float:
        """Peak scaled by filesystem efficiency (what clients can see)."""
        return self.peak_storage_bytes_per_s * self.filesystem.efficiency

    @property
    def total_cores(self) -> int:
        return self.compute_nodes * self.node.cores


def carver_ssd_testbed(*, compute_nodes: int = 40) -> ClusterSpec:
    """The experimental SSD testbed on Carver (paper Section V).

    40 compute + 10 I/O nodes; 2x Intel Xeon X5550 (8 cores) @ 2.67 GHz and
    24 GB DDR3 per node; 4X QDR InfiniBand (32 Gb/s); each I/O node has two
    Virident tachIOn 400 GB cards at 1 GB/s sustained read each, for a
    20 GB/s system peak.  The per-core effective SpMV rate (0.34 Gflop/s,
    ~2.7 Gflop/s per node) is derived from Table III's 1-node row: 13% of
    290 s not overlapped with I/O matches 102 Gflop of un-overlapped SpMV
    at that rate — memory-bound SpMV on Nehalem-era DDR3.
    """
    node = NodeSpec(
        name="carver-compute",
        cores=8,
        clock_hz=2.67e9,
        dram_bytes=24 * GiB,
        spmv_flops_per_core=0.34e9,
        nic_bytes_per_s=gbit_to_bytes(32.0),
    )
    card = SSDSpec(
        name="virident-tachion-400",
        capacity_bytes=400 * GB,
        read_bytes_per_s=1.0 * GB,
        write_bytes_per_s=0.9 * GB,
    )
    io_node = IONodeSpec(cards=2, card=card, nic_bytes_per_s=gbit_to_bytes(32.0))
    return ClusterSpec(
        name="carver-ssd-testbed",
        compute_nodes=compute_nodes,
        node=node,
        interconnect=InterconnectSpec(
            name="4x-qdr-infiniband",
            port_bytes_per_s=gbit_to_bytes(32.0),
            latency_s=2e-6,
        ),
        io_nodes=10,
        io_node=io_node,
        filesystem=FilesystemSpec(),
    )


def carver_colocated_ssd(*, compute_nodes: int = 40) -> ClusterSpec:
    """The Section VI-A future-work configuration: the same testbed, but
    with the two tachIOn cards on each *compute* node.

    Sub-matrix reads come off the local PCIe cards (2 GB/s per node, no
    shared-filesystem client cap, no aggregate ceiling, no jitter from
    other tenants); the InfiniBand fabric carries only vector traffic.
    """
    base = carver_ssd_testbed(compute_nodes=compute_nodes)
    import dataclasses

    node = dataclasses.replace(base.node, name="carver-colocated",
                               local_ssd_bytes_per_s=2.0 * GB)
    return dataclasses.replace(
        base,
        name="carver-colocated-ssd",
        node=node,
        io_nodes=0,
        io_node=None,
        filesystem=FilesystemSpec(jitter_cv=0.0, open_latency_s=1e-4,
                                  contention_loss_per_client=0.0),
    )


def hopper(*, compute_nodes: int = 6384) -> ClusterSpec:
    """NERSC Hopper, the Cray XE6 of the in-core MFDn baseline.

    24 cores (2x 12-core AMD MagnyCours) and 32 GB per node, Gemini
    interconnect.  The effective per-core SpMV rate (0.1 Gflop/s,
    single-threaded MFDn v13-b02) is derived from Table II's test_1128 run:
    compute share of an iteration ~ 2.19 s over 1128 cores for 2 x 1.24e11
    flops.
    """
    node = NodeSpec(
        name="hopper-compute",
        cores=24,
        clock_hz=2.1e9,
        dram_bytes=32 * GiB,
        spmv_flops_per_core=0.1e9,
        nic_bytes_per_s=gbit_to_bytes(52.0),  # Gemini ~6.5 GB/s per direction
    )
    return ClusterSpec(
        name="hopper",
        compute_nodes=compute_nodes,
        node=node,
        interconnect=InterconnectSpec(
            name="cray-gemini",
            port_bytes_per_s=gbit_to_bytes(52.0),
            latency_s=1.5e-6,
        ),
    )
