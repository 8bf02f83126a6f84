"""The simulated machine: nodes, fabric, and filesystem service.

``SimCluster`` instantiates, for a :class:`~repro.cluster.spec.ClusterSpec`:

* per compute node — a core :class:`~repro.sim.primitives.Resource`, a pair
  of duplex NIC links (tx / rx), and a GPFS *client* link capping the node's
  streaming ingest (GPFS client-side protocol overhead; see DESIGN.md §5);
* a single *storage aggregate* link whose capacity is the deliverable
  filesystem bandwidth (hardware peak x efficiency);
* a shared max-min-fair :class:`~repro.sim.flow.FlowNetwork` carrying both
  filesystem reads and node-to-node transfers, so heavy GPFS traffic
  "encumbers the network for other traffic" exactly as Section VI warns.

Filesystem reads traverse ``[storage_agg, node.rx, node.fs_client]``; a
message from A to B traverses ``[A.tx, B.rx]``.  Per-read service time is
jittered log-normally (shared-GPFS variation, Section V).

Each finished activity is one span on the cluster's
:class:`repro.obs.Tracer`, in the engine's event vocabulary with simulated
seconds as timestamps: node ``i`` is pid ``i``, the lane is the activity
(``io`` / ``compute`` / ``send`` / ``recv``) and ``args["label"]`` is what
the application called it.  A read is ``storage/load`` (``sched/prefetch``
when labelled ``"prefetch"``), a computation ``task/task``, and a message
``storage/fetch_remote`` on both the source's and the destination's lane.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.obs.tracer import Tracer
from repro.sim.flow import FlowNetwork, Link
from repro.sim.kernel import Environment, Event
from repro.sim.primitives import Resource
from repro.util.rng import RngTree


@dataclass
class SimNode:
    """Runtime handle for one simulated compute node."""

    index: int
    name: str
    cores: Resource
    tx: Link
    rx: Link
    fs_client: Link
    dram_bytes: int
    spmv_flops_per_core: float
    bytes_read: float = 0.0
    bytes_sent: float = 0.0
    #: summed read service time; concurrent reads count twice here — the
    #: union is ``repro.obs.span_union_seconds`` over the tracer's "io" lane
    io_busy: float = 0.0
    #: receive-side message-processing bottleneck (storage-filter path):
    #: deserialization + buffer copies + request handling per inbound
    #: vector buffer; None disables it
    vec_service: Link | None = None
    #: node-local SSD cards (Section VI-A colocated configuration)
    local_ssd: Link | None = None
    _rng: np.random.Generator | None = field(default=None, repr=False)


class SimCluster:
    """Executable model of a cluster for the DES kernel.

    ``tracer`` receives one span per finished read, computation and
    message (see the module docstring for the event names); without one
    nothing is recorded.
    """

    def __init__(
        self,
        env: Environment,
        spec: ClusterSpec,
        *,
        rng: RngTree | None = None,
        tracer: Tracer | None = None,
        nodes_in_use: int | None = None,
        vector_service_bytes_per_s: float | None = None,
    ):
        if nodes_in_use is not None and not 1 <= nodes_in_use <= spec.compute_nodes:
            raise ValueError(
                f"nodes_in_use={nodes_in_use} outside 1..{spec.compute_nodes}"
            )
        self.env = env
        self.spec = spec
        self.rng = rng or RngTree(0)
        self.tracer = tracer or Tracer(enabled=False)
        self.network = FlowNetwork(env)
        self.n_nodes = nodes_in_use or spec.compute_nodes

        self.storage_agg: Link | None = None
        if spec.io_nodes:
            clients = nodes_in_use or spec.compute_nodes
            self.storage_agg = Link(
                "storage-aggregate",
                spec.peak_storage_bytes_per_s
                * spec.filesystem.aggregate_efficiency(clients),
            )

        self.nodes: list[SimNode] = []
        for i in range(self.n_nodes):
            name = f"n{i}"
            self.nodes.append(
                SimNode(
                    index=i,
                    name=name,
                    cores=Resource(env, capacity=spec.node.cores),
                    tx=Link(f"{name}.tx", spec.node.nic_bytes_per_s),
                    rx=Link(f"{name}.rx", spec.node.nic_bytes_per_s),
                    fs_client=Link(
                        f"{name}.fsclient", spec.filesystem.client_bytes_per_s
                    ),
                    vec_service=(
                        Link(f"{name}.vecsvc", vector_service_bytes_per_s)
                        if vector_service_bytes_per_s else None
                    ),
                    local_ssd=(
                        Link(f"{name}.ssd", spec.node.local_ssd_bytes_per_s)
                        if spec.node.local_ssd_bytes_per_s > 0 else None
                    ),
                    dram_bytes=spec.node.dram_bytes,
                    spmv_flops_per_core=spec.node.spmv_flops_per_core,
                    _rng=self.rng.child("node-jitter", i),
                )
            )

    # -- filesystem --------------------------------------------------------

    def _jitter(self, node: SimNode) -> float:
        """Multiplicative service-time factor for one filesystem read."""
        cv = self.spec.filesystem.jitter_cv
        if cv <= 0:
            return 1.0
        # Log-normal with unit mean and the requested coefficient of variation.
        sigma2 = np.log1p(cv * cv)
        return float(node._rng.lognormal(mean=-sigma2 / 2, sigma=np.sqrt(sigma2)))

    def fs_read(self, node_index: int, nbytes: float, label: str = "read") -> Event:
        """Read ``nbytes`` from the storage system into a node.

        Shared-filesystem clusters route through [aggregate, NIC, client];
        colocated-SSD nodes (Section VI-A) read straight off their local
        cards.  Effective bytes are inflated by the per-read jitter factor
        so that slow reads occupy the shared links longer — which is what
        makes barriers amplify stragglers.
        """
        node = self.nodes[node_index]
        if self.storage_agg is not None:
            route = [self.storage_agg, node.rx, node.fs_client]
        elif node.local_ssd is not None:
            route = [node.local_ssd]
        else:
            raise RuntimeError(f"cluster {self.spec.name!r} has no storage system")
        effective = nbytes * self._jitter(node)
        start = self.env.now
        done = self.env.event()

        def finish(ev: Event) -> None:
            node.bytes_read += nbytes
            node.io_busy += self.env.now - start
            if label == "prefetch":
                self.tracer.complete(node.index, "io", "sched", "prefetch",
                                     start, end=self.env.now, label=label)
            else:
                self.tracer.complete(node.index, "io", "storage", "load",
                                     start, end=self.env.now, label=label)
            done.succeed(self.env.now - start)

        def start_flow(ev: Event | None) -> None:
            flow_done = self.network.transfer(route, effective)
            flow_done.callbacks.append(finish)  # type: ignore[union-attr]

        latency = self.spec.filesystem.open_latency_s
        if latency > 0:
            self.env.timeout(latency).callbacks.append(start_flow)  # type: ignore[union-attr]
        else:
            start_flow(None)
        return done

    # -- node-to-node messaging ---------------------------------------------

    def send(
        self, src_index: int, dst_index: int, nbytes: float, label: str = "msg",
        *, flow_cap: float | None = None, via_service: bool = False,
    ) -> Event:
        """Transfer bytes from one node to another over the fabric.

        ``flow_cap`` bounds this single flow's rate (models the effective
        point-to-point bandwidth of the message-passing layer, below the
        raw link rate) by threading the flow through a private link.
        ``via_service`` additionally routes through the destination's
        receive-side message-processing link (when the cluster has one).
        """
        if src_index == dst_index:
            done = self.env.event()
            done.succeed(0.0)  # intra-node: a memcpy we charge to compute
            return done
        src, dst = self.nodes[src_index], self.nodes[dst_index]
        start = self.env.now
        done = self.env.event()
        links = [src.tx, dst.rx]
        if via_service and dst.vec_service is not None:
            links.append(dst.vec_service)
        if flow_cap is not None:
            links.append(Link(f"flowcap-{src.name}-{dst.name}-{start}", flow_cap))
        flow_done = self.network.transfer(links, nbytes)

        def finish(ev: Event) -> None:
            src.bytes_sent += nbytes
            self.tracer.complete(src.index, "send", "storage", "fetch_remote",
                                 start, end=self.env.now, label=label)
            self.tracer.complete(dst.index, "recv", "storage", "fetch_remote",
                                 start, end=self.env.now, label=label)
            done.succeed(self.env.now - start)

        flow_done.callbacks.append(finish)  # type: ignore[union-attr]
        return done

    # -- computation ---------------------------------------------------------

    def compute(
        self, node_index: int, flops: float, *, cores: int = 1, label: str = "compute"
    ):
        """Process generator: run ``flops`` of work on ``cores`` cores.

        Yields inside; use as ``yield env.process(cluster.compute(...))``.
        """
        node = self.nodes[node_index]
        if cores < 1 or cores > node.cores.capacity:
            raise ValueError(f"cores={cores} outside node capacity")
        req = yield node.cores.request(cores)
        start = self.env.now
        try:
            duration = flops / (cores * node.spmv_flops_per_core)
            yield self.env.timeout(duration)
        finally:
            node.cores.release(req)
        self.tracer.complete(node.index, "compute", "task", "task",
                             start, end=self.env.now, label=label)
        return self.env.now - start
