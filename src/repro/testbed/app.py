"""Simulated out-of-core iterated SpMV on the SSD testbed.

One run reproduces one row of Table III (``policy="simple"``) or Table IV
(``policy="interleaved"``) — see Section V:

* each node owns a 5x5 arrangement of ~4 GB binary-CSR sub-matrix files
  and re-reads all of them from GPFS every iteration (the working set,
  100 GB/node, dwarfs the 24 GB DRAM);
* **simple** policy: each node performs its local SpMVs (load then
  multiply, no intra-iteration interleaving), a global synchronization,
  then every intermediate sub-vector travels to the row-owner node
  ("all the intermediate results are sent to the node that hosts
  A_{i,0}"), which reduces and redistributes; a second synchronization
  starts the next iteration;
* **interleaved** policy: loads are pipelined through a prefetch window
  and multiplies overlap them; each node *locally aggregates* a row's
  intermediates before communicating one partial per row; reductions and
  redistribution overlap the remaining I/O, and only the inter-iteration
  synchronization (Lanczos reorthogonalization) remains.

Per-(node, iteration) read-bandwidth jitter models the "noticeable
variation in read bandwidth observed by individual compute nodes" on the
shared GPFS; barriers amplify it into straggler time, which is what
separates the two policies' "non-overlapped" columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.machine import SimCluster
from repro.cluster.spec import ClusterSpec, carver_ssd_testbed
from repro.models.testbed import TestbedWorkload
from repro.obs.tracer import Tracer, span_union_seconds
from repro.sim.kernel import Environment
from repro.sim.primitives import Barrier, Resource
from repro.util.rng import RngTree
from repro.util.units import GB


@dataclass(frozen=True)
class TestbedParams:
    """Simulation knobs (calibration documented in DESIGN.md §5).

    The per-(node, iteration) GPFS bandwidth factor has coefficient of
    variation ``jitter_cv0 + jitter_cv_per_node * nodes``: server-side
    queueing on the shared filesystem makes individual clients' observed
    bandwidth increasingly erratic as more of them hammer it — the paper's
    "noticeable variation in read bandwidth observed by individual compute
    nodes".  Barriers turn that variation into straggler dead time, which
    is the dominant term separating Table III from Table IV.
    """

    __test__ = False  # not a pytest class despite the name

    #: sub-matrix buffers in flight per node (interleaved prefetch window)
    window: int = 4
    #: baseline CV of the per-(node, iteration) bandwidth factor
    jitter_cv0: float = 0.02
    #: CV growth per active client node
    jitter_cv_per_node: float = 0.008
    #: effective point-to-point bandwidth of one vector message
    per_flow_cap_bytes: float = 1.2 * GB
    #: receive-side processing bandwidth for inbound vector buffers
    #: (DataCutter storage-filter path: deserialize, copy, grant); this is
    #: what makes shipping 25 raw intermediates per node (simple policy)
    #: expensive while one aggregated partial per row (interleaved) hides
    #: under I/O
    vector_service_bytes_per_s: float = 0.5 * GB

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.jitter_cv0 < 0 or self.jitter_cv_per_node < 0:
            raise ValueError("jitter CVs must be non-negative")
        if self.per_flow_cap_bytes <= 0:
            raise ValueError("per-flow cap must be positive")

    def jitter_cv(self, nodes: int) -> float:
        return self.jitter_cv0 + self.jitter_cv_per_node * nodes


@dataclass(frozen=True)
class TestbedRow:
    """One row of Table III/IV."""

    __test__ = False  # not a pytest class despite the name

    nodes: int
    policy: str
    dimension: int
    nnz: float
    size_bytes: float
    time_s: float
    gflops: float
    read_bw_bytes_per_s: float
    non_overlapped_fraction: float
    cpu_hours_per_iteration: float
    #: sweeps the run simulated (``workload.iterations``): what turns
    #: ``time_s`` into seconds, CPU-hours or kWh *per iteration*
    iterations: int


class TruncatedTraceError(RuntimeError):
    """The tracer's ring overflowed during a simulated run, so the
    timeline the row's I/O columns are computed from is incomplete."""

    def __init__(self, dropped: dict[int, int], capacity: int):
        self.dropped = dict(dropped)
        lost = ", ".join(f"node {n} by {d}" for n, d in sorted(dropped.items()))
        super().__init__(
            f"trace ring of {capacity} events per node overflowed ({lost}); "
            "pass a Tracer with a larger capacity")


class _Counter:
    """Fires an event once ``target`` arrivals are recorded."""

    def __init__(self, env: Environment, target: int):
        self.env = env
        self.target = target
        self.count = 0
        self.event = env.event()
        if target == 0:
            self.event.succeed()

    def add(self, n: int = 1) -> None:
        self.count += n
        if self.count == self.target:
            self.event.succeed()
        elif self.count > self.target:  # pragma: no cover - defensive
            raise RuntimeError("counter overshot its target")


def run_testbed_spmv(
    nodes: int,
    policy: str = "simple",
    *,
    workload: TestbedWorkload = TestbedWorkload(),
    spec: ClusterSpec | None = None,
    params: TestbedParams = TestbedParams(),
    seed: int = 0,
    oversubscribe: int = 1,
    tracer: Tracer | None = None,
) -> TestbedRow:
    """Simulate one testbed run and return its table row.

    ``oversubscribe`` (a perfect square) places that many nodes' worth of
    data on each physical node — the Fig. 7 "star" runs the 36-node matrix
    on 9 nodes with ``oversubscribe=4``.

    The cluster records every read, multiply and transfer on ``tracer``
    in the engine's trace-event schema (simulated seconds as timestamps;
    export like a ``RunReport``'s trace), and the row's two I/O columns
    are computed from those events — so pass a fresh, enabled
    :class:`repro.obs.Tracer` to get the timeline, or none.  A ring that
    overflowed during the run raises :class:`TruncatedTraceError`
    instead of reporting bandwidth from a partial timeline.

    This is the model of Section V and nothing else: faults, node loss,
    codecs and worksets exist on the engine only (DESIGN.md §6).
    """
    if policy not in ("simple", "interleaved"):
        raise ValueError(f"unknown policy {policy!r}")
    side = int(round(math.sqrt(nodes)))
    if side * side != nodes:
        raise ValueError(f"node count {nodes} is not a perfect square")
    over_side = int(round(math.sqrt(oversubscribe)))
    if over_side * over_side != oversubscribe:
        raise ValueError(f"oversubscribe {oversubscribe} is not a perfect square")
    if tracer is None:
        tracer = Tracer()
    elif not tracer.enabled or tracer.events():
        raise ValueError(
            "tracer must be enabled and empty: the row's I/O columns are "
            "computed from the events this run records on it")

    if spec is None:
        spec = carver_ssd_testbed(compute_nodes=max(nodes, 1))
    env = Environment()
    rng = RngTree(seed)
    cluster = SimCluster(
        env, spec, rng=rng, tracer=tracer, nodes_in_use=nodes,
        vector_service_bytes_per_s=params.vector_service_bytes_per_s,
    )

    # Per-node workload (scaled when oversubscribed).
    local_side = workload.local_grid_side * over_side      # sub-rows per node
    subs_per_node = local_side * local_side                # files per node/iter
    sub_bytes = workload.submatrix_bytes
    vec_bytes = workload.subvector_bytes
    mult_flops = 2.0 * workload.nnz_per_node / workload.submatrices_per_node
    iterations = workload.iterations
    cores = spec.node.cores

    barrier = Barrier(env, nodes)
    jitter_rng = rng.child("node-iter-jitter")
    cv = params.jitter_cv(nodes)
    sigma2 = math.log1p(cv * cv) if cv > 0 else 0.0

    def phase_factor() -> float:
        if cv <= 0:
            return 1.0
        return float(jitter_rng.lognormal(mean=-sigma2 / 2,
                                          sigma=math.sqrt(sigma2)))

    def owner_of(node: int) -> int:
        """Row-owner: first node of the node's grid row."""
        return (node // side) * side

    def column_nodes(node: int) -> list[int]:
        """Nodes of the node-column matching this owner's node-row."""
        row_i = node // side
        return [r * side + row_i for r in range(side)]

    # (iteration, owner) -> arrivals of reduction inputs
    reduce_counters: dict[tuple[int, int], _Counter] = {}
    inputs_per_owner = {
        # every raw intermediate from the other nodes of the row
        "simple": subs_per_node * (side - 1),
        # one locally-aggregated partial per sub-row per node (owner included)
        "interleaved": local_side * side,
    }[policy]
    for it in range(iterations):
        for owner in range(0, nodes, side):
            reduce_counters[(it, owner)] = _Counter(env, inputs_per_owner)

    flow_cap = params.per_flow_cap_bytes

    def send_vectors(src: int, dst: int, count: int, label: str):
        """Transfer ``count`` sub-vectors; returns when all arrive."""
        events = [
            cluster.send(src, dst, vec_bytes, label=label, flow_cap=flow_cap,
                         via_service=True)
            for _ in range(count)
        ]
        yield env.all_of(events)

    def node_simple(node: int):
        for it in range(iterations):
            factor = phase_factor()
            # Phase 1: local SpMVs, load then multiply (no interleaving).
            for _ in range(subs_per_node):
                yield cluster.fs_read(node, sub_bytes * factor, label="sub")
                yield env.process(cluster.compute(
                    node, mult_flops, cores=cores, label="mult"))
            yield barrier.wait()
            # Phase 2: ship raw intermediates to the row owner.
            owner = owner_of(node)
            counter = reduce_counters[(it, owner)]
            if node != owner:
                yield env.process(send_vectors(
                    node, owner, subs_per_node, "intermediate"))
                counter.add(subs_per_node)
            else:
                # Owner: wait for everyone, reduce, redistribute.
                yield counter.event
                reduce_flops = (local_side * vec_bytes / 8.0) * (
                    local_side * side - 1)
                yield env.process(cluster.compute(
                    node, reduce_flops, cores=cores, label="reduce"))
                sends = []
                for dst in column_nodes(node):
                    sends.append(env.process(send_vectors(
                        node, dst, local_side, "xnew")))
                yield env.all_of(sends)
            yield barrier.wait()

    def node_interleaved(node: int):
        owner = owner_of(node)
        prefetched = 0  # sub-matrices of the upcoming iteration already read
        for it in range(iterations):
            factor = phase_factor()
            slots = Resource(env, capacity=params.window)
            counter = reduce_counters[(it, owner)]
            row_done = [_Counter(env, local_side) for _ in range(local_side)]
            work_done = _Counter(env, subs_per_node)

            def mult_then_rowsum(req, k, counter=counter, row_done=row_done,
                                 work_done=work_done):
                yield env.process(cluster.compute(
                    node, mult_flops, cores=cores, label="mult"))
                slots.release(req)
                u_loc = k // local_side
                row_done[u_loc].add()
                if row_done[u_loc].count == local_side:
                    # Local aggregation: one partial sub-vector per row.
                    psum_flops = (vec_bytes / 8.0) * (local_side - 1)
                    yield env.process(cluster.compute(
                        node, psum_flops, cores=cores, label="psum"))
                    if node != owner:
                        yield env.process(send_vectors(
                            node, owner, 1, "partial"))
                    counter.add()
                work_done.add()

            def load_pipeline(skip: int, factor=factor):
                # Prefetched sub-matrices are already in DRAM: their mults
                # run straight away.
                for k in range(subs_per_node):
                    req = yield slots.request()
                    if k >= skip:
                        yield cluster.fs_read(node, sub_bytes * factor,
                                              label="sub")
                    env.process(mult_then_rowsum(req, k))

            yield env.process(load_pipeline(prefetched))
            yield work_done.event
            if node == owner:
                # Own partials counted in `counter` too; finish the rows.
                yield counter.event
                final_flops = (local_side * vec_bytes / 8.0) * (side - 1)
                yield env.process(cluster.compute(
                    node, final_flops, cores=cores, label="reduce"))
                sends = []
                for dst in column_nodes(node):
                    sends.append(env.process(send_vectors(
                        node, dst, local_side, "xnew")))
                yield env.all_of(sends)
            # The DAG execution model lets the storage layer warm the next
            # iteration's sub-matrices (up to the buffer window) while this
            # node waits for the others at the inter-iteration
            # synchronization — the multiplies still wait for the reduced
            # vectors behind the barrier.
            prefetched = 0
            if it + 1 < iterations:
                next_factor = phase_factor()

                def prefetch_next(nf=next_factor):
                    got = 0
                    for _ in range(min(params.window, subs_per_node)):
                        yield cluster.fs_read(node, sub_bytes * nf,
                                              label="prefetch")
                        got += 1
                    return got

                pf = env.process(prefetch_next())
                # The only synchronization: between iterations (reorth).
                yield barrier.wait()
                prefetched = yield pf
            else:
                yield barrier.wait()

    body = node_simple if policy == "simple" else node_interleaved
    procs = [env.process(body(n), name=f"node{n}") for n in range(nodes)]
    env.run(env.all_of(procs))

    dropped = tracer.dropped()
    if dropped:
        raise TruncatedTraceError(dropped, tracer.capacity)
    total_time = env.now
    reads = nodes * iterations * subs_per_node
    total_bytes = reads * sub_bytes
    # The paper extracts I/O time from per-node application logs: use the
    # mean per-node filesystem-busy time, not the cross-node union (a node
    # waiting at a barrier is NOT reading, even if some straggler is).
    io_busy_mean = float(np.mean([
        span_union_seconds(tracer.events(i), lane="io") for i in range(nodes)
    ]))
    return TestbedRow(
        nodes=nodes,
        policy=policy,
        dimension=workload.rows_per_node * side * over_side,
        nnz=workload.nnz_per_node * nodes * oversubscribe,
        size_bytes=nodes * oversubscribe * workload.bytes_per_node,
        time_s=total_time,
        gflops=mult_flops * reads / total_time / 1e9,
        read_bw_bytes_per_s=total_bytes / io_busy_mean if io_busy_mean else 0.0,
        non_overlapped_fraction=max(0.0, 1.0 - io_busy_mean / total_time),
        cpu_hours_per_iteration=(
            nodes * spec.node.cores * (total_time / iterations) / 3600.0),
        iterations=iterations,
    )
