"""The six pinned workloads.

Each workload object is driven by ``run.py`` through the same five calls:

``prepare(seed)``  generate the inputs from the seed and compute the
                   reference answer (untimed);
``setup(dir)``     what a user does before the first dataflow call: seed
                   the sub-matrix files, build the program / operator /
                   server (timed as ``setup_s``, run several times);
``release_inputs`` drop the generated inputs, so resident memory during
                   the repeats is the engine's;
``repeat()``       one measured repetition, checked against the reference;
``discard_setup()`` stop and remove what the last ``setup`` started.

The program under test receives only generated inputs; the seed never
reaches it.  Shapes are pinned here and named in ``BENCHMARK.json``; why
each was chosen is in ``README.md``.
"""

from __future__ import annotations

import shutil
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from measure import dur, now
from repro.core.engine import DOoCEngine
from repro.core.iofilter import delete_array_file, discover_arrays, write_array
from repro.server.jobs import JOB_KINDS
from repro.spmv.csr import CSRBlock
from repro.spmv.partition import GridPartition, column_owner
from repro.spmv.program import build_iterated_spmv
from repro.spmv.reference import iterated_spmv_blocked_reference

MIB = 2**20
RUN_TIMEOUT_S = 120.0

#: per-node registry counters summed into the per-layer metrics
COUNTERS = (
    "loads", "spills", "read_hits", "read_waits", "prefetch_dropped",
    "remote_fetches", "disk_bytes_read", "disk_bytes_written",
    "logical_bytes_read", "io_retries", "opcache_hits", "opcache_misses",
    "opcache_evictions", "bytes_copied", "task_reexecutions",
    "process_plane_fallbacks", "worker_crashes",
)


@dataclass
class Repeat:
    """Outcome of one repetition."""

    ok: bool
    ops: int                      #: operations attempted (repeat/sweeps/jobs)
    failed: int = 0               #: of which failed
    run_s: float = 0.0            #: what the user waited for the answer
    inner_s: float = 0.0          #: the engine's own wall, summed over runs
    layers: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)   #: per-operation latencies
    problems: list = field(default_factory=list)  #: why it failed / guards
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    slowdown: float = 1.0         #: host CPU speed around it (measure.py)
    stolen_s: float = 0.0         #: CPU time the host took during it


def add_counters(total: dict, metrics_by_node: dict) -> None:
    """Accumulate one run's per-node registry snapshots into ``total``."""
    for node, per in metrics_by_node.items():
        if node < 0:
            continue  # engine-level recovery counters; no faults here
        for name in COUNTERS:
            total[name] = total.get(name, 0) + per.get(name, 0)
        total["alloc_queue_depth_max"] = max(
            total.get("alloc_queue_depth_max", 0),
            per.get("alloc_queue_depth_max", 0))
        for array, n in per.get("loads_by_label", {}).items():
            if array.startswith("A_"):
                total["matrix_loads"] = total.get("matrix_loads", 0) + n


def counter_layers(c: dict) -> dict:
    """Registry counters under their ``<module>.<name>`` metric names."""
    lookups = c.get("opcache_hits", 0) + c.get("opcache_misses", 0)
    disk_read = c.get("disk_bytes_read", 0)
    return {
        "storage.loads": c.get("loads", 0),
        "storage.spills": c.get("spills", 0),
        "storage.read_hits": c.get("read_hits", 0),
        "storage.read_waits": c.get("read_waits", 0),
        "storage.prefetch_dropped": c.get("prefetch_dropped", 0),
        "storage.remote_fetches": c.get("remote_fetches", 0),
        "storage.alloc_queue_depth_max": c.get("alloc_queue_depth_max", 0),
        "iofilter.disk_bytes_read": disk_read,
        "iofilter.disk_bytes_written": c.get("disk_bytes_written", 0),
        "iofilter.logical_bytes_read": c.get("logical_bytes_read", 0),
        "iofilter.io_retries": c.get("io_retries", 0),
        "codecs.compression_ratio": (
            c.get("logical_bytes_read", 0) / disk_read if disk_read else 0.0),
        "opcache.hit_rate": (
            c.get("opcache_hits", 0) / lookups if lookups else 0.0),
        "opcache.evictions": c.get("opcache_evictions", 0),
        "engine.bytes_copied": c.get("bytes_copied", 0),
        "engine.task_reexecutions": c.get("task_reexecutions", 0),
        "procplane.fallbacks": c.get("process_plane_fallbacks", 0),
        "procplane.worker_crashes": c.get("worker_crashes", 0),
    }


# ---------------------------------------------------------------------------
# Input generation (the benchmark's own, vectorised; seed-driven)
# ---------------------------------------------------------------------------


def random_block(nrows: int, ncols: int, nnz_per_row: int,
                 rng: np.random.Generator, bound: float) -> CSRBlock:
    """A sparse block with exactly ``nnz_per_row`` entries in every row.

    Each row draws one column from each of ``nnz_per_row`` equal strata,
    so columns are sorted and distinct by construction and every seed
    gives files of the same size.  Values are uniform on ±``bound``.
    """
    width = ncols // nnz_per_row
    if width < 1:
        raise ValueError("more nonzeros per row than columns")
    cols = (np.arange(nnz_per_row, dtype=np.int64) * width
            + rng.integers(0, width, size=(nrows, nnz_per_row)))
    return CSRBlock(
        nrows=nrows, ncols=ncols,
        indptr=np.arange(nrows + 1, dtype=np.int64) * nnz_per_row,
        indices=cols.ravel(),
        values=rng.uniform(-bound, bound, size=nrows * nnz_per_row))


def clear_derived(scratch: Path, n_nodes: int) -> None:
    """Unlink what a run left in a seeded scratch directory (vector seeds,
    spilled intermediates); the sub-matrix files ``A_*`` persist."""
    for node in range(n_nodes):
        node_dir = scratch / f"node{node}"
        for name in discover_arrays(node_dir):
            if not name.startswith("A_"):
                delete_array_file(node_dir, name)


# ---------------------------------------------------------------------------
# Workloads 1, 2, 3, 5: T unrolled SpMV iterations as one program
# ---------------------------------------------------------------------------


def seed_matrix_files(program, scratch: Path, codec: str,
                       n_nodes: int) -> None:
    """Turn a program's in-memory sub-matrices into files it loads.

    The paper's model: matrix files pre-exist on the file system.  Each
    serialized block is written to its owning node's scratch with the
    workload's codec (what ``OutOfCoreMatrix.__init__`` does) and declared
    again with ``Program.initial_from_scratch``; the program then holds no
    matrix bytes, and its tasks, arrays and outputs are untouched.
    """
    layout = DOoCEngine(n_nodes=n_nodes, scratch_dir=scratch)
    for name in [a for a in program.initial_data if a.startswith("A_")]:
        desc = program.arrays.pop(name)
        data = program.initial_data.pop(name)
        home = program.initial_home.pop(name)
        write_array(layout.node_scratch(home), replace(desc, codec=codec),
                    data)
        program.initial_from_scratch(name, desc.length, home=home,
                                     dtype=desc.dtype,
                                     block_elems=desc.block_elems)


class Workload:
    """What the three kinds of workload share; ``bench`` sets ``spans`` and
    ``tracer`` before the first call."""

    spans = tracer = None

    def untimed_layers(self) -> dict:
        """Per-layer numbers taken once, outside every timed region."""
        return {}

    def release_inputs(self) -> None:
        """Drop the generated inputs (nothing to drop by default)."""


class UnrolledSpmv(Workload):
    def __init__(self, name: str, *, n: int, k: int, nnz_per_row: int,
                 iterations: int, budget_mib: float, opcache_mib: float | None,
                 policy: str, codec: str = "raw",
                 worker_plane: str = "thread", guards=()):
        self.name = name
        self.n, self.k, self.nnz_per_row = n, k, nnz_per_row
        self.iterations = iterations
        self.budget = int(budget_mib * MIB)
        self.opcache = None if opcache_mib is None else int(opcache_mib * MIB)
        self.policy, self.codec, self.worker_plane = policy, codec, worker_plane
        self.guards = guards
        self.ops_per_repeat = 1
        self.scratch: Path | None = None

    def describe(self) -> str:
        a_mb = self.n * self.k * self.nnz_per_row * 16 / 1e6
        return (f"n={self.n} K={self.k} nnz/row/block={self.nnz_per_row} "
                f"T={self.iterations} A~{a_mb:.0f}MB budget="
                f"{self.budget / MIB:g}MiB {self.policy} {self.codec} "
                f"{self.worker_plane}-plane")

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.partition = p = GridPartition(self.n, self.k)
        # |A|_inf <= 1: every row of A holds k*nnz entries of size <= bound
        bound = 1.0 / (self.k * self.nnz_per_row)
        self.blocks = {
            (u, v): random_block(p.part_length(u), p.part_length(v),
                                 self.nnz_per_row, rng, bound)
            for u, v in p.coords()}
        self.x0 = rng.uniform(-1.0, 1.0, size=self.n)
        self.want = iterated_spmv_blocked_reference(
            self.blocks, p, self.x0, self.iterations)

    def setup(self, scratch: Path) -> dict:
        self.discard_setup()
        self.scratch = scratch
        with self.spans.span("program.build") as build:
            self.built = build_iterated_spmv(
                self.blocks, self.partition.split_vector(self.x0),
                self.iterations, n_nodes=1, policy=self.policy)
        with self.spans.span("iofilter.seed") as seed:
            seed_matrix_files(self.built.program, scratch, self.codec, 1)
        return {"program.build_ms": dur(build) * 1e3,
                "iofilter.seed_ms": dur(seed) * 1e3}

    def discard_setup(self) -> None:
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)
            self.scratch = None

    def untimed_layers(self) -> dict:
        """What ``run()`` does before its own clock starts, called the way
        it calls it: DAG construction and global task assignment."""
        from repro.core.global_scheduler import GlobalScheduler

        prog = self.built.program
        t0 = now()
        GlobalScheduler(
            prog.build_dag(), 1, array_homes=prog.initial_home,
            array_nbytes={a: d.nbytes for a, d in prog.arrays.items()},
        ).assign_all()
        return {"global_scheduler.assign_ms": (now() - t0) * 1e3}

    def release_inputs(self) -> None:
        self.blocks = self.x0 = None

    def repeat(self) -> Repeat:
        span, prog = self.spans.span, self.built.program
        with span("repeat") as whole:
            with span("engine.construct") as construct:
                eng = DOoCEngine(
                    n_nodes=1, memory_budget_per_node=self.budget,
                    opcache_bytes=self.opcache, scratch_dir=self.scratch,
                    codec=self.codec, worker_plane=self.worker_plane,
                    trace=self.tracer)
            try:
                with span("engine.run") as run:
                    report = eng.run(prog, timeout=RUN_TIMEOUT_S)
                with span("engine.fetch") as fetch:
                    got = self.built.fetch_final(eng)
            finally:
                with span("engine.cleanup") as cleanup:
                    eng.cleanup()
                    clear_derived(self.scratch, 1)
        counters: dict = {}
        add_counters(counters, report.metrics)
        tasks = len(prog.tasks)
        layers = counter_layers(counters)
        layers.update({
            "engine.construct_ms": dur(construct) * 1e3,
            "engine.run_call_s": dur(run),
            "engine.run_inner_s": report.wall_seconds,
            "engine.run_overhead_s": dur(run) - report.wall_seconds,
            "engine.fetch_ms": dur(fetch) * 1e3,
            "engine.cleanup_ms": dur(cleanup) * 1e3,
            "engine.tasks": tasks,
            "engine.tasks_per_s": tasks / report.wall_seconds,
            "storage.loads_per_iter": (
                counters.get("matrix_loads", 0) / self.iterations),
            "datacutter.stream_buffers": sum(
                b for b, _ in report.stream_stats.values()),
        })
        problems = []
        if not np.all(np.isfinite(got)):
            problems.append("non-finite iterate")
        if not np.array_equal(got, self.want):
            problems.append("iterate differs from the blocked reference")
        problems += [f"shape guard: {text}" for text, holds in self.guards
                     if not holds(layers, self)]
        bad_result = any(not p.startswith("shape guard") for p in problems)
        return Repeat(ok=not bad_result, ops=1, failed=int(bad_result),
                      run_s=dur(whole), inner_s=report.wall_seconds,
                      layers=layers, problems=problems)

    def corrupt_reference(self) -> None:
        """Flip one bit of the expected answer (self-test only)."""
        self.want = self.want.copy()
        self.want.view(np.uint64)[0] ^= np.uint64(1)


# ---------------------------------------------------------------------------
# Workload 4: Jacobi through OutOfCoreMatrix.matvec
# ---------------------------------------------------------------------------


class BlockedOperator:
    """In-core operator with the engine's blocked summation order.

    Row ``u`` sums its products grouped by owning node, then the groups —
    float for float what the ``interleaved`` reduction tasks compute — so a
    Jacobi drive over it is the bit-identity reference for the
    out-of-core solve.
    """

    def __init__(self, blocks, partition: GridPartition, owner):
        self.partition, self.n = partition, partition.n
        self._blocks = {uv: b.to_scipy() for uv, b in blocks.items()}
        self._groups = {}
        for u in range(partition.k):
            groups: dict[int, list[int]] = {}
            for v in range(partition.k):
                groups.setdefault(owner(u, v), []).append(v)
            self._groups[u] = [vs for _, vs in sorted(groups.items())]

    def diagonal(self) -> np.ndarray:
        k = self.partition.k
        return np.concatenate(
            [self._blocks[(u, u)].diagonal() for u in range(k)])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        p = self.partition
        parts = p.split_vector(np.asarray(x, dtype=np.float64))
        out = {}
        for u, groups in self._groups.items():
            partials = []
            for vs in groups:
                products = [self._blocks[(u, v)] @ parts[v] for v in vs]
                partials.append(products[0] if len(vs) == 1
                                else _zero_sum(products))
            out[u] = _zero_sum(partials)
        return p.join_vector(out)


def _zero_sum(arrays) -> np.ndarray:
    acc = np.zeros_like(arrays[0])
    for a in arrays:
        acc += a
    return acc


class SolverLoop(Workload):
    def __init__(self, name: str, *, n: int, k: int, nnz_per_row: float,
                 diag_shift: float, n_nodes: int, tol: float,
                 max_sweeps: int, sweeps_range: tuple[int, int]):
        self.name = name
        self.n, self.k, self.nnz_per_row = n, k, nnz_per_row
        self.diag_shift, self.n_nodes, self.tol = diag_shift, n_nodes, tol
        self.max_sweeps, self.sweeps_range = max_sweeps, sweeps_range
        self.op = None
        self.scratch: Path | None = None

    def describe(self) -> str:
        return (f"Jacobi tol={self.tol:g} n={self.n} K={self.k} "
                f"nnz/row={self.nnz_per_row:g} diag_shift={self.diag_shift} "
                f"{self.n_nodes} nodes interleaved raw; "
                f"{self.sweeps_range[0]}-{self.sweeps_range[1]} sweeps")

    def prepare(self, seed: int) -> None:
        from repro.solvers import jacobi_solve
        from repro.spmv.generator import symmetric_test_matrix

        rng = np.random.default_rng(seed)
        m = symmetric_test_matrix(self.n, self.nnz_per_row, rng,
                                  diag_shift=self.diag_shift)
        self.partition = GridPartition(self.n, self.k)
        self.blocks = self.partition.split_matrix(m)
        self.a_bytes = sum(b.nbytes for b in self.blocks.values())
        self.b = rng.standard_normal(self.n)
        ref_op = BlockedOperator(self.blocks, self.partition,
                                 column_owner(self.k, self.n_nodes))
        ref = jacobi_solve(ref_op, self.b, tol=self.tol,
                           max_iterations=self.max_sweeps)
        bound = self.tol * float(np.linalg.norm(self.b))
        residual = float(np.linalg.norm(self.b - ref_op.matvec(ref.x)))
        self.reference_problems = []
        if not (ref.converged and residual <= bound):
            self.reference_problems.append(
                f"reference did not converge (|b-Ax|={residual:g} > {bound:g})")
        lo, hi = self.sweeps_range
        if not lo <= ref.iterations <= hi:
            self.reference_problems.append(
                f"shape guard: {ref.iterations} sweeps outside {lo}..{hi}")
        self.ref_x, self.ops_per_repeat = ref.x, ref.iterations

    def setup(self, scratch: Path) -> dict:
        from repro.spmv.ooc_operator import OutOfCoreMatrix

        self.discard_setup()
        self.scratch = scratch
        with self.spans.span("ooc_operator.construct") as construct:
            self.op = OutOfCoreMatrix(
                self.blocks, n_nodes=self.n_nodes, policy="interleaved",
                scratch_dir=scratch, engine_kwargs={"trace": self.tracer})
        return {"ooc_operator.construct_s": dur(construct)}

    def discard_setup(self) -> None:
        if self.op is not None:
            self.op.engine.cleanup()
            self.op = None
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)
            self.scratch = None

    def release_inputs(self) -> None:
        self.blocks = None

    def repeat(self) -> Repeat:
        from repro.solvers import jacobi_solve

        op, span = self.op, self.spans.span
        library_matvec = op.matvec
        sweeps: list[dict] = []
        counters: dict = {}

        def timed_matvec(x, **kwargs):
            with span("ooc_operator.matvec") as rec:
                y = library_matvec(x, **kwargs)
            sweeps.append(rec)
            add_counters(counters, {node: store.metrics.as_dict() for
                                    node, store in op.engine.stores.items()})
            return y

        first = len(op.sweep_log)
        op.matvec = timed_matvec  # jacobi_solve calls operator.matvec
        try:
            with span("repeat") as whole:
                with span("solvers.jacobi.solve") as solve:
                    res = jacobi_solve(op, self.b, tol=self.tol,
                                       max_iterations=self.max_sweeps)
                with span("engine.cleanup") as cleanup:
                    op.engine.cleanup()
        finally:
            del op.matvec
        log = op.sweep_log[first:]
        call_ms = [dur(s) * 1e3 for s in sweeps]
        inner = sum(e["wall_seconds"] for e in log)
        layers = counter_layers(counters)
        layers.update({
            "engine.run_call_s": sum(call_ms) / 1e3,
            "engine.run_inner_s": inner,
            "engine.run_overhead_s": sum(call_ms) / 1e3 - inner,
            "engine.cleanup_ms": dur(cleanup) * 1e3,
            "engine.tasks": sum(e["tasks"] for e in log),
            "engine.tasks_per_s": sum(e["tasks"] for e in log) / inner,
            "ooc_operator.matvec_overhead_ms": float(np.median(
                [c - e["wall_seconds"] * 1e3 for c, e in zip(call_ms, log)])),
            "ooc_operator.disk_bytes_per_sweep": float(np.median(
                [e["disk_bytes_read"] for e in log])),
            "storage.loads_per_iter": (
                counters.get("matrix_loads", 0) / len(log)),
            "solvers.jacobi.sweeps": res.iterations,
            "solvers.jacobi.driver_ms": dur(solve) * 1e3 - sum(call_ms),
        })
        problems = list(self.reference_problems)
        if not res.converged:
            problems.append("Jacobi did not converge")
        if res.iterations != self.ops_per_repeat:
            problems.append(f"{res.iterations} sweeps, reference took "
                            f"{self.ops_per_repeat}")
        if not np.all(np.isfinite(res.x)):
            problems.append("non-finite iterate")
        if not np.array_equal(res.x, self.ref_x):
            problems.append("iterate differs from the in-core blocked Jacobi")
        if layers["ooc_operator.disk_bytes_per_sweep"] <= 0:
            problems.append("shape guard: no disk bytes recorded per sweep")
        bad = any(not p.startswith("shape guard") for p in problems)
        n = len(call_ms)
        return Repeat(ok=not bad, ops=n, failed=n if bad else 0,
                      run_s=dur(whole), inner_s=inner, layers=layers,
                      samples={"sweep_ms": call_ms}, problems=problems)

    def corrupt_reference(self) -> None:
        self.ref_x = self.ref_x.copy()
        self.ref_x.view(np.uint64)[0] ^= np.uint64(1)


# ---------------------------------------------------------------------------
# Workload 6: closed-loop clients against the job server
# ---------------------------------------------------------------------------

class ServerMix(Workload):
    def __init__(self, name: str, *, clients: int, jobs_per_client: int,
                 n: int, parts: int, iterations: int, max_concurrent: int):
        self.name = name
        self.clients, self.jobs_per_client = clients, jobs_per_client
        self.n, self.parts, self.iterations = n, parts, iterations
        self.max_concurrent = max_concurrent
        self.ops_per_repeat = clients * jobs_per_client
        self.server = None
        self.drain_s = 0.0

    def describe(self) -> str:
        return (f"closed loop, {self.clients} clients x {self.jobs_per_client}"
                f" jobs/repeat over HTTP, max_concurrent={self.max_concurrent}"
                f", spmv/jacobi/cg/lanczos n={self.n} parts={self.parts} "
                f"iterations={self.iterations}, every job submitted by "
                "every client")

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 2**31 - 1, size=self.jobs_per_client)
        self.jobs = [(JOB_KINDS[i % len(JOB_KINDS)], int(s))
                     for i, s in enumerate(seeds)]
        #: (kind, seed) -> digest of the first completion; every later
        #: completion, in this repeat or a later one, must reproduce it
        self.digests: dict = {}

    def setup(self, scratch: Path) -> dict:
        from repro.server.client import JobClient
        from repro.server.http import DoocJobServer
        from repro.server.manager import ServerConfig

        self.discard_setup()
        self.server = DoocJobServer(("127.0.0.1", 0), ServerConfig(
            max_concurrent=self.max_concurrent, work_dir=scratch / "jobs",
            engine={"trace": self.tracer})).start()
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05}, daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.port}"
        if not JobClient(self.url).healthy():
            raise RuntimeError("job server did not come up")
        return {}

    def discard_setup(self) -> None:
        if self.server is None:
            return
        t0 = now()
        self.server.drain(timeout=30)
        self.drain_s = now() - t0
        self.server.server_close()
        self.thread.join(timeout=10)
        if self.thread.is_alive():
            raise RuntimeError("job server thread did not stop")
        self.server = None


    def _client(self, index: int, done: list, problems: list) -> None:
        from repro.server.client import JobClient

        client = JobClient(self.url)
        shift = index * len(self.jobs) // self.clients
        for kind, seed in self.jobs[shift:] + self.jobs[:shift]:
            spec = {"tenant": f"client{index}", "kind": kind, "n": self.n,
                    "parts": self.parts, "iterations": self.iterations,
                    "seed": seed}
            job = {"kind": kind, "seed": seed, "ok": False}
            done.append(job)
            try:
                with self.spans.span("server.job") as whole:
                    with self.spans.span("server.submit") as submit:
                        rec = client.submit(spec)
                    final = client.wait_terminal(rec["id"],
                                                 timeout=RUN_TIMEOUT_S)
            except Exception as exc:  # noqa: BLE001 - a failed job, counted
                problems.append(f"job {kind}/{seed}: {exc!r}")
                continue
            job.update(id=rec["id"], state=final["state"],
                       attempts=final["attempts"],
                       digest=final["outcome"].get("digest"),
                       job_ms=dur(whole) * 1e3, submit_ms=dur(submit) * 1e3)

    def repeat(self) -> Repeat:
        from repro.server.client import JobClient

        done: list[dict] = []
        problems: list[str] = []
        before = JobClient(self.url).stats()["metrics"]
        threads = [threading.Thread(target=self._client,
                                    args=(i, done, problems))
                   for i in range(self.clients)]
        with self.spans.span("repeat") as whole:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        client = JobClient(self.url)
        after = client.stats()["metrics"]
        queue_ms, exec_ms = [], []
        for job in done:
            if job.get("state") != "done":
                if "state" in job:
                    problems.append(f"job {job['id']} ended {job['state']}")
                continue
            first = self.digests.setdefault((job["kind"], job["seed"]),
                                            job["digest"])
            if not job["digest"] or job["digest"] != first:
                problems.append(f"job {job['id']} digest differs from its "
                                "duplicate")
                continue
            job["ok"] = True
            at = {e["event"]: e["ts"]
                  for e in client.trace(job["id"])["events"]}
            queue_ms.append((at["job_start"] - at["job_submit"]) * 1e3)
            exec_ms.append((at["job_done"] - at["job_start"]) * 1e3)
        good = [j for j in done if j["ok"]]
        failed = self.ops_per_repeat - len(good)
        layers = {
            "server.jobs_per_s": len(good) / dur(whole),
            "server.submit_rtt_ms": float(np.median(
                [j["submit_ms"] for j in good])) if good else 0.0,
            "server.retries": sum(j["attempts"] - 1 for j in good),
            "server.rejected": (after.get("jobs_rejected", 0)
                                - before.get("jobs_rejected", 0)),
        }
        return Repeat(ok=failed == 0, ops=self.ops_per_repeat, failed=failed,
                      run_s=dur(whole), inner_s=dur(whole), layers=layers,
                      samples={"job_ms": [j["job_ms"] for j in good],
                               "queue_ms": queue_ms, "exec_ms": exec_ms},
                      problems=problems)

    def corrupt_reference(self) -> None:
        self.digests = {job: "0" * 32 for job in self.jobs}


# ---------------------------------------------------------------------------
# The pinned shapes (and their shape guards)
# ---------------------------------------------------------------------------


def _ooc_read_guards():
    return (
        ("0 < matrix loads per iteration < K^2",
         lambda m, w: 0 < m["storage.loads_per_iter"] < w.k * w.k),
        ("bytes written < 5% of bytes read",
         lambda m, w: m["iofilter.disk_bytes_written"]
         < 0.05 * m["iofilter.disk_bytes_read"]),
    )


def make(name: str):
    """A fresh workload object by name."""
    if name == "ooc_read":
        return UnrolledSpmv(
            name, n=6144, k=3, nnz_per_row=256, iterations=3,
            budget_mib=19, opcache_mib=9.5, policy="interleaved",
            guards=_ooc_read_guards())
    if name == "ooc_zlib":
        return UnrolledSpmv(
            name, n=6144, k=3, nnz_per_row=256, iterations=2,
            budget_mib=19, opcache_mib=9.5, policy="interleaved", codec="zlib",
            guards=(("compression ratio > 1.3",
                     lambda m, w: m["codecs.compression_ratio"] > 1.3),))
    if name == "spill_write":
        return UnrolledSpmv(
            name, n=1048576, k=3, nnz_per_row=2, iterations=2,
            budget_mib=32, opcache_mib=None, policy="simple",
            guards=(("at least 12 spills", lambda m, w:
                     m["storage.spills"] >= 12),
                    ("at least 30 MB written", lambda m, w:
                     m["iofilter.disk_bytes_written"] >= 30e6)))
    if name == "solver_loop":
        return SolverLoop(
            name, n=65536, k=2, nnz_per_row=16, diag_shift=3.5, n_nodes=2,
            tol=1e-10, max_sweeps=400, sweeps_range=(40, 70))
    if name == "incore_proc":
        return UnrolledSpmv(
            name, n=6144, k=3, nnz_per_row=24, iterations=80,
            budget_mib=256, opcache_mib=None, policy="simple",
            worker_plane="process",
            guards=(("loads = initial arrays (K^2 + K)", lambda m, w:
                     m["storage.loads"] == w.k * w.k + w.k),
                    ("no process-plane fallbacks or crashes", lambda m, w:
                     m["procplane.fallbacks"] == 0
                     and m["procplane.worker_crashes"] == 0)))
    if name == "server_mix":
        return ServerMix(name, clients=2, jobs_per_client=10, n=512, parts=2,
                         iterations=4, max_concurrent=2)
    raise KeyError(name)


def make_tiny(name: str):
    """Self-test sizes: one workload per code path (files + codec,
    operator + solver, process plane, server), seconds for all four."""
    if name == "ooc_zlib":
        return UnrolledSpmv(
            name, n=512, k=2, nnz_per_row=32, iterations=2, budget_mib=0.25,
            opcache_mib=0.125, policy="interleaved", codec="zlib")
    if name == "solver_loop":
        return SolverLoop(name, n=2048, k=2, nnz_per_row=8, diag_shift=3.5,
                          n_nodes=2, tol=1e-6, max_sweeps=100,
                          sweeps_range=(3, 100))
    if name == "incore_proc":
        return UnrolledSpmv(name, n=384, k=3, nnz_per_row=8, iterations=4,
                            budget_mib=16, opcache_mib=None, policy="simple",
                            worker_plane="process")
    if name == "server_mix":
        return ServerMix(name, clients=2, jobs_per_client=4, n=64, parts=2,
                         iterations=2, max_concurrent=2)
    raise KeyError(name)
