"""Pinned iterated-SpMV benchmark workloads and regression checking.

The harness exists to answer two questions, repeatably:

* *How fast is the data plane right now?*  ``run_suite`` executes a
  pinned workload matrix — in-core, out-of-core, faulty — through the
  real threaded engine and reduces each run to a flat metrics dict
  (wall time, tasks/s, bytes copied, operand-cache hit rate, per-phase
  time from the Tracer) plus a bit-identity verdict against the blocked
  SciPy reference.

* *Did a change regress it?*  ``check_regression`` compares a fresh
  report against the committed ``BENCH_baseline.json``: a wall-time
  increase beyond the tolerance, **any** bytes-copied increase, or a
  lost bit-identity fails the check (that is the CI gate).

Workloads are pinned: matrix structure, seeds, node counts, memory
budgets and fault plans are fixed constants, so two runs of the same
build measure the same computation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from repro.core.engine import DOoCEngine
from repro.obs import Tracer, export_chrome_trace

#: report schema identifier; bump on incompatible field changes
SCHEMA = "dooc-bench/2"

#: codecs measured by the compression-tradeoff sweep (raw first: it is
#: the effective-bandwidth and bytes-on-disk reference the others are
#: judged against)
SWEEP_CODECS = ("raw", "zlib", "shuffle-zlib")

#: trace-phase spans aggregated into the per-workload breakdown
_PHASES = (
    ("task", "task"),
    ("task", "grant_wait"),
    ("storage", "load"),
    ("storage", "spill"),
    ("storage", "fetch_remote"),
    ("io", "read"),
    ("io", "write"),
)


@dataclass(frozen=True)
class Workload:
    """One pinned benchmark configuration (fully deterministic)."""

    name: str
    n: int                   #: global matrix dimension
    k: int                   #: K x K sub-matrix grid
    nnz_per_row: float       #: target nonzeros per row of each sub-matrix
    iterations: int          #: SpMV iterations
    n_nodes: int
    memory_budget: int       #: bytes per node
    policy: str = "simple"
    fault_seed: int | None = None  #: arm the deterministic fault plan?
    opcache_bytes: int | None = None  #: None = engine default (budget/4)
    seed: int = 20120910     #: matrix/vector generator seed (ICPP 2012)
    worker_plane: str = "thread"  #: "thread" or "process" (GIL-free)
    codec: str | None = None  #: block codec (None = engine default / raw)

    def config(self) -> dict:
        return asdict(self)


def pinned_workloads(*, quick: bool) -> list[Workload]:
    """The benchmark matrix.  ``quick`` is the CI-sized variant.

    ``out_of_core`` is *the* acceptance workload: disk-seeded sub-matrix
    files streamed through a bounded memory budget, dense enough that the
    per-task CSR decode (what the operand cache amortizes) dominates the
    SpMV kernel — the regime the paper's overlap argument targets.
    """
    if quick:
        return [
            Workload("in_core", n=1536, k=2, nnz_per_row=16.0,
                     iterations=10, n_nodes=1, memory_budget=64 * 2**20),
            Workload("in_core_process", n=1536, k=2, nnz_per_row=16.0,
                     iterations=10, n_nodes=1, memory_budget=64 * 2**20,
                     worker_plane="process"),
            Workload("out_of_core", n=16384, k=2, nnz_per_row=512.0,
                     iterations=8, n_nodes=2, memory_budget=192 * 2**20,
                     opcache_bytes=256 * 2**20),
            Workload("faulty", n=1536, k=2, nnz_per_row=16.0,
                     iterations=6, n_nodes=2, memory_budget=64 * 2**20,
                     fault_seed=0),
        ]
    return [
        Workload("in_core", n=6144, k=3, nnz_per_row=24.0,
                 iterations=12, n_nodes=1, memory_budget=256 * 2**20),
        Workload("in_core_process", n=6144, k=3, nnz_per_row=24.0,
                 iterations=12, n_nodes=1, memory_budget=256 * 2**20,
                 worker_plane="process"),
        Workload("out_of_core", n=16384, k=2, nnz_per_row=512.0,
                 iterations=16, n_nodes=2, memory_budget=192 * 2**20,
                 opcache_bytes=256 * 2**20),
        Workload("faulty", n=6144, k=3, nnz_per_row=24.0,
                 iterations=8, n_nodes=2, memory_budget=256 * 2**20,
                 fault_seed=0),
    ]


@dataclass(frozen=True)
class ConvergenceWorkload:
    """The pinned incremental/async iteration workload.

    A block-lower-triangular, strongly diagonally dominant system whose
    partitions converge at deliberately staggered rates (``dom[u]`` is
    block ``u``'s extra diagonal dominance): the best-conditioned block
    goes bitwise stationary sweeps before the worst, so workset dropout
    has room to pay off before the global residual test fires.
    """

    name: str
    n: int
    k: int
    dom: tuple[float, ...]       #: per-block diagonal dominance boost
    density: float
    seed: int
    tol: float                   #: sync/incremental residual tolerance
    max_sweeps: int
    async_tol: float
    async_staleness: int
    async_seed: int
    async_max_rounds: int

    def config(self) -> dict:
        return asdict(self)


def pinned_convergence_workload(*, quick: bool) -> ConvergenceWorkload:
    """The convergence-bench system (CI-sized when ``quick``)."""
    if quick:
        return ConvergenceWorkload(
            "convergence_quick", n=120, k=3, dom=(1e6, 50.0, 12.0),
            density=0.05, seed=9, tol=1e-30, max_sweeps=120,
            async_tol=1e-8, async_staleness=2, async_seed=1,
            async_max_rounds=150)
    return ConvergenceWorkload(
        "convergence_full", n=240, k=4, dom=(1e6, 2e3, 50.0, 12.0),
        density=0.05, seed=9, tol=1e-30, max_sweeps=200,
        async_tol=1e-8, async_staleness=2, async_seed=1,
        async_max_rounds=250)


def _build_convergence_system(cw: ConvergenceWorkload):
    """The pinned block-triangular system as (scipy A, b)."""
    import scipy.sparse as sp

    rng = np.random.default_rng(cw.seed)
    s = cw.n // cw.k
    rows = []
    for u in range(cw.k):
        row = []
        for v in range(cw.k):
            if v > u:
                row.append(sp.csr_matrix((s, s)))
            elif v < u:
                row.append(sp.random(s, s, density=cw.density,
                                     random_state=rng, format="csr"))
            else:
                blk = sp.random(s, s, density=cw.density,
                                random_state=rng, format="csr").tolil()
                rowsum = np.abs(blk).sum(axis=1).A.ravel()
                blk.setdiag(rowsum + cw.dom[u])
                row.append(blk.tocsr())
        rows.append(row)
    a = sp.csr_matrix(sp.bmat(rows, format="csr"))
    b = rng.standard_normal(cw.n)
    return a, b


class _InCoreBlockedReference:
    """In-core operator reproducing the engine's blocked summation order.

    ``matvec`` accumulates ``y_u = sum_v A_{u,v} @ x_v`` over columns in
    grid order into a zeroed buffer — float-for-float the simple-policy
    reduction on one node — so a SciPy-side Jacobi drive through it is
    the bit-identity reference for the out-of-core sync solve.
    """

    def __init__(self, a, partition):
        import scipy.sparse as sp

        self.partition = partition
        self.n = a.shape[0]
        self._diag = np.asarray(a.diagonal(), dtype=np.float64)
        self._blocks = {}
        for u in range(partition.k):
            r0, r1 = partition.part_range(u)
            for v in range(partition.k):
                c0, c1 = partition.part_range(v)
                self._blocks[(u, v)] = sp.csr_matrix(a[r0:r1, c0:c1])

    @property
    def shape(self):
        return (self.n, self.n)

    def diagonal(self) -> np.ndarray:
        return self._diag.copy()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        p = self.partition
        parts = p.split_vector(np.asarray(x, dtype=np.float64))
        out = {}
        for u in range(p.k):
            y = np.zeros(p.part_length(u))
            for v in range(p.k):
                y += self._blocks[(u, v)] @ parts[v]
            out[u] = y
        return p.join_vector(out)


def run_convergence_suite(*, quick: bool = False) -> dict:
    """Run the pinned convergence workload in all three modes.

    Returns the report's ``convergence`` section: sync / incremental /
    async metrics plus the boolean verdicts
    :func:`check_convergence_invariants` gates on.  Sync and incremental
    carry the bit-identity verdict (dropout must not change a single
    bit); async carries the convergence-bound verdict
    (``||b - A x|| <= tol * ||b||`` on a *fresh* confirmation sweep).
    """
    import tempfile

    from repro.solvers import jacobi_solve
    from repro.spmv.csr import CSRBlock
    from repro.spmv.ooc_operator import OutOfCoreMatrix
    from repro.spmv.partition import GridPartition

    cw = pinned_convergence_workload(quick=quick)
    a, b = _build_convergence_system(cw)
    partition = GridPartition(cw.n, cw.k)
    blocks = partition.split_matrix(CSRBlock.from_scipy(a))
    b_norm = float(np.linalg.norm(b))

    def mkop(scratch):
        return OutOfCoreMatrix(blocks, n_nodes=1, scratch_dir=scratch,
                               policy="simple")

    def drive(mode, **kw):
        with tempfile.TemporaryDirectory() as scratch:
            op = mkop(scratch)
            res = jacobi_solve(op, b, tol=cw.tol if mode != "async"
                               else cw.async_tol,
                               max_iterations=cw.max_sweeps if mode != "async"
                               else cw.async_max_rounds,
                               mode=mode, **kw)
            log = list(op.sweep_log)
            op.engine.cleanup()
        return res, log

    sync_res, sync_log = drive("sync")
    inc_res, inc_log = drive("incremental")
    async_res, _ = drive("async", staleness=cw.async_staleness,
                         seed=cw.async_seed)

    # In-core reference with the same blocked summation order.
    ref_op = _InCoreBlockedReference(a, partition)
    ref_res = jacobi_solve(ref_op, b, tol=cw.tol,
                           max_iterations=cw.max_sweeps)

    def totals(log):
        return (sum(e["tasks"] for e in log),
                int(sum(e["disk_bytes_read"] for e in log)),
                round(sum(e["wall_seconds"] for e in log), 6))

    sync_tasks, sync_disk, sync_wall = totals(sync_log)
    inc_tasks, inc_disk, inc_wall = totals(inc_log)
    rep = inc_res.convergence
    matvec_tasks = rep.tasks_per_sweep()
    first_freeze = rep.first_freeze_sweep()
    async_bound = cw.async_tol * b_norm

    verdicts = {
        # sync result == the SciPy-built in-core reference, bit for bit
        "sync_matches_reference": bool(
            np.array_equal(sync_res.x, ref_res.x)
            and sync_res.iterations == ref_res.iterations),
        # dropout never changes the iterate sequence
        "incremental_bit_identical": bool(
            np.array_equal(inc_res.x, sync_res.x)),
        "same_iterations": inc_res.iterations == sync_res.iterations,
        # the point of the exercise: strictly less work than bulk sync
        "tasks_strictly_decrease": inc_tasks < sync_tasks,
        "disk_bytes_strictly_decrease": inc_disk < sync_disk,
        # workset-dropout invariant: per-sweep tasks never grow, and
        # strictly shrink once the first block freezes
        "dropout_monotone": all(
            nxt <= cur for cur, nxt in zip(matvec_tasks, matvec_tasks[1:])),
        "dropout_after_first_freeze": (
            first_freeze is not None
            and first_freeze < len(matvec_tasks)
            and matvec_tasks[-1] < matvec_tasks[0]),
        # async gets the convergence-bound verdict, not bit-identity
        "async_within_bound": bool(
            async_res.converged and async_res.residual_norm <= async_bound),
    }
    return {
        "config": cw.config(),
        "sync": {
            "iterations": sync_res.iterations,
            "fixpoint": sync_res.fixpoint,
            "tasks": sync_tasks,
            "disk_bytes_read": sync_disk,
            "wall_seconds": sync_wall,
            "residual_norm": sync_res.residual_norm,
        },
        "incremental": {
            "iterations": inc_res.iterations,
            "fixpoint": inc_res.fixpoint,
            "tasks": inc_tasks,
            "disk_bytes_read": inc_disk,
            "wall_seconds": inc_wall,
            "residual_norm": inc_res.residual_norm,
            "first_freeze_sweep": first_freeze,
            "fixpoint_sweep": rep.fixpoint_sweep,
            "workset_sizes": rep.workset_sizes(),
            "matvec_tasks_per_sweep": matvec_tasks,
            "total_tasks_with_aux": rep.total_tasks(),
        },
        "async": {
            "rounds": async_res.iterations,
            "staleness": cw.async_staleness,
            "residual_norm": async_res.residual_norm,
            "bound": async_bound,
            "converged": async_res.converged,
        },
        "verdicts": verdicts,
    }


def check_convergence_invariants(current: dict) -> list[str]:
    """Baseline-free gates on the report's ``convergence`` section.

    Every verdict computed by :func:`run_convergence_suite` must hold:
    dropout must be free (bit-identity, same sweep count), must pay
    (strictly fewer tasks and disk bytes than bulk-synchronous), must be
    monotone once blocks freeze, and async-Jacobi must land inside its
    documented residual bound.  Reports without the section pass.
    """
    conv = current.get("convergence")
    if not conv:
        return []
    failures = []
    for name, ok in sorted(conv.get("verdicts", {}).items()):
        if not ok:
            failures.append(f"convergence: invariant {name!r} violated "
                            "(see the report's convergence section)")
    return failures


def _build_inputs(w: Workload):
    """The pinned sub-matrix grid and initial vector for ``w``."""
    from repro.spmv.generator import choose_gap_parameter, gap_uniform_csr
    from repro.spmv.partition import GridPartition

    partition = GridPartition(w.n, w.k)
    rng = np.random.default_rng(w.seed)
    blocks = {}
    for u in range(w.k):
        for v in range(w.k):
            nrows = partition.part_length(u)
            ncols = partition.part_length(v)
            d = choose_gap_parameter(ncols, w.nnz_per_row)
            blocks[(u, v)] = gap_uniform_csr(nrows, ncols, d, rng)
    x0 = rng.uniform(-1.0, 1.0, size=w.n)
    x0_parts = partition.split_vector(x0)
    return blocks, x0_parts, partition, x0


def _sum_metric(metrics: dict, name: str) -> int:
    return int(sum(per.get(name, 0) for per in metrics.values()))


def _phase_breakdown(events) -> dict[str, float]:
    out = {name: 0.0 for _, name in _PHASES}
    wanted = set(_PHASES)
    for e in events:
        if e.ph == "X" and (e.cat, e.name) in wanted:
            out[e.name] += e.dur
    return {k: round(v, 6) for k, v in sorted(out.items())}


def run_workload(w: Workload, *, trace_path: str | Path | None = None,
                 repeats: int = 2) -> dict:
    """Execute one pinned workload; returns its flat metrics dict.

    The workload runs ``repeats`` times and the best (minimum-wall) run
    is reported — the standard noise reduction for wall-clock numbers;
    the protocol counters are deterministic across repeats.
    ``trace_path`` additionally exports the best run's Chrome trace.
    """
    from repro.faults import FaultPlan
    from repro.spmv.program import build_iterated_spmv, x_name
    from repro.spmv.reference import iterated_spmv_blocked_reference

    blocks, x0_parts, partition, x0 = _build_inputs(w)
    faults = None
    if w.fault_seed is not None:
        faults = FaultPlan(seed=w.fault_seed, io_transient=0.05,
                           peer_drop=0.02, task_crash=0.02)
    best = None
    for _ in range(max(repeats, 1)):
        built = build_iterated_spmv(
            blocks, x0_parts, w.iterations,
            n_nodes=w.n_nodes, policy=w.policy)
        tracer = Tracer(enabled=True, capacity=1 << 18)
        eng = DOoCEngine(
            n_nodes=w.n_nodes,
            memory_budget_per_node=w.memory_budget,
            opcache_bytes=w.opcache_bytes,
            trace=tracer,
            faults=faults,
            worker_plane=w.worker_plane,
            codec=w.codec,
        )
        try:
            report = eng.run(built.program, timeout=300.0)
            parts = {u: eng.fetch(x_name(w.iterations, u))
                     for u in range(partition.k)}
        finally:
            eng.cleanup()
        if best is None or report.wall_seconds < best[0].wall_seconds:
            best = (report, parts, eng.workers_per_node,
                    len(built.program.tasks))
    report, parts, engine_workers, tasks = best
    got = partition.join_vector(parts)
    want = iterated_spmv_blocked_reference(blocks, partition, x0, w.iterations)
    events = report.trace_events
    if trace_path is not None:
        export_chrome_trace(events, trace_path)
    wall = report.wall_seconds
    metrics = report.metrics
    hits = _sum_metric(metrics, "opcache_hits")
    misses = _sum_metric(metrics, "opcache_misses")
    bytes_copied = _sum_metric(metrics, "bytes_copied")
    phases = _phase_breakdown(events)
    logical_read = _sum_metric(metrics, "logical_bytes_read")
    disk_read = _sum_metric(metrics, "disk_bytes_read")
    read_seconds = phases.get("read", 0.0)
    io_bytes = {
        "logical_read": logical_read,
        "disk_read": disk_read,
        "logical_written": _sum_metric(metrics, "logical_bytes_written"),
        "disk_written": _sum_metric(metrics, "disk_bytes_written"),
        # ratio > 1 means the codec paid for itself in bytes; effective
        # bandwidth is *logical* bytes delivered per second of io/read
        # span (read + decode), the number a solver actually experiences
        "compression_ratio": (round(logical_read / disk_read, 4)
                              if disk_read else 1.0),
        "effective_read_mb_s": (round(logical_read / read_seconds / 1e6, 3)
                                if read_seconds > 0 else 0.0),
    }
    return {
        "config": w.config(),
        "workers": engine_workers,
        "wall_seconds": round(wall, 6),
        "tasks": tasks,
        "tasks_per_second": round(tasks / wall, 3) if wall > 0 else 0.0,
        "bytes_copied": bytes_copied,
        "bytes_copied_per_task": round(bytes_copied / tasks, 1),
        "opcache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / (hits + misses), 4) if hits + misses else 0.0,
        },
        "loads": _sum_metric(metrics, "loads"),
        "spills": _sum_metric(metrics, "spills"),
        "io_retries": _sum_metric(metrics, "io_retries"),
        "task_reexecutions": _sum_metric(metrics, "task_reexecutions"),
        "io_bytes": io_bytes,
        "phases": phases,
        "bit_identical": bool(np.array_equal(got, want)),
        "max_abs_err": float(np.max(np.abs(got - want))) if len(got) else 0.0,
    }


def run_suite(*, quick: bool = False, tag: str = "dev",
              worker_plane: str | None = None,
              trace_path: str | Path | None = None,
              convergence: bool = False,
              convergence_only: bool = False) -> dict:
    """Run the whole pinned matrix; returns the report dict.

    ``worker_plane`` (``"thread"``/``"process"``) overrides every
    workload's pinned plane — the A/B lever for thread-vs-process runs.
    ``trace_path`` exports the out-of-core workload's Chrome trace.
    ``convergence`` additionally runs the pinned incremental/async
    workload (:func:`run_convergence_suite`) into the report's
    ``convergence`` section; ``convergence_only`` skips the perf matrix
    and produces just that section (the CI convergence-gate leg).
    """
    if convergence_only:
        return {
            "schema": SCHEMA,
            "tag": tag,
            "mode": "quick" if quick else "full",
            "workloads": {},
            "codec_sweep": {},
            "convergence": run_convergence_suite(quick=quick),
            "totals": {"wall_seconds": 0.0, "tasks": 0,
                       "tasks_per_second": 0.0, "bytes_copied": 0},
        }
    workloads = {}
    codec_sweep = {}
    for w in pinned_workloads(quick=quick):
        if worker_plane is not None:
            w = replace(w, worker_plane=worker_plane)
        wl_trace = trace_path if w.name == "out_of_core" else None
        workloads[w.name] = run_workload(w, trace_path=wl_trace)
    # Compression-ratio / bandwidth-tradeoff sweep: the same pinned
    # out-of-core workload re-run under each codec, so the report
    # answers "what do I pay (decode time) and what do I get back
    # (bytes off the disk path)" on one build.
    ooc = next(w for w in pinned_workloads(quick=quick)
               if w.name == "out_of_core")
    for codec in SWEEP_CODECS:
        codec_sweep[codec] = run_workload(
            replace(ooc, name=f"out_of_core[{codec}]", codec=codec),
            repeats=1)
    total_wall = sum(r["wall_seconds"] for r in workloads.values())
    total_tasks = sum(r["tasks"] for r in workloads.values())
    conv = run_convergence_suite(quick=quick) if convergence else None
    report = {
        "schema": SCHEMA,
        "tag": tag,
        "mode": "quick" if quick else "full",
        "workloads": workloads,
        "codec_sweep": codec_sweep,
        "totals": {
            "wall_seconds": round(total_wall, 6),
            "tasks": total_tasks,
            "tasks_per_second": (round(total_tasks / total_wall, 3)
                                 if total_wall > 0 else 0.0),
            "bytes_copied": sum(r["bytes_copied"] for r in workloads.values()),
        },
    }
    if conv is not None:
        report["convergence"] = conv
    return report


def write_report(report: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path


def load_report(path: str | Path) -> dict:
    report = json.loads(Path(path).read_text())
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: schema {report.get('schema')!r}, expected {SCHEMA!r} "
            "(refresh the baseline: python -m repro bench --quick --tag baseline)")
    return report


def check_codec_invariants(current: dict) -> list[str]:
    """Baseline-free gates on the current report's codec sweep.

    These are correctness invariants of the codec pipeline, not
    regressions against history: every codec must reproduce the SciPy
    reference bit-identically, must keep the hot loop's
    ``bytes_copied == 0`` (a codec adds no gather/scatter copy to the
    data plane; its own inflate temporary is not counted), and zlib must
    actually take bytes *off* the disk read path relative to raw on the
    pinned out-of-core workload.
    """
    failures: list[str] = []
    sweep = current.get("codec_sweep", {})
    for codec, r in sorted(sweep.items()):
        if not r.get("bit_identical", False):
            failures.append(
                f"codec_sweep[{codec}]: result not bit-identical to the "
                "SciPy reference (lossless codecs must not change bits)")
        if r.get("bytes_copied", 0) != 0:
            failures.append(
                f"codec_sweep[{codec}]: bytes_copied = "
                f"{r['bytes_copied']}, want 0 (a codec must add no "
                "data-plane copy)")
    if "raw" in sweep and "zlib" in sweep:
        raw_disk = sweep["raw"]["io_bytes"]["disk_read"]
        zlib_disk = sweep["zlib"]["io_bytes"]["disk_read"]
        if not zlib_disk < raw_disk:
            failures.append(
                f"codec_sweep: zlib read {zlib_disk} disk bytes, raw read "
                f"{raw_disk} — compression is not reducing bytes read")
    return failures


def check_regression(current: dict, baseline: dict,
                     *, tolerance_pct: float = 25.0) -> list[str]:
    """Compare a fresh report against the committed baseline.

    Returns failure strings (empty = pass): a per-workload wall-time
    increase beyond ``tolerance_pct``, **any** bytes-copied increase
    (those copies are deterministic, so an increase is a code change,
    not noise), a lost bit-identity, or a violated codec-sweep
    invariant (:func:`check_codec_invariants` — gated on the *current*
    report alone), or a violated convergence invariant
    (:func:`check_convergence_invariants`, likewise current-only).

    A convergence-only candidate (no ``workloads``, produced by
    ``run_suite(convergence_only=True)``) is gated purely on its own
    invariants — there is nothing historical to compare.
    """
    failures: list[str] = check_codec_invariants(current)
    failures += check_convergence_invariants(current)
    if not current.get("workloads") and current.get("convergence"):
        return failures
    if current.get("mode") != baseline.get("mode"):
        failures.append(
            f"mode mismatch: current {current.get('mode')!r} vs baseline "
            f"{baseline.get('mode')!r} — compare like with like")
        return failures
    base_wl = baseline.get("workloads", {})
    cur_wl = current.get("workloads", {})
    for name, base in sorted(base_wl.items()):
        cur = cur_wl.get(name)
        if cur is None:
            failures.append(f"{name}: missing from the current report")
            continue
        b_wall, c_wall = base["wall_seconds"], cur["wall_seconds"]
        if b_wall > 0 and c_wall > b_wall * (1.0 + tolerance_pct / 100.0):
            failures.append(
                f"{name}: wall time regressed {c_wall:.3f}s vs "
                f"{b_wall:.3f}s baseline (>{tolerance_pct:.0f}% tolerance)")
        if cur["bytes_copied"] > base["bytes_copied"]:
            failures.append(
                f"{name}: bytes_copied increased {cur['bytes_copied']} vs "
                f"{base['bytes_copied']} baseline (any increase fails)")
        if not cur.get("bit_identical", False):
            failures.append(f"{name}: result no longer bit-identical to the "
                            "SciPy reference")
    return failures
