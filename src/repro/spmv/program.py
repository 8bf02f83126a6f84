"""Iterated-SpMV DOoC programs.

Builds the task graph of Section IV: per iteration *i*,

* ``mult_i_u_v``: x^i_{u,v} = A_{u,v} * x^{i-1}_v   (one per sub-matrix)
* reduction to x^i_u, under one of two policies:

  - ``"simple"``  — one ``sum_i_u`` task reads every intermediate
    x^i_{u,v}; with the default placement all intermediates travel to the
    node owning the row (the Table III configuration, "all the
    intermediate results are sent to the node that hosts A_{i,0}");
  - ``"interleaved"`` — each owning node first reduces its own
    intermediates (``part_i_u_n``), and a slim ``sum_i_u`` combines the
    per-node partials (the Table IV configuration: "the reduction is
    instead first performed locally by each node before communicating").

Sub-matrices ride in DOoC global arrays as serialized binary-CRS bytes
(single-block uint8 arrays): the storage layer moves untyped buffers,
exactly as DataCutter prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from pathlib import Path
from typing import Dict

import numpy as np

from repro.core.engine import DOoCEngine, Program
from repro.core.opcache import cached_decode
from repro.spmv.csr import CSRBlock
from repro.spmv.csrfile import deserialize_csr, serialize_csr
from repro.spmv.partition import GridPartition, column_owner


def a_name(u: int, v: int) -> str:
    return f"A_{u}_{v}"


def x_name(i: int, u: int) -> str:
    return f"x_{i}_{u}"


def y_name(i: int, u: int, v: int) -> str:
    return f"y_{i}_{u}_{v}"


def part_name(i: int, u: int, n: int) -> str:
    return f"part_{i}_{u}_{n}"


def _decode_a(raw: np.ndarray):
    """Serialized bytes -> SciPy CSR: the per-task decode worth caching.

    Building the ``sp.csr_matrix`` (index-dtype normalization, structure
    checks) is the expensive part of every multiply; the result may share
    memory with the granted read view — safe, because sealed buffers are
    immutable and the operand cache is invalidated (by seal generation)
    whenever the backing bytes are reclaimed.
    """
    return deserialize_csr(raw).to_scipy()


def _csr_nbytes(m) -> int:
    return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def _mult_fn(ins: dict, outs: dict, meta: dict) -> None:
    """x^i_{u,v} = A_{u,v} @ x^{i-1}_v."""
    a = cached_decode(meta, meta["a"], ins[meta["a"]], _decode_a,
                      size_of=_csr_nbytes)
    x = np.asarray(ins[meta["x"]], dtype=np.float64)
    (out_name,) = list(outs)
    outs[out_name][:] = a @ x


def _sum_fn(ins: dict, outs: dict, meta: dict) -> None:
    """Elementwise sum of all inputs."""
    (out_name,) = list(outs)
    out = outs[out_name]
    out[:] = 0.0
    for arr in ins.values():
        out += arr


@dataclass
class IteratedSpMVResult:
    """Program plus the metadata needed to read results back."""

    program: Program
    partition: GridPartition
    iterations: int
    policy: str
    owner: Callable[[int, int], int]

    def final_vector_names(self) -> list[str]:
        return [x_name(self.iterations, u) for u in range(self.partition.k)]

    def fetch_final(self, engine) -> np.ndarray:
        """Gather x^T from a finished engine run."""
        parts = {u: engine.fetch(x_name(self.iterations, u))
                 for u in range(self.partition.k)}
        return self.partition.join_vector(parts)


def build_iterated_spmv(
    blocks: dict[tuple[int, int], CSRBlock],
    x0_parts: dict[int, np.ndarray],
    iterations: int,
    *,
    n_nodes: int = 1,
    policy: str = "simple",
    owner: Callable[[int, int], int] | None = None,
    vector_block_elems: int | None = None,
) -> IteratedSpMVResult:
    """Assemble the DOoC program for T iterations of y = A x.

    ``blocks`` maps grid coordinates to sub-matrices; ``x0_parts`` the
    conforming initial sub-vectors.  ``owner(u, v)`` places sub-matrix
    files on nodes (default: Fig. 5's column ownership).
    """
    if policy not in ("simple", "interleaved"):
        raise ValueError(f"unknown policy {policy!r}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    ks = sorted({u for u, _ in blocks} | {v for _, v in blocks})
    k = len(ks)
    if sorted(blocks) != [(u, v) for u in range(k) for v in range(k)]:
        raise ValueError("blocks must cover a complete K x K grid")
    n = sum(blocks[(u, 0)].nrows for u in range(k))
    partition = GridPartition(n, k)
    for (u, v), b in blocks.items():
        want = (partition.part_length(u), partition.part_length(v))
        if b.shape != want:
            raise ValueError(f"block {(u, v)} has shape {b.shape}, want {want}")
    if sorted(x0_parts) != list(range(k)):
        raise ValueError("x0_parts must have one part per grid row")
    if owner is None:
        owner = column_owner(k, n_nodes)

    prog = Program(f"iterated-spmv-{policy}")

    # Sub-matrices: serialized bytes, one DOoC block each, on their nodes.
    for (u, v), b in blocks.items():
        raw = np.frombuffer(serialize_csr(b), dtype=np.uint8)
        prog.initial_array(a_name(u, v), raw, home=owner(u, v),
                           block_elems=len(raw))

    # Initial vector parts: x_v feeds column v's multiplies; home it with
    # the (first) owner of that column.
    for u in range(k):
        part = np.asarray(x0_parts[u], dtype=np.float64)
        if part.shape != (partition.part_length(u),):
            raise ValueError(f"x0 part {u} has wrong length")
        prog.initial_array(
            x_name(0, u), part, home=owner(0, u),
            block_elems=vector_block_elems or partition.part_length(u),
        )

    vec_block = lambda u: vector_block_elems or partition.part_length(u)  # noqa: E731

    for i in range(1, iterations + 1):
        # Multiplies
        for u, v in partition.coords():
            ylen = partition.part_length(u)
            prog.array(y_name(i, u, v), ylen, block_elems=vec_block(u))
            prog.add_task(
                f"mult_{i}_{u}_{v}",
                _mult_fn,
                [a_name(u, v), x_name(i - 1, v)],
                [y_name(i, u, v)],
                flops=2.0 * blocks[(u, v)].nnz,
                a=a_name(u, v),
                x=x_name(i - 1, v),
            )
        # Reductions
        for u in range(k):
            ylen = partition.part_length(u)
            prog.array(x_name(i, u), ylen, block_elems=vec_block(u))
            if policy == "simple":
                prog.add_task(
                    f"sum_{i}_{u}",
                    _sum_fn,
                    [y_name(i, u, v) for v in range(k)],
                    [x_name(i, u)],
                    flops=float(ylen * (k - 1)),
                )
            else:
                # Per-node partial sums first.
                groups: dict[int, list[int]] = {}
                for v in range(k):
                    groups.setdefault(owner(u, v), []).append(v)
                partial_names = []
                for node, vs in sorted(groups.items()):
                    if len(vs) == 1:
                        # A singleton partial would be a copy; feed the
                        # intermediate straight into the final sum.
                        partial_names.append(y_name(i, u, vs[0]))
                        continue
                    pname = part_name(i, u, node)
                    prog.array(pname, ylen, block_elems=vec_block(u))
                    prog.add_task(
                        f"psum_{i}_{u}_{node}",
                        _sum_fn,
                        [y_name(i, u, v) for v in vs],
                        [pname],
                        flops=float(ylen * (len(vs) - 1)),
                    )
                    partial_names.append(pname)
                if len(partial_names) == 1:
                    # Single owner: rename by a trivial sum (keeps naming
                    # uniform across policies).
                    prog.add_task(
                        f"sum_{i}_{u}",
                        _sum_fn,
                        partial_names,
                        [x_name(i, u)],
                        flops=float(ylen),
                    )
                else:
                    prog.add_task(
                        f"sum_{i}_{u}",
                        _sum_fn,
                        partial_names,
                        [x_name(i, u)],
                        flops=float(ylen * (len(partial_names) - 1)),
                    )
    return IteratedSpMVResult(
        program=prog,
        partition=partition,
        iterations=iterations,
        policy=policy,
        owner=owner,
    )


@dataclass
class IteratedSpMVRun:
    """Outcome of a (possibly chunked and resumed) iterated-SpMV drive."""

    partition: GridPartition
    x_parts: Dict[int, np.ndarray]
    iterations: int                 #: total iterations now complete
    restored_from: int | None = None  #: checkpoint step resumed from
    checkpoint_writes: int = 0
    reports: list = field(default_factory=list)  #: one RunReport per chunk
    #: per-sweep workset history (incremental drives only)
    convergence: object | None = None
    #: did the drive hit a bitwise fixpoint/limit cycle before sweep T?
    fixpoint: bool = False
    #: per-program task/IO accounting (incremental drives only)
    sweep_log: list = field(default_factory=list)

    def join(self) -> np.ndarray:
        """The full iterate x^T, reassembled from its parts."""
        return self.partition.join_vector(self.x_parts)


def run_iterated_spmv(
    blocks: dict[tuple[int, int], CSRBlock],
    x0_parts: dict[int, np.ndarray],
    iterations: int,
    *,
    n_nodes: int = 1,
    policy: str = "simple",
    owner: Callable[[int, int], int] | None = None,
    vector_block_elems: int | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int | None = None,
    resume: bool = False,
    run_timeout: float | None = 120.0,
    engine_kwargs: dict | None = None,
    cancel=None,
    incremental: bool = False,
) -> IteratedSpMVRun:
    """Drive T iterations of y = A x in checkpointed chunks.

    Without ``checkpoint_dir`` this runs one engine program for all
    ``iterations``.  With it, the drive proceeds in chunks of
    ``checkpoint_every`` iterations and persists the iterate's parts at
    every chunk boundary (atomic manifest + per-part sha256, via
    :mod:`repro.recovery.checkpoint`).  ``resume=True`` restarts from the
    newest intact checkpoint: because each chunk re-seeds the engine with
    the exact float64 parts the previous chunk produced, a resumed drive
    reproduces the remaining iterates bit-identically — kill the process
    mid-drive, call again with ``resume=True``, and the final vector
    matches an uninterrupted run byte for byte.

    ``cancel`` (a :class:`repro.core.cancel.CancelToken`) threads into
    every chunk's engine run: setting it raises
    :class:`~repro.core.errors.RunCancelled` out of this call with all
    completed chunk boundaries checkpointed, so a later ``resume=True``
    drive continues bit-identically — the preemption primitive the job
    server builds on.

    ``incremental=True`` switches to delta/workset sweeps (one engine
    program per iteration through :class:`~repro.spmv.ooc_operator.
    OutOfCoreMatrix`): vector partitions whose iterate goes bitwise
    stationary — or enters an exact period-2 last-ulp limit cycle — leave
    the workset, their multiplies are replaced by cached products, and
    the drive exits early at a global fixpoint.  The returned iterate is
    still **bit-identical** to the bulk-synchronous drive for exactly
    ``iterations`` sweeps (a period-2 exit picks the phase matching the
    remaining parity); only the tasks run and bytes read shrink.  See
    ``docs/ITERATION.md``.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    if incremental:
        return _run_incremental_spmv(
            blocks, x0_parts, iterations, n_nodes=n_nodes, policy=policy,
            owner=owner, vector_block_elems=vector_block_elems,
            checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
            resume=resume, run_timeout=run_timeout,
            engine_kwargs=engine_kwargs, cancel=cancel)
    chunk = checkpoint_every or iterations
    parts = {u: np.asarray(p, dtype=np.float64).copy()
             for u, p in x0_parts.items()}
    mgr = None
    done = 0
    restored = None
    if checkpoint_dir is not None:
        from repro.recovery.checkpoint import CheckpointManager
        mgr = CheckpointManager(checkpoint_dir)
        if resume:
            ckpt = mgr.load_latest()
            if ckpt is not None:
                done = restored = ckpt.step
                parts = {int(name[1:]): arr.copy()
                         for name, arr in ckpt.arrays.items()}
    run = IteratedSpMVRun(partition=GridPartition(
        sum(len(p) for p in parts.values()), len(parts)),
        x_parts=parts, iterations=done, restored_from=restored)
    while done < iterations:
        step = min(chunk, iterations - done)
        built = build_iterated_spmv(
            blocks, parts, step, n_nodes=n_nodes, policy=policy,
            owner=owner, vector_block_elems=vector_block_elems)
        eng = DOoCEngine(n_nodes=n_nodes, **dict(engine_kwargs or {}))
        try:
            run.reports.append(eng.run(built.program, timeout=run_timeout,
                                       cancel=cancel))
            # fetch() already concatenates into a fresh array — no copy.
            parts = {u: eng.fetch(x_name(step, u))
                     for u in range(built.partition.k)}
        finally:
            eng.cleanup()
        done += step
        if mgr is not None:
            mgr.save(done, {f"x{u}": parts[u] for u in sorted(parts)},
                     {"iterations": done, "policy": policy})
    run.x_parts = parts
    run.iterations = done
    if mgr is not None:
        run.checkpoint_writes = mgr.writes
    return run


def _run_incremental_spmv(
    blocks: dict[tuple[int, int], CSRBlock],
    x0_parts: dict[int, np.ndarray],
    iterations: int,
    *,
    n_nodes: int,
    policy: str,
    owner: Callable[[int, int], int] | None,
    vector_block_elems: int | None,
    checkpoint_dir: str | Path | None,
    checkpoint_every: int | None,
    resume: bool,
    run_timeout: float | None,
    engine_kwargs: dict | None,
    cancel,
) -> IteratedSpMVRun:
    """Delta/workset drive: one engine program per sweep, frozen columns
    served from the product cache, early exit at a bitwise fixpoint or
    period-2 limit cycle (parity-corrected so x^T matches the bulk drive
    bit for bit)."""
    from repro.core.convergence import ConvergenceTracker
    from repro.spmv.ooc_operator import OutOfCoreMatrix, SweepWorkset

    op = OutOfCoreMatrix(blocks, n_nodes=n_nodes, policy=policy,
                         owner=owner, engine_kwargs=engine_kwargs)
    op.cancel = cancel
    p = op.partition
    parts = {u: np.asarray(x0_parts[u], dtype=np.float64).copy()
             for u in x0_parts}
    if sorted(parts) != list(range(p.k)):
        raise ValueError("x0_parts must have one part per grid row")
    mgr = None
    done = 0
    restored = None
    last_saved: int | None = None
    if checkpoint_dir is not None:
        from repro.recovery.checkpoint import CheckpointManager
        mgr = CheckpointManager(checkpoint_dir)
        if resume:
            ckpt = mgr.load_latest()
            if ckpt is not None:
                done = restored = last_saved = ckpt.step
                parts = {int(name[1:]): arr.copy()
                         for name, arr in ckpt.arrays.items()}
    chunk = checkpoint_every or iterations
    workset = SweepWorkset(op)
    tracker = ConvergenceTracker(p.k, tol=0.0, tracer=op.engine.tracer)
    run = IteratedSpMVRun(partition=p, x_parts=parts, iterations=done,
                          restored_from=restored)
    x = p.join_vector(parts)
    x_two_ago: np.ndarray | None = None
    pending_aux = 0
    try:
        while done < iterations:
            x_new = op.matvec(x, workset=workset)
            record = tracker.observe(
                p.split_vector(x), p.split_vector(x_new),
                tasks_scheduled=op.last_sweep["tasks"],
                aux_tasks=pending_aux)
            pending_aux = 0
            for v in record.reentered:
                workset.thaw(v)
            done += 1
            if (np.array_equal(x_new, x)
                    or (x_two_ago is not None
                        and np.array_equal(x_new, x_two_ago))):
                # x(done) repeats x(done-1) or x(done-2): every later
                # iterate is determined.  Period-1 keeps x_new; a
                # period-2 cycle alternates x_new / x, so pick the phase
                # whose parity matches the requested sweep count T.
                period2 = not np.array_equal(x_new, x)
                if not (period2 and (iterations - done) % 2):
                    x = x_new  # else x(T) == x(done-1) == current x
                run.fixpoint = True
                break
            new_parts = p.split_vector(x_new)
            for v in record.newly_frozen:
                for phase in tracker.phases(v) or (new_parts[v],):
                    pending_aux += workset.freeze(v, phase)
            x_two_ago = x
            x = x_new
            if mgr is not None and done % chunk == 0:
                mgr.save(done, {f"x{u}": arr for u, arr in
                                sorted(p.split_vector(x).items())},
                         {"iterations": done, "policy": policy})
                last_saved = done
    finally:
        workset.close()
        op.engine.cleanup()
    run.x_parts = p.split_vector(x)
    run.iterations = iterations if run.fixpoint else done
    run.convergence = tracker.report
    run.sweep_log = list(op.sweep_log)
    if mgr is not None:
        if last_saved != run.iterations:
            mgr.save(run.iterations,
                     {f"x{u}": arr for u, arr in sorted(run.x_parts.items())},
                     {"iterations": run.iterations, "policy": policy})
        run.checkpoint_writes = mgr.writes
    return run
