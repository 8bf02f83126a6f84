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

from repro.core.convergence import repeat_period
from repro.core.engine import DOoCEngine, Program
from repro.core.opcache import cached_decode
from repro.recovery.checkpoint import CheckpointCadence
from repro.spmv.csr import CSRBlock, matvec_into
from repro.spmv.csrfile import deserialize_csr, serialize_csr
from repro.spmv.partition import GridPartition, column_owner


def a_name(u: int, v: int) -> str:
    return f"A_{u}_{v}"


def x_name(i: int, u: int) -> str:
    return f"x_{i}_{u}"


def _decode_a(raw: np.ndarray) -> CSRBlock:
    """Serialized bytes -> the validated sub-matrix the multiply takes.

    Its three arrays are views of the granted block (no copy: the kernel
    multiplies by the file's indices, in the width the file stores), so
    the decode is the structure checks alone — safe to cache, because
    sealed buffers are immutable and the operand cache is invalidated (by
    seal generation) whenever the backing bytes are reclaimed.
    """
    return deserialize_csr(raw)


def _mult_fn(ins: dict, outs: dict, meta: dict) -> None:
    """x^i_{u,v} = A_{u,v} @ x^{i-1}_v."""
    a = cached_decode(meta, meta["a"], ins[meta["a"]], _decode_a)
    (out_name,) = list(outs)
    matvec_into(a, ins[meta["x"]], outs[out_name])


def _sum_fn(ins: dict, outs: dict, meta: dict) -> None:
    """Elementwise sum of all inputs."""
    (out_name,) = list(outs)
    out = outs[out_name]
    out[:] = 0.0
    for arr in ins.values():
        out += arr


def _bulk_names(i: int) -> Callable[..., str]:
    """Names of the unrolled program's iteration ``i``: ``sum_{i}_{u}``."""
    return lambda kind, *idx: "_".join(map(str, (kind, i, *idx)))


def _sweep_names(prefix: str) -> Callable[..., str]:
    """Names of one operator sweep: ``it{t}_sum_{u}``, ``frozen{t}_y_{u}_{v}``."""
    return lambda kind, *idx: "_".join(map(str, (prefix, kind, *idx)))


def _grid_partition(blocks: dict[tuple[int, int], CSRBlock],
                    policy: str) -> GridPartition:
    """The partition ``blocks`` tile, after checking that they are a
    complete K x K grid of conforming shapes and ``policy`` is known."""
    if policy not in ("simple", "interleaved"):
        raise ValueError(f"unknown policy {policy!r}")
    k = len({u for u, _ in blocks})
    if sorted(blocks) != [(u, v) for u in range(k) for v in range(k)]:
        raise ValueError("blocks must cover a complete K x K grid")
    partition = GridPartition(sum(blocks[(u, 0)].nrows for u in range(k)), k)
    for (u, v), b in blocks.items():
        want = (partition.part_length(u), partition.part_length(v))
        if b.shape != want:
            raise ValueError(f"block {(u, v)} has shape {b.shape}, want {want}")
    return partition


def _vector_parts(partition: GridPartition,
                  x0_parts: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """``x0_parts`` as float64 arrays: one conforming part per grid row."""
    if sorted(x0_parts) != list(range(partition.k)):
        raise ValueError("x0_parts must have one part per grid row")
    parts = {u: np.asarray(x0_parts[u], dtype=np.float64)
             for u in range(partition.k)}
    for u, part in parts.items():
        if part.shape != (partition.part_length(u),):
            raise ValueError(f"x0 part {u} has wrong length")
    return parts


def _declare_multiply(prog: Program, task: str, u: int, v: int, x: str,
                      y: str, ylen: int, block_elems: int, **meta) -> None:
    """Declare ``y`` and the task ``y = A_{u,v} @ x``."""
    prog.array(y, ylen, block_elems=block_elems)
    prog.add_task(task, _mult_fn, [a_name(u, v), x], [y],
                  a=a_name(u, v), x=x, **meta)


def _declare_row_reduction(prog: Program, name: Callable[..., str], u: int,
                           ins: dict[int, str], out: str, ylen: int,
                           block_elems: int, policy: str,
                           owner: Callable[[int, int], int], **meta) -> None:
    """Declare ``out`` and row ``u``'s reduction of ``ins`` (column ->
    product array) into it.

    This function *is* the reduction tree, and so the float summation
    order every bit-identity check rests on.  Products are summed in the
    order of ``ins`` (every caller's is column order): ``simple`` in one
    ``sum`` task; ``interleaved`` first each owning node's (``psum`` into
    ``part``, nodes ascending), then the per-node partials.  A node
    owning a single product has no partial — that would be a copy — and
    feeds it to the final sum directly.  ``name`` spells the tasks and
    partials (:func:`_bulk_names`, :func:`_sweep_names`).
    """
    prog.array(out, ylen, block_elems=block_elems)
    if policy == "simple":
        partials = list(ins.values())
    else:
        groups: dict[int, list[str]] = {}
        for v, y in ins.items():
            groups.setdefault(owner(u, v), []).append(y)
        partials = []
        for node, ys in sorted(groups.items()):
            if len(ys) == 1:
                partials.append(ys[0])
                continue
            part = name("part", u, node)
            prog.array(part, ylen, block_elems=block_elems)
            prog.add_task(name("psum", u, node), _sum_fn, ys, [part], **meta)
            partials.append(part)
    # A single partial is renamed by a trivial sum (uniform naming).
    prog.add_task(name("sum", u), _sum_fn, partials, [out], **meta)


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
    partition = _grid_partition(blocks, policy)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    k = partition.k
    parts = _vector_parts(partition, x0_parts)
    if owner is None:
        owner = column_owner(k, n_nodes)
    vec_block = lambda u: vector_block_elems or partition.part_length(u)  # noqa: E731

    prog = Program(f"iterated-spmv-{policy}")

    # Sub-matrices: serialized bytes, one DOoC block each, on their nodes.
    for (u, v), b in blocks.items():
        raw = serialize_csr(b)
        prog.initial_array(a_name(u, v), raw, home=owner(u, v),
                           block_elems=len(raw))

    # Initial vector parts: x_v feeds column v's multiplies; home it with
    # the (first) owner of that column.
    for u, part in parts.items():
        prog.initial_array(x_name(0, u), part, home=owner(0, u),
                           block_elems=vec_block(u))

    for i in range(1, iterations + 1):
        name = _bulk_names(i)
        for u, v in partition.coords():
            _declare_multiply(prog, name("mult", u, v), u, v,
                              x_name(i - 1, v), name("y", u, v),
                              partition.part_length(u), vec_block(u))
        for u in range(k):
            _declare_row_reduction(
                prog, name, u, {v: name("y", u, v) for v in range(k)},
                x_name(i, u), partition.part_length(u), vec_block(u),
                policy, owner)
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
    ckpt = CheckpointCadence(
        checkpoint_dir,
        iterations if checkpoint_every is None else checkpoint_every,
        resume=resume)
    partition = _grid_partition(blocks, policy)
    parts = _vector_parts(partition, x0_parts)
    done, restored = 0, None
    if ckpt.restored is not None:
        done = restored = ckpt.restored.step
        parts = {int(name[1:]): arr
                 for name, arr in ckpt.restored.arrays.items()}
    run = IteratedSpMVRun(partition=partition, x_parts=parts, iterations=done,
                          restored_from=restored)

    def save(step: int, parts: dict[int, np.ndarray], *, force: bool) -> None:
        ckpt.save(step, {f"x{u}": parts[u] for u in sorted(parts)},
                  {"iterations": step, "policy": policy}, force=force)

    if not incremental:
        while done < iterations:
            # Everything left in one program, unless there are chunk
            # boundaries to checkpoint.
            step = iterations - done
            if ckpt.manager is not None:
                step = min(ckpt.every, step)
            built = build_iterated_spmv(
                blocks, parts, step, n_nodes=n_nodes, policy=policy,
                owner=owner, vector_block_elems=vector_block_elems)
            eng = DOoCEngine(n_nodes=n_nodes, **dict(engine_kwargs or {}))
            try:
                run.reports.append(eng.run(built.program, cancel=cancel))
                parts = {u: eng.fetch(name)
                         for u, name in enumerate(built.final_vector_names())}
            finally:
                eng.cleanup()
            done += step
            save(done, parts, force=True)
    else:
        from repro.spmv.ooc_operator import OutOfCoreMatrix, SweepWorkset

        op = OutOfCoreMatrix(blocks, n_nodes=n_nodes, policy=policy,
                             owner=owner, engine_kwargs=engine_kwargs)
        op.cancel = cancel
        workset = SweepWorkset(op)
        x = partition.join_vector(parts)
        x_two_ago: np.ndarray | None = None
        try:
            while done < iterations:
                x_new = op.matvec(x, workset=workset)
                done += 1
                period = repeat_period(x_new, x, x_two_ago)
                run.fixpoint = period > 0
                workset.observe(x, x_new)
                if run.fixpoint:
                    # x(done) repeats x(done-1) or x(done-2): every later
                    # iterate is determined.  Period-1 keeps x_new; a
                    # period-2 cycle alternates x_new / x, so pick the
                    # phase whose parity matches the requested count T
                    # (else x(T) == x(done-1), the current x).
                    if period == 1 or (iterations - done) % 2 == 0:
                        x = x_new
                    done = iterations
                    break
                x_two_ago, x = x, x_new
                save(done, partition.split_vector(x), force=False)
        finally:
            workset.close()
            op.engine.cleanup()
        parts = partition.split_vector(x)
        run.convergence = workset.tracker.report
        run.sweep_log = list(op.sweep_log)
        save(done, parts, force=True)
    run.x_parts = parts
    run.iterations = done
    run.checkpoint_writes = ckpt.writes
    return run
