"""An out-of-core blocked matrix as a reusable linear operator.

``OutOfCoreMatrix`` owns a DOoC engine whose scratch directories hold the
K x K binary-CSR sub-matrix files (seeded once); every ``matvec`` builds
and runs a DOoC program (multiplies + policy-dependent reductions).  The
Lanczos, Jacobi, and conjugate-gradient solvers all drive their heavy
SpMVs through this one operator — "developing more linear algebra kernels
[to] lower the bar for the application scientists" (Section VII).
"""

from __future__ import annotations

from pathlib import Path
from collections.abc import Callable
from typing import Dict

import numpy as np

from repro.core.engine import DOoCEngine, Program
from repro.core.iofilter import write_array
from repro.core.array import ArrayDesc
from repro.spmv.csr import CSRBlock
from repro.spmv.csrfile import serialize_csr
from repro.spmv.partition import GridPartition, column_owner
from repro.spmv.program import _mult_fn, _sum_fn, a_name


class OutOfCoreMatrix:
    """y = A @ x with A resident on disk, executed through DOoC."""

    def __init__(
        self,
        blocks: dict[tuple[int, int], CSRBlock],
        *,
        n_nodes: int = 1,
        workers: int | None = None,
        memory_budget_per_node: int = 256 * 2**20,
        scratch_dir: str | Path | None = None,
        policy: str = "interleaved",
        owner: Callable[[int, int], int] | None = None,
        rng_seed: int = 0,
        gc_arrays: bool = True,
        engine_kwargs: dict | None = None,
    ):
        ks = sorted({u for u, _ in blocks})
        k = len(ks)
        if sorted(blocks) != [(u, v) for u in range(k) for v in range(k)]:
            raise ValueError("blocks must cover a complete K x K grid")
        n = sum(blocks[(u, 0)].nrows for u in range(k))
        self.partition = GridPartition(n, k)
        for (u, v), b in blocks.items():
            want = (self.partition.part_length(u), self.partition.part_length(v))
            if b.shape != want:
                raise ValueError(f"block {(u, v)} has shape {b.shape}, want {want}")
        if policy not in ("simple", "interleaved"):
            raise ValueError(f"unknown policy {policy!r}")
        self.policy = policy
        self.k = k
        self.n = n
        self.owner = owner or column_owner(k, n_nodes)
        # Extra engine knobs (fault plans, watchdog, worker plane) for
        # callers like the job server; they override the named defaults.
        eng_kwargs = dict(
            n_nodes=n_nodes,
            workers=workers,
            memory_budget_per_node=memory_budget_per_node,
            scratch_dir=scratch_dir,
            rng_seed=rng_seed,
            gc_arrays=gc_arrays,
        )
        eng_kwargs.update(engine_kwargs or {})
        self.engine = DOoCEngine(**eng_kwargs)
        self._a_raw_len: dict[tuple[int, int], int] = {}
        self._nnz: dict[tuple[int, int], int] = {}
        #: stored frozen-column products: array -> (length, home node)
        self._products: dict[str, tuple[int, int]] = {}
        self.matvec_count = 0
        #: one summary dict per engine program run through this operator
        #: (matvecs, frozen-column product programs, async rounds):
        #: ``{"sweep", "mode", "active", "tasks", "disk_bytes_read",
        #: "wall_seconds"}`` — the accounting the workset-dropout
        #: invariants (tests/test_convergence.py) read.
        self.sweep_log: list[dict] = []
        self.last_sweep: dict | None = None
        #: optional CancelToken threaded into every matvec's engine run;
        #: a supervisor sets it to interrupt a solver *inside* an SpMV
        #: (the solver sees RunCancelled propagate out of matvec).
        self.cancel = None
        # Seed the sub-matrix files once, on their owning nodes.
        for (u, v), b in blocks.items():
            raw = np.frombuffer(serialize_csr(b), dtype=np.uint8)
            self._a_raw_len[(u, v)] = len(raw)
            self._nnz[(u, v)] = b.nnz
            desc = ArrayDesc(a_name(u, v), length=len(raw), dtype="uint8",
                             block_elems=len(raw))
            write_array(self.engine.node_scratch(self.owner(u, v)), desc, raw)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def matvec(self, x: np.ndarray, *, workset: "SweepWorkset | None" = None,
               frontier: bool = False) -> np.ndarray:
        """One out-of-core SpMV as a DOoC program.

        ``workset`` runs an incremental sweep: frozen columns' cached
        products are seeded into the program (same array names, same
        reduction-input positions) instead of being recomputed, so their
        sub-matrix files are never read and the float summation order is
        unchanged — the result stays bit-identical to the bulk sweep.

        ``frontier=True`` runs sparse frontier propagation: columns whose
        sub-vector is entirely zero contribute exactly zero and are
        skipped outright; rows with no surviving input get a zero output
        without scheduling any task.  (Sums accumulate into a fresh
        +0.0 buffer, so dropping zero summands cannot change bits.)
        """
        if workset is not None and frontier:
            raise ValueError("workset and frontier modes are mutually "
                             "exclusive")
        if x.shape != (self.n,):
            raise ValueError(f"x has shape {x.shape}, want ({self.n},)")
        t = self.matvec_count
        self.matvec_count += 1
        p = self.partition
        parts = p.split_vector(np.asarray(x, dtype=np.float64))
        if workset is not None:
            if workset.operator is not self:
                raise ValueError("workset belongs to a different operator")
            active, _ = workset.refresh(parts)
            mode = "workset"
        elif frontier:
            active = [v for v in range(self.k) if np.any(parts[v])]
            mode = "frontier"
        else:
            active = list(range(self.k))
            mode = "full"
        active_set = frozenset(active)
        frozen_set = workset.frozen if workset is not None else frozenset()
        meta_extra: dict = {}
        if mode == "workset":
            meta_extra = {"workset_sweep": t,
                          "workset_active": tuple(active),
                          "workset_frozen": tuple(sorted(frozen_set))}
        elif mode == "frontier":
            meta_extra = {"frontier": tuple(active)}
        prog = Program(f"ooc-matvec-{t}")
        self._declare_constants(prog)
        for v in active:
            prog.initial_array(f"it{t}_x_{v}", parts[v], home=self.owner(0, v),
                               block_elems=len(parts[v]))
        produced: list[int] = []
        for u in range(self.k):
            ylen = p.part_length(u)
            ins: dict[int, str] = {}
            for v in range(self.k):
                if v in active_set:
                    yn = f"it{t}_y_{u}_{v}"
                    prog.array(yn, ylen, block_elems=ylen)
                    prog.add_task(
                        f"it{t}_mult_{u}_{v}", _mult_fn,
                        [a_name(u, v), f"it{t}_x_{v}"], [yn],
                        flops=2.0 * self._nnz[(u, v)],
                        a=a_name(u, v), x=f"it{t}_x_{v}", **meta_extra,
                    )
                    ins[v] = yn
                elif v in frozen_set:
                    # Frozen column: its product is a constant stored at
                    # freeze time; it takes the exact input position a
                    # fresh multiply would fill.
                    ins[v] = workset.product(u, v)
                # frontier-inactive columns contribute exactly zero: no
                # input array at all
            if not ins:
                continue  # y_u is exactly zero; nothing to schedule
            produced.append(u)
            prog.array(f"it{t}_out_{u}", ylen, block_elems=ylen)
            self._reduce_tasks(prog, t, u, ins, ylen, meta_extra)
        report = self.engine.run(prog, cancel=self.cancel)
        produced_set = set(produced)
        out = {u: (self.engine.fetch(f"it{t}_out_{u}")
                   if u in produced_set else np.zeros(p.part_length(u)))
               for u in range(self.k)}
        self._cleanup(prog, t)
        self._log_sweep(t, mode, active, len(prog.tasks), report)
        if frontier:
            self.engine.tracer.counter(-1, "driver", "converge",
                                       "frontier_size", len(active), sweep=t)
        return p.join_vector(out)

    def _declare_constants(self, prog: Program) -> None:
        """Declare every sub-matrix and every stored frozen-column product
        from scratch, read by ``prog`` or not: the engine keeps resident
        from one run to the next only what the next program declares."""
        for (u, v), raw_len in self._a_raw_len.items():
            prog.initial_from_scratch(
                a_name(u, v), raw_len, home=self.owner(u, v),
                dtype="uint8", block_elems=raw_len)
        for name, (length, home) in self._products.items():
            prog.initial_from_scratch(name, length, home=home,
                                      block_elems=length)

    def _reduce_tasks(self, prog: Program, t: int, u: int,
                      ins: dict[int, str], ylen: int,
                      meta_extra: dict) -> None:
        """Row ``u``'s reduction over the included columns' products
        ``ins`` (column -> array) — the same policy tree (and float
        summation order) as the bulk sweep restricted to ``ins``."""
        if self.policy == "simple":
            prog.add_task(
                f"it{t}_sum_{u}", _sum_fn,
                list(ins.values()), [f"it{t}_out_{u}"],
                flops=float(ylen * (len(ins) - 1)), **meta_extra,
            )
            return
        groups: dict[int, list[str]] = {}
        for v, yn in ins.items():
            groups.setdefault(self.owner(u, v), []).append(yn)
        partials = []
        for node, yns in sorted(groups.items()):
            if len(yns) == 1:
                partials.append(yns[0])
                continue
            pname = f"it{t}_part_{u}_{node}"
            prog.array(pname, ylen, block_elems=ylen)
            prog.add_task(
                f"it{t}_psum_{u}_{node}", _sum_fn, yns, [pname],
                flops=float(ylen * (len(yns) - 1)), **meta_extra,
            )
            partials.append(pname)
        prog.add_task(
            f"it{t}_sum_{u}", _sum_fn, partials, [f"it{t}_out_{u}"],
            flops=float(ylen * max(len(partials) - 1, 1)), **meta_extra,
        )

    def _log_sweep(self, tag: int, mode: str, active, tasks: int,
                   report) -> dict:
        entry = {
            "sweep": tag,
            "mode": mode,
            "active": tuple(active),
            "tasks": tasks,
            "disk_bytes_read": int(sum(
                per.get("disk_bytes_read", 0)
                for per in report.metrics.values())),
            "wall_seconds": report.wall_seconds,
        }
        self.sweep_log.append(entry)
        self.last_sweep = entry
        self.engine.tracer.counter(-1, "driver", "converge", "sweep_tasks",
                                   tasks, sweep=tag, mode=mode)
        return entry

    def column_products(self, v: int, x_v: np.ndarray) -> dict[int, str]:
        """All of one column's products, ``y_{u,v} = A_{u,v} @ x_v``, as
        constants that later sweeps declare from scratch.

        One slim multiply-only program whose outputs are terminal and
        named to outlive it; each is persisted once on the node that
        produced it, and the names are returned by row.
        :class:`SweepWorkset` calls this once when column ``v`` freezes;
        because the multiply kernel is deterministic, the stored products
        are bit-identical to what later sweeps would have recomputed from
        the stationary ``x_v`` (:meth:`drop_products` unlinks them).
        """
        x_v = np.asarray(x_v, dtype=np.float64)
        want = (self.partition.part_length(v),)
        if x_v.shape != want:
            raise ValueError(f"x_v has shape {x_v.shape}, want {want}")
        t = self.matvec_count
        self.matvec_count += 1
        prog = Program(f"ooc-colprod-{t}")
        self._declare_constants(prog)
        xn = f"it{t}_x_{v}"
        prog.initial_array(xn, x_v, home=self.owner(0, v),
                           block_elems=len(x_v))
        names = {u: f"frozen{t}_y_{u}_{v}" for u in range(self.k)}
        for u, yn in names.items():
            ylen = self.partition.part_length(u)
            prog.array(yn, ylen, block_elems=ylen)
            prog.add_task(
                f"it{t}_mult_{u}_{v}", _mult_fn,
                [a_name(u, v), xn], [yn],
                flops=2.0 * self._nnz[(u, v)],
                a=a_name(u, v), x=xn, frozen_column=v,
            )
        report = self.engine.run(prog, cancel=self.cancel)
        for u, yn in names.items():
            self._products[yn] = (self.partition.part_length(u),
                                  self.engine.persist(yn))
        self._cleanup(prog, t)
        self._log_sweep(t, "colprod", (v,), len(prog.tasks), report)
        return names

    def drop_products(self, names: dict[int, str]) -> None:
        """Unlink what :meth:`column_products` stored under ``names``."""
        from repro.core.iofilter import delete_array_file

        for name in names.values():
            _length, home = self._products.pop(name)
            delete_array_file(self.engine.node_scratch(home), name)

    def stale_sweep(self, versions: list[dict[int, np.ndarray]],
                    choice: dict[tuple[int, int], int]) -> dict[int, np.ndarray]:
        """One chaotic-relaxation round: ``y_u = sum_v A_{u,v} @ x_v^(-age)``.

        ``versions[age]`` holds the iterate's parts ``age`` rounds ago
        (0 = newest); ``choice[(u, v)]`` is the age each multiply reads —
        the async-Jacobi driver draws it from a seeded generator, bounded
        by the staleness knob, so a run models uncoordinated progress yet
        stays deterministic and replayable.  Returns the output parts.
        """
        if not versions:
            raise ValueError("need at least one iterate version")
        k = self.k
        p = self.partition
        for (u, v), age in choice.items():
            if not (0 <= age < len(versions)):
                raise ValueError(f"choice[{(u, v)}] = {age} out of range")
        t = self.matvec_count
        self.matvec_count += 1
        prog = Program(f"ooc-async-{t}")
        self._declare_constants(prog)
        used = sorted({(v, choice.get((u, v), 0))
                       for u in range(k) for v in range(k)})
        for v, age in used:
            part = np.asarray(versions[age][v], dtype=np.float64)
            prog.initial_array(f"it{t}_x_{v}_s{age}", part,
                               home=self.owner(0, v), block_elems=len(part))
        for u in range(k):
            ylen = p.part_length(u)
            for v in range(k):
                age = choice.get((u, v), 0)
                yn = f"it{t}_y_{u}_{v}"
                prog.array(yn, ylen, block_elems=ylen)
                prog.add_task(
                    f"it{t}_mult_{u}_{v}", _mult_fn,
                    [a_name(u, v), f"it{t}_x_{v}_s{age}"], [yn],
                    flops=2.0 * self._nnz[(u, v)],
                    a=a_name(u, v), x=f"it{t}_x_{v}_s{age}", staleness=age,
                )
            prog.array(f"it{t}_out_{u}", ylen, block_elems=ylen)
            self._reduce_tasks(
                prog, t, u, {v: f"it{t}_y_{u}_{v}" for v in range(k)},
                ylen, {})
        report = self.engine.run(prog, cancel=self.cancel)
        out = {u: self.engine.fetch(f"it{t}_out_{u}") for u in range(k)}
        self._cleanup(prog, t)
        self._log_sweep(t, "async", tuple(range(k)), len(prog.tasks), report)
        max_age = max(choice.values()) if choice else 0
        self.engine.tracer.instant(-1, "driver", "converge", "async_round",
                                   sweep=t, max_age=max_age)
        return out

    def _cleanup(self, prog: Program, t: int) -> None:
        """Unlink this matvec's per-iteration scratch files (the seeded x
        parts and any spilled temporaries); the sub-matrix files persist.

        The files are those of the ``it{t}_`` arrays ``prog`` declared,
        looked for on every node (a rerouted or recovered array changes
        home mid-run) — by name, without listing the directories."""
        from repro.core.iofilter import delete_array_file

        prefix = f"it{t}_"
        names = [name for name in prog.arrays if name.startswith(prefix)]
        for node in range(self.engine.n_nodes):
            scratch = self.engine.node_scratch(node)
            for name in names:
                delete_array_file(scratch, name)

    def diagonal(self) -> np.ndarray:
        """The matrix diagonal, read block by block from the stored files
        (needed by Jacobi; cheap: only the diagonal grid blocks load)."""
        from repro.core.iofilter import read_array
        from repro.spmv.csrfile import deserialize_csr

        diag = np.zeros(self.n)
        for u in range(self.k):
            raw_len = self._a_raw_len[(u, u)]
            desc = ArrayDesc(a_name(u, u), length=raw_len, dtype="uint8",
                             block_elems=raw_len)
            raw = read_array(
                self.engine.node_scratch(self.owner(u, u)), desc)
            block = deserialize_csr(raw)
            lo, hi = self.partition.part_range(u)
            diag[lo:hi] = _block_diagonal(block)
        return diag


def _block_diagonal(block: CSRBlock) -> np.ndarray:
    """Diagonal of a square CSR block: the first stored ``(i, i)`` entry
    of each row, 0.0 where there is none."""
    rows = np.repeat(np.arange(block.nrows), np.diff(block.indptr))
    hits = np.flatnonzero(block.indices == rows)
    hit_rows, first = np.unique(rows[hits], return_index=True)
    out = np.zeros(block.nrows)
    out[hit_rows] = block.values[hits[first]]
    return out


class SweepWorkset:
    """Stored products of frozen columns for incremental sweeps.

    When a :class:`~repro.core.convergence.ConvergenceTracker` declares a
    column stationary, ``freeze(v, x_v)`` computes ``A_{u,v} @ x_v`` for
    every row once (one slim column-products program) and writes the
    products to scratch; later ``matvec(x, workset=...)`` calls declare
    those files in place of fresh multiplies — the frozen column's
    sub-matrix files drop off the per-sweep read path entirely, and the
    products, unchanged files read by run after run, stay resident in the
    engine's stores like the sub-matrices do.

    The store is **content-addressed by the iterate's bits**: a frozen
    column may hold up to two phase entries (near convergence, Jacobi
    iterates often settle into an exact period-2 last-ulp oscillation
    rather than a period-1 fixpoint), and ``refresh`` selects whichever
    entry matches the incoming ``x_v`` bitwise.  A frozen column whose
    ``x_v`` matches *no* stored phase is thawed automatically, so stale
    products can never change the result — dropout removes work, never
    accuracy.  ``close()`` unlinks whatever is still stored.
    """

    #: phase entries kept per frozen column (period-1 or period-2 cycles)
    MAX_PHASES = 2

    def __init__(self, operator: OutOfCoreMatrix):
        self.operator = operator
        #: column -> list of (x bits, product-array-names-by-row) entries
        self._entries: Dict[int, list[tuple[np.ndarray, Dict[int, str]]]] = {}
        #: column -> products selected by the last ``refresh``
        self._selected: Dict[int, Dict[int, str]] = {}
        #: freeze-time product tasks spent so far (dropout accounting)
        self.aux_tasks = 0

    @property
    def frozen(self) -> frozenset[int]:
        return frozenset(self._entries)

    def freeze(self, v: int, x_v: np.ndarray) -> int:
        """Store column ``v``'s products at phase value ``x_v``; returns
        the number of auxiliary (product) tasks spent."""
        x_v = np.array(x_v, dtype=np.float64, copy=True)
        entries = self._entries.setdefault(v, [])
        if any(np.array_equal(x_v, cached) for cached, _ in entries):
            return 0
        products = self.operator.column_products(v, x_v)
        entries.append((x_v, products))
        for _, evicted in entries[:-self.MAX_PHASES]:
            self.operator.drop_products(evicted)
        del entries[:-self.MAX_PHASES]
        self._selected.setdefault(v, products)
        self.aux_tasks += self.operator.k
        return self.operator.k

    def thaw(self, v: int) -> None:
        for _, products in self._entries.pop(v, ()):
            self.operator.drop_products(products)
        self._selected.pop(v, None)

    def close(self) -> None:
        """Thaw every column (unlinks the stored products)."""
        for v in list(self._entries):
            self.thaw(v)

    def product(self, u: int, v: int) -> str:
        """Name of the array holding ``A_{u,v} @ x_v`` for the phase the
        last ``refresh`` selected."""
        return self._selected[v][u]

    def refresh(self, parts: Dict[int, np.ndarray],
                ) -> tuple[list[int], tuple[int, ...]]:
        """Select the phase entry matching each frozen column's incoming
        iterate; thaw columns that match none.  Returns the active column
        list and the columns thawed."""
        thawed = []
        for v in sorted(self._entries):
            selected = None
            for cached, products in self._entries[v]:
                if np.array_equal(parts[v], cached):
                    selected = products
                    break
            if selected is None:
                thawed.append(v)
            else:
                self._selected[v] = selected
        for v in thawed:
            self.thaw(v)
        active = [v for v in range(self.operator.k) if v not in self._entries]
        return active, tuple(thawed)
