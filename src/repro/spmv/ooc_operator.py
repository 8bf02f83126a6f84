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

import numpy as np

from repro.core.convergence import ConvergenceTracker, SweepRecord
from repro.core.engine import DOoCEngine, Program
from repro.core.iofilter import write_array
from repro.core.array import ArrayDesc
from repro.spmv.csr import CSRBlock
from repro.spmv.csrfile import serialize_csr
from repro.spmv.partition import column_owner
from repro.spmv.program import (
    _declare_multiply,
    _declare_row_reduction,
    _grid_partition,
    _sweep_names,
    a_name,
)


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
        self.partition = _grid_partition(blocks, policy)
        self.policy = policy
        self.k = self.partition.k
        self.n = self.partition.n
        self.owner = owner or column_owner(self.k, n_nodes)
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
        # Seed the sub-matrix files once, on their owning nodes.  They are
        # this operator's private copies (a new operator writes its own),
        # so nothing reads them after a crash and they skip the fsync.
        for (u, v), b in blocks.items():
            raw = serialize_csr(b)
            self._a_raw_len[(u, v)] = len(raw)
            desc = ArrayDesc(a_name(u, v), length=len(raw), dtype="uint8",
                             block_elems=len(raw))
            write_array(self.engine.node_scratch(self.owner(u, v)), desc, raw,
                        durable=False)

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
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"x has shape {x.shape}, want ({self.n},)")
        if workset is not None and workset.operator is not self:
            raise ValueError("workset belongs to a different operator")
        p = self.partition
        parts = p.split_vector(x)
        stored = {}
        if workset is not None:
            stored = workset.refresh(parts)
            active = [v for v in range(self.k) if v not in stored]
            mode = "workset"
            meta = {"workset_sweep": self.matvec_count,  # this sweep's number
                    "workset_active": tuple(active),
                    "workset_frozen": tuple(sorted(stored))}
        elif frontier:
            active = [v for v in range(self.k) if np.any(parts[v])]
            mode, meta = "frontier", {"frontier": tuple(active)}
        else:
            active, mode, meta = list(range(self.k)), "full", {}
        # An active column is multiplied; a frozen column's stored product
        # takes the exact input position a fresh multiply would fill; a
        # frontier-inactive column contributes exactly zero: no input.
        live = frozenset(active)
        feeds = {u: {v: v if v in live else stored[v][u]
                     for v in range(self.k) if v in live or v in stored}
                 for u in range(self.k)}
        t, rows, _ = self._sweep("matvec", mode, active,
                                 {v: (v, parts[v], {}) for v in active},
                                 feeds, meta=meta)
        if frontier:
            self.engine.tracer.counter(-1, "driver", "converge",
                                       "frontier_size", len(active), sweep=t)
        # A row nothing fed is exactly zero; no task was scheduled for it.
        return p.join_vector({u: rows[u] if u in rows
                              else np.zeros(p.part_length(u))
                              for u in range(self.k)})

    def _sweep(self, label: str, mode: str, active, seeds: dict, feeds: dict,
               *, meta: dict | None = None, persist: bool = False):
        """Build, run and account for one engine program over A — the one
        place an iterate enters the engine.

        ``seeds[tag] = (v, data, meta)`` seeds a version of column ``v``'s
        iterate part as ``it{t}_x_{tag}`` on the column's home; ``meta``
        goes on every multiply that reads it.  ``feeds[u][v]`` says what
        column ``v`` contributes to row ``u``: a seed's tag (a multiply by
        ``A_{u,v}`` is declared) or, for anything else, the name of a
        stored product (a constant of the program).  Rows are reduced
        under the operator's policy and fetched; a row nothing feeds is
        absent.  With ``persist`` the products are the result instead:
        nothing is reduced, each is named ``frozen{t}_…`` so that
        ``_cleanup`` leaves it, persisted on the node that produced it
        and declared by every later sweep.  ``meta`` goes on every task.
        Returns the sweep number, the fetched rows by row, and the
        persisted products' names by row and column.
        """
        t = self.matvec_count
        self.matvec_count += 1
        meta = meta or {}
        name = _sweep_names(f"it{t}")
        product = _sweep_names(f"frozen{t}") if persist else name
        prog = Program(f"ooc-{label}-{t}")
        self._declare_constants(prog)
        for tag, (v, part, _) in seeds.items():
            prog.initial_array(name("x", tag), part, home=self.owner(0, v),
                               block_elems=len(part))
        reduced: list[int] = []
        products: dict[int, dict[int, str]] = {}
        for u, feed in feeds.items():
            ylen = self.partition.part_length(u)
            ins: dict[int, str] = {}
            for v, src in feed.items():
                if src not in seeds:
                    ins[v] = src
                    continue
                ins[v] = product("y", u, v)
                _declare_multiply(prog, name("mult", u, v), u, v,
                                  name("x", src), ins[v], ylen, ylen,
                                  **seeds[src][2], **meta)
            if persist:
                products[u] = ins
            elif ins:
                _declare_row_reduction(prog, name, u, ins, name("out", u),
                                       ylen, ylen, self.policy, self.owner,
                                       **meta)
                reduced.append(u)
        report = self.engine.run(prog, cancel=self.cancel)
        rows = {u: self.engine.fetch(name("out", u)) for u in reduced}
        for u, ins in products.items():
            for yn in ins.values():
                self._products[yn] = (self.partition.part_length(u),
                                      self.engine.persist(yn))
        self._cleanup(prog, t)
        self._log_sweep(t, mode, active, len(prog.tasks), report)
        return t, rows, products

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
        :class:`SweepWorkset` calls this once per frozen phase of column
        ``v``; because the multiply kernel is deterministic, the stored
        products are bit-identical to what later sweeps would have
        recomputed from the stationary ``x_v`` (:meth:`drop_products`
        unlinks them).
        """
        x_v = np.asarray(x_v, dtype=np.float64)
        want = (self.partition.part_length(v),)
        if x_v.shape != want:
            raise ValueError(f"x_v has shape {x_v.shape}, want {want}")
        _, _, products = self._sweep(
            "colprod", "colprod", (v,), {v: (v, x_v, {})},
            {u: {v: v} for u in range(self.k)},
            meta={"frozen_column": v}, persist=True)
        return {u: names[v] for u, names in products.items()}

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
        for (u, v), age in choice.items():
            if not (0 <= age < len(versions)):
                raise ValueError(f"choice[{(u, v)}] = {age} out of range")
        age = lambda u, v: choice.get((u, v), 0)
        used = sorted({(v, age(u, v)) for u in range(k) for v in range(k)})
        t, rows, _ = self._sweep(
            "async", "async", tuple(range(k)),
            {f"{v}_s{a}": (v, np.asarray(versions[a][v], dtype=np.float64),
                           {"staleness": a}) for v, a in used},
            {u: {v: f"{v}_s{age(u, v)}" for v in range(k)} for u in range(k)})
        max_age = max(choice.values()) if choice else 0
        self.engine.tracer.instant(-1, "driver", "converge", "async_round",
                                   sweep=t, max_age=max_age)
        return rows

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

    The workset owns the :class:`~repro.core.convergence.ConvergenceTracker`
    (``tracker``), the one record of which columns are frozen, at which
    phases, and under which product names; a drive calls :meth:`observe`
    once per sweep and never freezes or thaws by hand.  The workset only
    computes, attaches and unlinks products: the first sweep that meets a
    frozen phase runs one slim column-products program for it and writes
    ``A_{u,v} @ x_v`` for every row to scratch; that sweep and the later
    ones declare those files in place of fresh multiplies — the frozen
    column's sub-matrix files drop off the per-sweep read path entirely,
    and the products, unchanged files read by run after run, stay
    resident in the engine's stores like the sub-matrices do.

    Products are **content-addressed by the iterate's bits**: a column
    frozen on an exact period-2 last-ulp oscillation has two phases, and
    each sweep uses the one its incoming ``x_v`` matches bitwise.  A
    frozen column whose ``x_v`` matches *no* phase is thawed by the
    tracker, so stale products can never change the result — dropout
    removes work, never accuracy.  Products of a thawed column are
    unlinked; ``close()`` unlinks whatever is still stored.
    """

    def __init__(self, operator: OutOfCoreMatrix):
        self.operator = operator
        self.tracker = ConvergenceTracker(operator.k,
                                          tracer=operator.engine.tracer)
        #: product tasks spent since the last ``observe`` reported them
        self._pending_aux = 0

    @property
    def frozen(self) -> frozenset[int]:
        return self.tracker.frozen

    def observe(self, x: np.ndarray, x_new: np.ndarray) -> SweepRecord:
        """The workset step, once per sweep: tell the tracker that the
        sweep just run through the operator took ``x`` to ``x_new``; it
        thaws the columns that moved again and freezes the newly
        stationary ones."""
        p = self.operator.partition
        record = self.tracker.observe(
            p.split_vector(x), p.split_vector(x_new),
            tasks_scheduled=self.operator.last_sweep["tasks"],
            aux_tasks=self._pending_aux)
        self._pending_aux = 0
        self._unlink_released()
        return record

    def freeze(self, v: int, x_v: np.ndarray) -> dict[int, str]:
        """Freeze column ``v`` at phase value ``x_v`` with its products
        stored; returns their names by row."""
        products = self.operator.column_products(v, x_v)
        self._pending_aux += self.operator.k
        self.tracker.freeze(v, x_v, products)
        self._unlink_released()
        return products

    def refresh(self, parts: dict[int, np.ndarray],
                ) -> dict[int, dict[int, str]]:
        """The products of each frozen column at the phase its incoming
        part matches, by column and row, stored now if the phase has none
        yet; the tracker thaws a column whose part matches no phase."""
        chosen = self.tracker.select(parts)
        self._unlink_released()
        return {v: products or self.freeze(v, parts[v])
                for v, products in chosen.items()}

    def close(self) -> None:
        """Thaw every column (unlinks the stored products)."""
        for v in self.tracker.frozen:
            self.tracker.thaw(v)
        self._unlink_released()

    def _unlink_released(self) -> None:
        for products in self.tracker.released():
            self.operator.drop_products(products)
