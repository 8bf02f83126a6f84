"""Per-block convergence tracking for incremental (delta/workset) sweeps.

Bulk-synchronous iteration pays the full data-movement bill every sweep,
even for partitions that can no longer change the answer.  Following
"Spinning Fast Iterative Data Flows" (PAPERS.md), the tracker below gives
solvers a *workset*: each sweep it compares every partition's iterate
before and after the update and freezes the ones that went stationary, so
drivers can stop generating tasks (and stop re-reading sub-matrix files)
for them.

The freeze rule is **bitwise** (``np.array_equal``): re-multiplying an
unchanged ``x_v`` is deterministic, so reusing stored products is
bit-identical to recomputing them, and incremental runs keep the
bit-identity verdict against the SciPy reference (docs/ITERATION.md,
"Verdict applicability").

Floating-point Jacobi sweeps rarely land on an exact period-1 fixpoint:
near convergence the per-element update ``r_i / d_i`` sits right at the
last-ulp boundary and round-to-nearest makes the iterate *oscillate
between two adjacent floats* forever (the residual floor and the
absorption threshold are the same order, ``eps * |x|``).  The tracker
therefore also detects exact **period-2 limit cycles** — ``x_v(t)``
bitwise equal to ``x_v(t-2)`` — and freezes those partitions with *both*
phase values.

The tracker is the one record of the workset: each frozen phase keeps,
beside its bits, what the driver stored for it (a ``SweepWorkset``, the
names of the phase's block products).  Only the tracker thaws a
partition: when :meth:`~ConvergenceTracker.observe` sees its iterate
move again (a tiny update can be absorbed one sweep and resolvable the
next), or when a sweep's incoming part matches none of its phases
(:meth:`~ConvergenceTracker.select`).  So stored values never meet an
iterate they were not made from, and dropout changes only the work
done, never the computed values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ConvergenceTracker", "ConvergenceReport", "SweepRecord",
           "repeat_period"]


def repeat_period(x_new, x, x_two_ago) -> int:
    """1 if a sweep reproduced its input bit for bit (a fixpoint), 2 if
    it reproduced the iterate before that (an exact 2-cycle), else 0.
    A deterministic sweep that repeats once repeats forever."""
    if np.array_equal(x_new, x):
        return 1
    if x_two_ago is not None and np.array_equal(x_new, x_two_ago):
        return 2
    return 0


@dataclass(frozen=True)
class SweepRecord:
    """What one sweep did to the workset."""

    sweep: int                       #: 1-based sweep number
    active: tuple[int, ...]          #: partitions relaxed this sweep
    frozen: tuple[int, ...]          #: partitions frozen *after* this sweep
    newly_frozen: tuple[int, ...]    #: partitions that froze this sweep
    reentered: tuple[int, ...]       #: frozen partitions that moved again
    residuals: dict[int, float]      #: per-partition update norm ||dx_v||
    tasks_scheduled: int             #: engine tasks in this sweep's program
    aux_tasks: int = 0               #: freeze-time product-cache tasks


@dataclass
class ConvergenceReport:
    """Per-sweep workset history of one incremental drive."""

    k: int                            #: partition count
    sweeps: list[SweepRecord] = field(default_factory=list)
    fixpoint_sweep: int | None = None  #: sweep at which everything froze

    def tasks_per_sweep(self) -> list[int]:
        return [r.tasks_scheduled for r in self.sweeps]

    def total_tasks(self) -> int:
        return sum(r.tasks_scheduled + r.aux_tasks for r in self.sweeps)

    def workset_sizes(self) -> list[int]:
        return [len(r.active) for r in self.sweeps]

    def first_freeze_sweep(self) -> int | None:
        for r in self.sweeps:
            if r.newly_frozen:
                return r.sweep
        return None

    def monotone_dropout(self) -> bool:
        """Did the workset never grow (no re-entries)?"""
        sizes = self.workset_sizes()
        return all(b <= a for a, b in zip(sizes, sizes[1:]))


@dataclass
class _Phase:
    bits: np.ndarray     #: one frozen value of a partition
    stored: object = None  #: what the driver stored for it, if anything


class ConvergenceTracker:
    """Decides, sweep by sweep, which partitions stay in the workset.

    Drivers call :meth:`observe` once per sweep with the iterate's parts
    before and after the update.  Decisions are recorded in a
    :class:`ConvergenceReport` and, when a ``tracer`` is given, emitted as
    ``converge``-category trace events (``block_converged``,
    ``block_reentered``, ``workset_size``, ``fixpoint``), so dropout is
    visible in the same Chrome timeline as the tasks it removes.
    """

    def __init__(self, k: int, *, tracer=None, metrics=None, node: int = -1):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.tracer = tracer
        self.node = node
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry
            metrics = MetricsRegistry()
        self.metrics = metrics
        #: frozen partition -> its phases (1 = stationary, 2 = an exact
        #: period-2 limit cycle; a driver's :meth:`freeze` may add more)
        self._frozen: dict[int, list[_Phase]] = {}
        #: what was stored for phases thawed since :meth:`released`
        self._released: list = []
        #: partition -> its iterate two sweeps ago (limit-cycle detection)
        self._two_ago: dict[int, np.ndarray] = {}
        self._sweep = 0
        self.report = ConvergenceReport(k=k)

    @property
    def frozen(self) -> frozenset[int]:
        return frozenset(self._frozen)

    def active(self) -> list[int]:
        return [v for v in range(self.k) if v not in self._frozen]

    @property
    def fixpoint(self) -> bool:
        return len(self._frozen) == self.k

    def phases(self, v: int) -> tuple[np.ndarray, ...]:
        """The frozen phase values of partition ``v`` (empty if active)."""
        return tuple(p.bits for p in self._frozen.get(v, ()))

    def _match(self, v: int, bits) -> _Phase | None:
        return next((p for p in self._frozen.get(v, ())
                     if np.array_equal(p.bits, bits)), None)

    def freeze(self, v: int, bits, stored) -> None:
        """Record ``bits`` as a frozen phase of partition ``v`` with what
        the driver stored for it; a phase already recorded takes
        ``stored`` in place of what it held, which is released."""
        phase = self._match(v, bits)
        if phase is None:
            phase = _Phase(np.array(bits, dtype=np.float64, copy=True))
            self._frozen.setdefault(v, []).append(phase)
        elif phase.stored is not None:
            self._released.append(phase.stored)
        phase.stored = stored

    def thaw(self, v: int) -> None:
        """Return partition ``v`` to the workset; what was stored for its
        phases goes to :meth:`released`."""
        self._released.extend(p.stored for p in self._frozen.pop(v, ())
                              if p.stored is not None)

    def released(self) -> list:
        """What was stored for the phases thawed since the last call, for
        the driver to free."""
        out, self._released = self._released, []
        return out

    def select(self, parts: dict[int, np.ndarray]) -> dict[int, object]:
        """What was stored for the phase each frozen partition's incoming
        part ``parts[v]`` matches (``None`` if nothing yet).  A frozen
        partition whose part matches none of its phases is thawed."""
        chosen = {}
        for v in sorted(self._frozen):
            phase = self._match(v, parts[v])
            if phase is None:
                self.thaw(v)
            else:
                chosen[v] = phase.stored
        return chosen

    def observe(self, prev_parts: dict[int, np.ndarray],
                new_parts: dict[int, np.ndarray], *,
                tasks_scheduled: int = 0,
                aux_tasks: int = 0) -> SweepRecord:
        """Record one completed sweep; returns its workset transitions."""
        self._sweep += 1
        active = tuple(self.active())
        residuals: dict[int, float] = {}
        newly_frozen: list[int] = []
        reentered: list[int] = []
        for v in range(self.k):
            old, new = prev_parts[v], new_parts[v]
            residuals[v] = float(np.linalg.norm(
                np.asarray(new, dtype=np.float64)
                - np.asarray(old, dtype=np.float64)))
            two_ago = self._two_ago.get(v)
            self._two_ago[v] = np.array(old, dtype=np.float64, copy=True)
            if v in self._frozen:
                if self._match(v, new) is None:
                    self.thaw(v)
                    reentered.append(v)
                continue
            if np.array_equal(old, new):
                phases = (new,)
            elif two_ago is not None and np.array_equal(two_ago, new):
                phases = (new, old)  # an exact period-2 limit cycle
            else:
                continue
            for bits in phases:
                self.freeze(v, bits, None)
            newly_frozen.append(v)
        record = SweepRecord(
            sweep=self._sweep, active=active,
            frozen=tuple(sorted(self._frozen)),
            newly_frozen=tuple(newly_frozen), reentered=tuple(reentered),
            residuals=residuals, tasks_scheduled=tasks_scheduled,
            aux_tasks=aux_tasks)
        self.report.sweeps.append(record)
        self.metrics.inc("sweeps")
        self.metrics.inc("blocks_converged", len(newly_frozen))
        self.metrics.inc("blocks_reentered", len(reentered))
        self.metrics.inc("workset_tasks", tasks_scheduled)
        if self.tracer is not None:
            for v in newly_frozen:
                self.tracer.instant(self.node, "driver", "converge",
                                    "block_converged", block=v,
                                    sweep=self._sweep,
                                    residual=residuals[v])
            for v in reentered:
                self.tracer.instant(self.node, "driver", "converge",
                                    "block_reentered", block=v,
                                    sweep=self._sweep,
                                    residual=residuals[v])
            self.tracer.counter(self.node, "driver", "converge",
                                "workset_size", len(self.active()),
                                sweep=self._sweep)
        if self.fixpoint and self.report.fixpoint_sweep is None:
            self.report.fixpoint_sweep = self._sweep
            self.metrics.inc("fixpoints")
            if self.tracer is not None:
                self.tracer.instant(self.node, "driver", "converge",
                                    "fixpoint", sweep=self._sweep)
        return record
