"""Per-block convergence tracking for incremental (delta/workset) sweeps.

Bulk-synchronous iteration pays the full data-movement bill every sweep,
even for partitions that can no longer change the answer.  Following
"Spinning Fast Iterative Data Flows" (PAPERS.md), the tracker below gives
solvers a *workset*: each sweep it compares every partition's iterate
before and after the update and freezes the ones that went stationary, so
drivers can stop generating tasks (and stop re-reading sub-matrix files)
for them.

The freeze rule decides which verdict a run can be held to
(docs/ITERATION.md, "Verdict applicability"):

* ``tol == 0.0`` (the default) freezes a partition only when its iterate
  is **bitwise** stationary (``np.array_equal``).  Re-multiplying an
  unchanged ``x_v`` is deterministic, so reusing the cached products is
  bit-identical to recomputing them — synchronous incremental runs keep
  the bit-identity verdict against the SciPy reference.
* ``tol > 0.0`` freezes on a relative update-norm threshold.  That is a
  numerical approximation (the classic delta-iteration trade), so runs
  using it get a convergence-bound verdict instead.

Floating-point Jacobi sweeps rarely land on an exact period-1 fixpoint:
near convergence the per-element update ``r_i / d_i`` sits right at the
last-ulp boundary and round-to-nearest makes the iterate *oscillate
between two adjacent floats* forever (the residual floor and the
absorption threshold are the same order, ``eps * |x|``).  The tracker
therefore also detects exact **period-2 limit cycles** — ``x_v(t)``
bitwise equal to ``x_v(t-2)`` — and freezes those partitions with *both*
phase values.  Product caches are content-addressed by the incoming
iterate bits, so a cycling partition's multiply is still reproduced
exactly; a partition is thawed the moment its iterate matches none of
its frozen phases.

A frozen partition is *not* retired for good: the tracker re-compares on
every sweep and thaws any partition whose iterate moved again (a tiny
update can be absorbed one sweep and resolvable the next), so dropout
never changes the computed values — only the work done to reach them.
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
    tol: float                        #: freeze threshold (0.0 = bitwise)
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


class ConvergenceTracker:
    """Decides, sweep by sweep, which partitions stay in the workset.

    The tracker is the single authority on frozen/active state; drivers
    call :meth:`observe` once per sweep with the iterate's parts before
    and after the update and mirror the returned ``newly_frozen`` /
    ``reentered`` sets into their product caches.  Decisions are recorded
    in a :class:`ConvergenceReport` and, when a ``tracer`` is given,
    emitted as ``converge``-category trace events (``block_converged``,
    ``block_reentered``, ``workset_size``, ``fixpoint``), so dropout is
    visible in the same Chrome timeline as the tasks it removes.
    """

    def __init__(self, k: int, *, tol: float = 0.0, tracer=None,
                 metrics=None, node: int = -1):
        if k < 1:
            raise ValueError("k must be >= 1")
        if tol < 0.0:
            raise ValueError("tol must be >= 0")
        self.k = k
        self.tol = tol
        self.tracer = tracer
        self.node = node
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry
            metrics = MetricsRegistry()
        self.metrics = metrics
        #: frozen partition -> its phase values (1 entry = stationary,
        #: 2 entries = exact period-2 limit cycle)
        self._frozen: dict[int, list[np.ndarray]] = {}
        #: partition -> its iterate two sweeps ago (limit-cycle detection)
        self._two_ago: dict[int, np.ndarray] = {}
        self._sweep = 0
        self.report = ConvergenceReport(k=k, tol=tol)

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
        return tuple(self._frozen.get(v, ()))

    def _stationary(self, old: np.ndarray, new: np.ndarray) -> bool:
        if self.tol == 0.0:
            return bool(np.array_equal(old, new))
        scale = max(float(np.linalg.norm(new)), 1.0)
        return float(np.linalg.norm(new - old)) <= self.tol * scale

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
                if not any(np.array_equal(p, new) for p in self._frozen[v]):
                    del self._frozen[v]
                    reentered.append(v)
            elif self._stationary(old, new):
                self._frozen[v] = [np.array(new, dtype=np.float64, copy=True)]
                newly_frozen.append(v)
            elif (self.tol == 0.0 and two_ago is not None
                  and np.array_equal(two_ago, new)):
                # Exact period-2 limit cycle: freeze both phases.
                self._frozen[v] = [np.array(new, dtype=np.float64, copy=True),
                                   np.array(old, dtype=np.float64, copy=True)]
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
