"""Dependency DAG derived from task input/output declarations.

"The input and output data information is used to derive a DAG of the
tasks": task B depends on task A iff B reads an array A writes.  Arrays
that no task produces must pre-exist in the storage layer (*initial*
arrays).  The DAG tracks completion and maintains the ready frontier.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.core.errors import SchedulingError
from repro.core.task import TaskSpec


class TaskDAG:
    """Tasks + derived dependencies + execution bookkeeping."""

    def __init__(self, tasks: Iterable[TaskSpec], initial_arrays: Iterable[str]):
        self.tasks: dict[str, TaskSpec] = {}
        self.producer: dict[str, str] = {}  # array -> producing task
        self.initial_arrays = set(initial_arrays)
        for t in tasks:
            if t.name in self.tasks:
                raise SchedulingError(
                    f"duplicate task name {t.name!r}: every task needs a "
                    "unique name for scheduling and tracing")
            self.tasks[t.name] = t
            for array in t.outputs:
                if array in self.producer:
                    raise SchedulingError(
                        f"array {array!r} is written by both "
                        f"{self.producer[array]!r} and {t.name!r}; arrays are "
                        "immutable (write-once) — give the second result a "
                        "new name")
                if array in self.initial_arrays:
                    raise SchedulingError(
                        f"array {array!r} is declared initial but task "
                        f"{t.name!r} writes it; initial arrays are inputs only")
                self.producer[array] = t.name

        self.preds: dict[str, set[str]] = {name: set() for name in self.tasks}
        self.succs: dict[str, set[str]] = {name: set() for name in self.tasks}
        for t in self.tasks.values():
            for array in t.inputs:
                if array in self.producer:
                    p = self.producer[array]
                    self.preds[t.name].add(p)
                    self.succs[p].add(t.name)
                elif array not in self.initial_arrays:
                    raise SchedulingError(
                        f"task {t.name!r} reads array {array!r}, which nothing "
                        "produces and which is not declared initial — the "
                        "read could never be satisfied")
        self._check_acyclic()
        self.completed: set[str] = set()
        self._remaining_preds: dict[str, int] = {
            name: len(p) for name, p in self.preds.items()
        }

    def _check_acyclic(self) -> None:
        indeg = {n: len(p) for n, p in self.preds.items()}
        queue = deque(n for n, d in indeg.items() if d == 0)
        seen = 0
        while queue:
            n = queue.popleft()
            seen += 1
            for s in self.succs[n]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    queue.append(s)
        if seen != len(self.tasks):
            cycle = self._cycle_among({n for n, d in indeg.items() if d > 0})
            raise SchedulingError(
                "task graph has a dependency cycle: " + " -> ".join(cycle)
                + "; no task on this loop can ever become ready")

    def _cycle_among(self, unsorted: set[str]) -> list[str]:
        """A cycle through the tasks Kahn's pass left ``unsorted``, closed
        (first == last) and starting at its least name.  Each of them
        waits on another one of them, so walking back along those waits
        comes round to a task already passed."""
        path: list[str] = []
        at: dict[str, int] = {}
        n = min(unsorted)
        while n not in at:
            at[n] = len(path)
            path.append(n)
            n = min(self.preds[n] & unsorted)
        loop = path[at[n]:][::-1]  # walked backwards: reverse
        first = loop.index(min(loop))
        loop = loop[first:] + loop[:first]
        return loop + loop[:1]

    # -- execution bookkeeping -------------------------------------------------

    def ready_tasks(self) -> list[str]:
        """Tasks whose predecessors have all completed (and not yet done)."""
        return [
            name
            for name, remaining in self._remaining_preds.items()
            if remaining == 0 and name not in self.completed
        ]

    def mark_complete(self, name: str) -> list[str]:
        """Record completion; returns tasks that just became ready."""
        if name not in self.tasks:
            raise SchedulingError(f"unknown task {name!r}")
        if name in self.completed:
            raise SchedulingError(f"task {name!r} completed twice")
        if self._remaining_preds[name] != 0:
            raise SchedulingError(f"task {name!r} completed before its inputs")
        self.completed.add(name)
        newly_ready = []
        for s in self.succs[name]:
            self._remaining_preds[s] -= 1
            if self._remaining_preds[s] == 0:
                newly_ready.append(s)
        return newly_ready

    @property
    def done(self) -> bool:
        return len(self.completed) == len(self.tasks)

    def topological_order(self) -> list[str]:
        """A deterministic topological order (Kahn, name-sorted ties)."""
        indeg = {n: len(p) for n, p in self.preds.items()}
        frontier = sorted(n for n, d in indeg.items() if d == 0)
        order: list[str] = []
        while frontier:
            n = frontier.pop(0)
            order.append(n)
            added = False
            for s in sorted(self.succs[n]):
                indeg[s] -= 1
                if indeg[s] == 0:
                    frontier.append(s)
                    added = True
            if added:
                frontier.sort()
        return order

    def consumers_of(self, array: str) -> list[str]:
        return sorted(t.name for t in self.tasks.values() if array in t.inputs)

    def critical_path_length(self) -> int:
        """Longest chain of tasks (unit weights)."""
        depth: dict[str, int] = {}
        for name in self.topological_order():
            depth[name] = 1 + max((depth[p] for p in self.preds[name]), default=0)
        return max(depth.values(), default=0)
