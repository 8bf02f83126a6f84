"""Dependency DAG derived from task input/output declarations.

"The input and output data information is used to derive a DAG of the
tasks": task B depends on task A iff B reads an array A writes.  Arrays
that no task produces must pre-exist in the storage layer (*initial*
arrays).  The DAG tracks completion and maintains the ready frontier.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Mapping
from functools import cached_property

from repro.core.errors import SchedulingError
from repro.core.task import TaskSpec


def find_cycle(succs: Mapping[str, Iterable[str]]) -> list[str] | None:
    """A cycle of the graph ``succs`` (node -> its successors), closed
    (first == last) and starting at its least node; None if it has none.

    Kahn's peel removes every node no cycle leads to.  Each node left
    waits on another one left, so walking back along those waits from
    the least of them comes round to a node already passed.  The walk
    runs only when the peel leaves something.
    """
    indeg = dict.fromkeys(succs, 0)
    for nexts in succs.values():
        for s in nexts:
            indeg[s] = indeg.get(s, 0) + 1
    queue = deque(n for n, d in indeg.items() if d == 0)
    while queue:
        for s in succs.get(queue.popleft(), ()):
            indeg[s] -= 1
            if indeg[s] == 0:
                queue.append(s)
    left = {n for n, d in indeg.items() if d > 0}
    if not left:
        return None
    preds: dict[str, set[str]] = {n: set() for n in left}
    for n in left:
        for s in succs.get(n, ()):
            if s in left:
                preds[s].add(n)
    path: list[str] = []
    at: dict[str, int] = {}
    n = min(left)
    while n not in at:
        at[n] = len(path)
        path.append(n)
        n = min(preds[n])
    loop = path[at[n]:][::-1]  # walked backwards: reverse
    first = loop.index(min(loop))
    loop = loop[first:] + loop[:first]
    return loop + loop[:1]


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

        # Ordered sets (dicts of None) in declaration order: the order a
        # completion makes its successors ready must not follow the hash
        # seed, since dispatch, loads and spills follow it.
        self.preds: dict[str, dict[str, None]] = {n: {} for n in self.tasks}
        self.succs: dict[str, dict[str, None]] = {n: {} for n in self.tasks}
        for t in self.tasks.values():
            for array in t.inputs:
                if array in self.producer:
                    p = self.producer[array]
                    self.preds[t.name][p] = None
                    self.succs[p][t.name] = None
                elif array not in self.initial_arrays:
                    raise SchedulingError(
                        f"task {t.name!r} reads array {array!r}, which nothing "
                        "produces and which is not declared initial — the "
                        "read could never be satisfied")
        cycle = find_cycle(self.succs)
        if cycle is not None:
            raise SchedulingError(
                "task graph has a dependency cycle: " + " -> ".join(cycle)
                + "; no task on this loop can ever become ready")
        self.completed: set[str] = set()
        self._remaining_preds: dict[str, int] = {
            name: len(p) for name, p in self.preds.items()
        }

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

    @cached_property
    def depth(self) -> dict[str, int]:
        """Task -> the longest chain of tasks ending at it (a source is 1):
        how far into the program it runs, whatever the schedule."""
        depth: dict[str, int] = {}
        for name in self.topological_order():
            depth[name] = 1 + max((depth[p] for p in self.preds[name]), default=0)
        return depth

    def critical_path_length(self) -> int:
        """Longest chain of tasks (unit weights)."""
        return max(self.depth.values(), default=0)
