"""The local scheduler: per-node reorder + prefetch decision core.

The local scheduler "splits [tasks] to match the parallelism available on
the node", marks tasks ready once their predecessors finish, prefers ready
tasks "whose data input are available in memory", and "makes sure that
there are a given number of ready tasks whose data are in memory by
sending sufficient prefetch requests to the storage layer".

The preference order implemented here is what makes the back-and-forth
plan of Fig. 5(b) *emerge* rather than be programmed:

1. tasks with **every** input array resident come first;
2. then by resident input bytes (more reuse first);
3. ties broken **LIFO** on readiness: the task that became ready last runs
   first.  In iterated SpMV, the column processed last in iteration *i*
   produces its reduced vector last, so iteration *i+1* starts with the
   sub-matrix that is still in memory and traverses the columns backwards.

The class is pure: the engine drives it with residency snapshots and
consumes its decisions.  It is the only driver today — the DES testbed
models the same policy independently (ROADMAP item 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections.abc import Mapping
from typing import AbstractSet

from repro.core.task import TaskSpec


@dataclass(frozen=True)
class _ReadyEntry:
    seq: int  # readiness order (monotonic)
    task: TaskSpec


class LocalSchedulerCore:
    """Decision core for one node."""

    def __init__(self, node: int, *, prefetch_depth: int = 2,
                 reorder: bool = True):
        if prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        self.node = node
        self.prefetch_depth = prefetch_depth
        #: when False, tasks run in plain readiness (FIFO) order — the
        #: naive MPI-style plan of Fig. 5(a), kept as an ablation switch
        self.reorder = reorder
        self._seq = itertools.count()
        self._ready: dict[str, _ReadyEntry] = {}
        self._prefetched: set[str] = set()  # arrays already asked for

    # -- feeding ---------------------------------------------------------------

    def add_ready(self, task: TaskSpec) -> None:
        """A task assigned to this node became runnable."""
        if task.name in self._ready:
            raise ValueError(f"task {task.name!r} added ready twice")
        self._ready[task.name] = _ReadyEntry(next(self._seq), task)

    @property
    def ready_count(self) -> int:
        return len(self._ready)

    def pending_tasks(self) -> list[TaskSpec]:
        return [e.task for e in self._ready.values()]

    def ready_inputs(self) -> set[str]:
        """Every input array of a ready task: the only names ``rank`` and
        ``prefetch_plan`` test against ``resident``, so a residency
        snapshot need cover no others."""
        return {a for e in self._ready.values() for a in e.task.inputs}

    # -- decisions ---------------------------------------------------------------

    def _score(self, entry: _ReadyEntry, resident: AbstractSet[str],
               nbytes: Mapping[str, int]) -> tuple:
        t = entry.task
        res_bytes = sum(nbytes.get(a, 0) for a in t.inputs if a in resident)
        all_resident = all(a in resident for a in t.inputs)
        # Sort descending on each component: (all_resident, bytes, seq).
        return (all_resident, res_bytes, entry.seq)

    def rank(self, resident: AbstractSet[str],
             nbytes: Mapping[str, int]) -> list[TaskSpec]:
        """Ready tasks in execution-preference order."""
        if not self.reorder:
            entries = sorted(self._ready.values(), key=lambda e: e.seq)
            return [e.task for e in entries]
        entries = sorted(
            self._ready.values(),
            key=lambda e: self._score(e, resident, nbytes),
            reverse=True,
        )
        return [e.task for e in entries]

    def pick(self, resident: AbstractSet[str],
             nbytes: Mapping[str, int]) -> TaskSpec | None:
        """Choose and *claim* the next task to run (None when idle)."""
        ranked = self.rank(resident, nbytes)
        if not ranked:
            return None
        return self.claim(ranked[0].name)

    def claim(self, name: str) -> TaskSpec:
        """Remove a ready task from the pool (the caller will run it)."""
        entry = self._ready.pop(name)
        self._prefetched.difference_update(entry.task.inputs)
        return entry.task

    def prefetch_plan(self, resident: AbstractSet[str],
                      nbytes: Mapping[str, int]) -> list[str]:
        """Arrays to warm for the next ``prefetch_depth`` preferred tasks.

        Already-resident and already-requested arrays are skipped; the
        caller should forward each name to the storage layer once.
        """
        plan: list[str] = []
        for t in self.rank(resident, nbytes)[: self.prefetch_depth]:
            for array in t.inputs:
                if array in resident or array in self._prefetched or array in plan:
                    continue
                plan.append(array)
        self._prefetched.update(plan)
        return plan

    def forget_prefetch(self, array: str) -> None:
        """Allow an array to be prefetched again: the storage declined the
        request (no free headroom) or has evicted the block since."""
        self._prefetched.discard(array)

    # -- splitting ---------------------------------------------------------------

    @staticmethod
    def split(task: TaskSpec, parts: int) -> list[TaskSpec]:
        """Split a splittable task into ``parts`` row-range subtasks.

        The task must carry ``meta['splitter']``: a callable
        ``(task, parts) -> list[TaskSpec]`` provided by the application
        (the middleware cannot know how to partition an arbitrary kernel's
        output).  Subtasks carry ``meta['parent']`` for completion
        accounting.
        """
        if parts <= 1 or not task.splittable:
            return [task]
        splitter = task.meta.get("splitter")
        if splitter is None:
            return [task]
        subtasks = splitter(task, parts)
        for sub in subtasks:
            if sub.meta.get("parent") != task.name:
                raise ValueError(
                    f"splitter for {task.name!r} must set meta['parent']"
                )
        return subtasks
