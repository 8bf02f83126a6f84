"""Lock-order recording and cycle detection for the threaded runtime.

A deadlock between two threads needs two locks acquired in opposite
orders.  The runtime never *intends* to nest its per-instance condition
variables, but nothing enforced that — a future change that takes lock B
while holding lock A on one thread and A-under-B on another would only
surface as a watchdog stall, minutes into a soak run, with no named
culprit.

:class:`LockOrderRecorder` turns the discipline into a checkable
invariant: wrap every runtime lock (``wrap``/``wrap_condition``), and each
acquisition made while other wrapped locks are held adds a *held → taken*
edge to a cross-thread graph.  :meth:`check` (called by
``ThreadedRuntime.join`` when the checkers are on) raises
:class:`LockOrderViolation` naming the cycle — which locks, which
threads, and where each edge was first observed — the moment an ordering
inversion is ever *exercised*, even if the interleaving happened to not
deadlock this run.

Overhead is a thread-local list append per acquisition, and the wrapping
only happens under ``DOOC_CHECKERS=1`` (or an explicit recorder), so
production runs pay nothing.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass

from repro.core.dag import find_cycle

__all__ = ["LockOrderRecorder", "LockOrderViolation",
           "RecordingLock", "RecordingCondition"]


class LockOrderViolation(RuntimeError):
    """The observed lock acquisition graph contains a cycle."""

    def __init__(self, message: str, cycle: list[str]):
        super().__init__(message)
        self.cycle = cycle


@dataclass(frozen=True)
class _Edge:
    """First observation of ``held`` being held while ``taken`` was taken."""

    held: str
    taken: str
    thread: str
    site: str  # "file:line" of the acquiring call


class _HeldStack(threading.local):
    def __init__(self):
        self.names: list[str] = []


def _acquire_site() -> str:
    # Walk out of this module to the caller that actually took the lock.
    for frame in reversed(traceback.extract_stack(limit=8)[:-1]):
        if not frame.filename.endswith("lockorder.py"):
            return f"{frame.filename}:{frame.lineno}"
    return "<unknown>"


class LockOrderRecorder:
    """Builds the cross-thread *held → taken* graph of wrapped locks."""

    def __init__(self):
        self._graph_lock = threading.Lock()
        self._edges: dict[tuple[str, str], _Edge] = {}
        self._held = _HeldStack()

    # -- wrapping ----------------------------------------------------------

    def wrap(self, lock: threading.Lock | threading.RLock,
             name: str) -> RecordingLock:
        return RecordingLock(self, lock, name)

    def wrap_condition(self, cond: threading.Condition,
                       name: str) -> RecordingCondition:
        return RecordingCondition(self, cond, name)

    # -- recording ---------------------------------------------------------

    def note_acquired(self, name: str) -> None:
        held = self._held.names
        if held:
            site = _acquire_site()
            thread = threading.current_thread().name
            with self._graph_lock:
                for h in held:
                    if h != name:
                        self._edges.setdefault(
                            (h, name), _Edge(h, name, thread, site))
        held.append(name)

    def note_released(self, name: str) -> None:
        held = self._held.names
        # Out-of-order releases are legal; drop the most recent occurrence.
        for i in range(len(held) - 1, -1, -1):
            if held[i] == name:
                del held[i]
                return

    # -- analysis ----------------------------------------------------------

    def edges(self) -> list[tuple[str, str]]:
        with self._graph_lock:
            return sorted(self._edges)

    def check(self) -> None:
        """Raise :class:`LockOrderViolation` if an ordering cycle exists;
        its ``cycle`` is closed and starts at its least lock."""
        with self._graph_lock:
            succs: dict[str, list[str]] = {}
            for held, taken in self._edges:
                succs.setdefault(held, []).append(taken)
            cycle = find_cycle(succs)
            if cycle is None:
                return
            lines = ["lock-order cycle detected (a deadlock waiting for the "
                     "right interleaving):",
                     "  cycle: " + " -> ".join(cycle)]
            for held, taken in zip(cycle, cycle[1:], strict=False):
                edge = self._edges.get((held, taken))
                if edge is not None:
                    lines.append(
                        f"  {held} held while taking {taken} "
                        f"[thread {edge.thread}, {edge.site}]")
        raise LockOrderViolation("\n".join(lines), cycle)


class RecordingLock:
    """A lock proxy that reports acquisitions to a recorder."""

    def __init__(self, recorder: LockOrderRecorder, lock, name: str):
        self._recorder = recorder
        self._lock = lock
        self.name = name

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        got = self._lock.acquire(blocking, timeout)
        if got:
            self._recorder.note_acquired(self.name)
        return got

    def release(self) -> None:
        self._lock.release()
        self._recorder.note_released(self.name)

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> RecordingLock:
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class RecordingCondition:
    """A condition-variable proxy that reports acquisitions to a recorder.

    ``wait`` keeps the lock on the recorder's held stack even though the
    underlying condition releases it internally: the waiting thread takes
    no other locks while parked, so no false edges arise, and the stack
    matches reality again the moment ``wait`` returns re-acquired.
    """

    def __init__(self, recorder: LockOrderRecorder,
                 cond: threading.Condition, name: str):
        self._recorder = recorder
        self._cond = cond
        self.name = name

    # -- lock surface ------------------------------------------------------

    def acquire(self, *args, **kwargs) -> bool:
        got = self._cond.acquire(*args, **kwargs)
        if got:
            self._recorder.note_acquired(self.name)
        return got

    def release(self) -> None:
        self._cond.release()
        self._recorder.note_released(self.name)

    def __enter__(self) -> RecordingCondition:
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    # -- condition surface -------------------------------------------------

    def wait(self, timeout: float | None = None) -> bool:
        return self._cond.wait(timeout)

    def wait_for(self, predicate, timeout: float | None = None):
        return self._cond.wait_for(predicate, timeout)

    def notify(self, n: int = 1) -> None:
        self._cond.notify(n)

    def notify_all(self) -> None:
        self._cond.notify_all()
